"""Boolean analysis of causal-effect graphs.

Evaluation gives every linked effect the value of its cause expression
(biconditional semantics); unlinked effects are false. The exhaustive
searches below are exact and run on one bit-parallel truth table
(`TruthTable`): each condition is a 2^k-bit integer column, so a cause
expression, a constraint or a mask conflict is a few bitwise operations over
every assignment at once. The table is capped at `ENUMERATION_CAP`
conditions; a column takes 2^k/8 bytes, 128 KB at the cap.
"""

from __future__ import annotations

import re
from functools import cached_property, reduce
from itertools import product
from operator import and_, or_
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from ..errors import IncompleteAssignment, TooManyConditions
from .model import (
    And,
    Atom,
    CausalEffectGraph,
    CauseExpr,
    Constraint,
    ConstraintOp,
    Not,
    TruthAssignment,
    eval_expr,
    expr_atoms,
)

ENUMERATION_CAP = 20


class EvalResult(NamedTuple):
    effects: dict[str, bool]
    violated_constraints: list[Constraint]
    masked_effects: list[str]


def evaluate(graph: CausalEffectGraph, assignment: TruthAssignment) -> EvalResult:
    """Evaluate all effects, constraint violations, and mask conflicts."""
    missing = [c for c in graph.conditions() if c not in assignment]
    if missing:
        raise IncompleteAssignment(f"no value for condition(s): {', '.join(missing)}")
    effects = {e: False for e in graph.effects()}
    for link in graph.links:
        effects[link.effect] = eval_expr(link.cause, assignment)
    violated = [c for c in graph.constraints if not c.holds(assignment)]
    violated.sort(key=lambda c: (c.op.value, c.a, c.b))
    masked = sorted(
        {r.b for r in graph.restrictions if effects.get(r.a) and effects.get(r.b)}
    )
    return EvalResult(effects=effects, violated_constraints=violated, masked_effects=masked)


def _assignments(condition_ids: Sequence[str]) -> Iterable[TruthAssignment]:
    """All assignments, true-first per condition in sorted-id order."""
    return (dict(zip(condition_ids, values))
            for values in product((True, False), repeat=len(condition_ids)))


def _column(shift: int, rows: int) -> int:
    """Rows (bit i of the result) in which bit `shift` of i is 0."""
    run = 1 << shift
    column, width = (1 << run) - 1, 2 * run
    while width < rows:
        column |= column << width
        width *= 2
    return column


class TruthTable:
    """Every assignment of some conditions at once, one bit per row.

    Bit i of a mask is row i of `_assignments`: condition j is true in row i
    iff bit k-1-j of i is 0. For a graph it also holds the rows meeting every
    constraint, the rows where each linked effect fires, and the rows where no
    `MSK` restriction has both of its effects firing.
    """

    def __init__(self, conditions: Sequence[str],
                 graph: CausalEffectGraph = CausalEffectGraph(nodes=())):
        k = len(conditions)
        self.full = (1 << (1 << k)) - 1
        self.columns = {cid: _column(k - 1 - j, 1 << k) for j, cid in enumerate(conditions)}
        self.consistent = reduce(and_, map(self.constraint, graph.constraints), self.full)
        self.fires = {link.effect: self.expr(link.cause) for link in graph.links}
        self.unmasked = self.full ^ reduce(or_, (self.fires.get(r.a, 0) & self.fires.get(r.b, 0)
                                                 for r in graph.restrictions), 0)

    @classmethod
    def of(cls, graph: CausalEffectGraph, cap: int = ENUMERATION_CAP) -> "TruthTable":
        """The graph's table; TooManyConditions is raised before anything is built."""
        conditions = graph.conditions()
        if len(conditions) > cap:
            raise TooManyConditions(
                f"{len(conditions)} conditions exceed the enumeration cap of {cap}")
        return cls(conditions, graph)

    def expr(self, expr: CauseExpr) -> int:
        if isinstance(expr, Atom):
            return self.columns[expr.condition]
        if isinstance(expr, Not):
            return self.full ^ self.expr(expr.operand)
        return reduce(and_ if isinstance(expr, And) else or_, map(self.expr, expr.operands))

    def constraint(self, constraint: Constraint) -> int:
        a, b = self.columns[constraint.a], self.columns[constraint.b]
        if constraint.op is ConstraintOp.EXC:
            return self.full ^ (a & b)
        if constraint.op is ConstraintOp.INC:
            return a | b
        if constraint.op is ConstraintOp.REQ:
            return (self.full ^ a) | b
        return a ^ b

    def cube(self, literals: Mapping[str, bool]) -> int:
        """Rows that agree with every given condition value."""
        return reduce(and_, (self.columns[cid] if value else self.full ^ self.columns[cid]
                             for cid, value in literals.items()), self.full)

    @cached_property
    def by_true_count(self) -> list[int]:
        """Entry t holds the rows with exactly t true conditions."""
        counts = [self.full]
        for column in self.columns.values():
            counts = [(rows & ~column) | (fewer & column)
                      for rows, fewer in zip(counts + [0], [0] + counts)]
        return counts

    def first_row(self, mask: int, most_true: bool) -> Optional[TruthAssignment]:
        """The first row of `mask` with the most (or the fewest) true conditions."""
        counts = self.by_true_count
        for rows in (reversed(counts) if most_true else counts):
            if hit := mask & rows:
                return self.row((hit & -hit).bit_length() - 1)
        return None

    def row(self, i: int) -> TruthAssignment:
        k = len(self.columns)
        return {cid: not (i >> (k - 1 - j)) & 1 for j, cid in enumerate(self.columns)}

    def rows(self, mask: int) -> list[TruthAssignment]:
        """The rows of `mask` as assignments, in row order."""
        return [self.row(m.start()) for m in re.finditer("1", bin(mask)[:1:-1])]


def consistent_assignments(graph: CausalEffectGraph,
                           cap: int = ENUMERATION_CAP) -> list[TruthAssignment]:
    """Every assignment satisfying all constraints; empty means unsatisfiable."""
    table = TruthTable.of(graph, cap)
    return table.rows(table.consistent)


def find_uncovered_conditions(graph: CausalEffectGraph,
                              cap: int = ENUMERATION_CAP) -> list[TruthAssignment]:
    """Consistent assignments under which no linked effect fires.

    These are the missing-edge-case witnesses: situations the constraint set
    allows but for which the graph specifies no behavior.
    """
    table = TruthTable.of(graph, cap)
    return table.rows(table.consistent & ~reduce(or_, table.fires.values(), 0))


ConstraintPattern = Sequence[Constraint]


def diff_constraint_coverage(graph: CausalEffectGraph,
                             required: Sequence[ConstraintPattern | Constraint],
                             cap: int = ENUMERATION_CAP) -> list[ConstraintPattern]:
    """Report required constraint patterns not entailed by the graph.

    Each pattern is a disjunction of alternatives; it is entailed when every
    consistent assignment of the graph satisfies at least one alternative.
    """
    node_map = graph.node_map
    patterns: list[tuple[ConstraintPattern | Constraint, tuple[Constraint, ...]]] = []
    for pattern in required:
        alternatives = (pattern,) if isinstance(pattern, Constraint) else tuple(pattern)
        if not alternatives:
            raise ValueError("a required pattern must have at least one alternative")
        for operand in (operand for alt in alternatives for operand in (alt.a, alt.b)):
            if operand not in node_map:
                raise ValueError(f"pattern references undeclared condition '{operand}'")
        patterns.append((pattern, alternatives))
    table = TruthTable.of(graph, cap)
    return [original for original, alternatives in patterns
            if table.consistent & ~reduce(or_, map(table.constraint, alternatives))]


def minimal_satisfying_assignments(expr: CauseExpr) -> list[dict[str, bool]]:
    """All minimal partial assignments over the expression's support forcing it true.

    These are the prime implicants (McCluskey 1956): a cube forces f when
    `cube & ~f == 0`, and no literal can be dropped from a minimal one. The
    empty cube is never returned, so a tautology yields every one-literal
    cube. Cubes grow one literal at a time in support order, and only those
    that meet f without forcing it grow further. Result order is deterministic.
    """
    support = sorted(expr_atoms(expr))
    table = TruthTable(support)
    f = table.expr(expr)
    literals = [((cid, value), table.cube({cid: value}))
                for cid in support for value in (False, True)]
    minimal: list[dict[str, bool]] = []
    # (cube, its rows, index of the first literal it may grow by)
    frontier: list[tuple[tuple, int, int]] = [((), table.full, 0)]
    while frontier:
        grown = []
        for cube, rows, start in frontier:
            for index in range(start, len(literals)):
                literal, column = literals[index]
                rows_now = rows & column
                if not rows_now & f:
                    continue  # no completion satisfies f, so no extension forces it
                candidate = cube + (literal,)
                if rows_now & ~f:
                    grown.append((candidate, rows_now, index // 2 * 2 + 2))
                # A forcing cube is minimal when no literal can be dropped. Without
                # its last literal it is a grown cube, which does not force f.
                elif all(table.cube(dict(candidate[:i] + candidate[i + 1:])) & ~f
                         for i in range(len(candidate) - 1)):
                    minimal.append(dict(candidate))
        frontier = grown
    minimal.sort(key=lambda p: (len(p), sorted(p.items())))
    return minimal
