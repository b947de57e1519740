"""Correctness checks that share no code with the package under test.

`TruthTable` evaluates a generated `GraphSpec` over every row of its truth
table at once: each condition is a 2^k-bit integer column, so a cause
expression or a constraint is a few bitwise operations and a count is
`int.bit_count()`. It reads the spec, never the parsed graph.
"""

from __future__ import annotations

from gen import GraphSpec


def _column(j: int, rows: int) -> int:
    """Rows (bit r of the result) in which bit j of the row index is set."""
    run = 1 << j
    mask = ((1 << run) - 1) << run
    width = 2 * run
    while width < rows:
        mask |= mask << width
        width *= 2
    return mask


class TruthTable:
    def __init__(self, spec: GraphSpec):
        conditions = spec.conditions
        self.rows = 1 << len(conditions)
        self.full = (1 << self.rows) - 1
        self.columns = {c: _column(j, self.rows) for j, c in enumerate(conditions)}
        self.consistent = self.full
        for constraint in spec.constraints:
            self.consistent &= self.constraint(constraint)
        fired = 0
        for _, cause in spec.links:
            fired |= self.expr(cause)
        self.uncovered = self.consistent & ~fired

    def expr(self, expr) -> int:
        kind = expr[0]
        if kind == "atom":
            return self.columns[expr[1]]
        if kind == "not":
            return self.full & ~self.expr(expr[1])
        parts = [self.expr(e) for e in expr[1]]
        value = parts[0]
        for part in parts[1:]:
            value = value & part if kind == "and" else value | part
        return value

    def constraint(self, constraint) -> int:
        op, a, b = constraint
        va, vb = self.columns[a], self.columns[b]
        if op == "EXC":
            return self.full & ~(va & vb)
        if op == "INC":
            return va | vb
        if op == "REQ":
            return (self.full & ~va) | vb
        return va ^ vb

    def entailed(self, alternatives) -> bool:
        allowed = 0
        for alternative in alternatives:
            allowed |= self.constraint(alternative)
        return self.consistent & ~allowed == 0


def round_trips(lib, text: str) -> bool:
    """Serialized feature text re-parses and serializes to the same text."""
    try:
        again = lib.serialize(lib.parse_feature(text))
    except lib.errors.RequireCegError:
        return False
    return again == text
