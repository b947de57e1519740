"""Differential tests of the bit-parallel truth table against brute force.

Every analysis rebased on `TruthTable` is compared, on seeded random graphs
of up to 12 conditions, with a brute-force answer built one assignment at a
time from `_assignments` and the independent oracle in `tests/helpers.py`.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import product

import pytest

from helpers import (
    _cause_value,
    brute_force_effects,
    brute_force_masked,
    brute_force_violations,
    random_expr,
    random_graph,
)
from requireceg.ceg import analysis
from requireceg.ceg.analysis import (
    TruthTable,
    _assignments,
    consistent_assignments,
    diff_constraint_coverage,
    find_uncovered_conditions,
    minimal_satisfying_assignments,
)
from requireceg.ceg.dsl import parse_ceg
from requireceg.ceg.model import Constraint, ConstraintOp, expr_atoms
from requireceg.errors import TooManyConditions
from requireceg.gherkin.ast import parse_feature
from requireceg.intervention import _baseline_assignment, construct_iqs
from requireceg.review import _choose_assignment, review, synthesize_missing


def _graphs(seed: int, count: int, max_conditions: int = 12):
    rng = random.Random(seed)
    return [random_graph(rng, max_conditions=max_conditions, max_effects=8,
                         max_statements=12) for _ in range(count)]


def _brute_consistent(graph):
    return [a for a in _assignments(graph.conditions())
            if not brute_force_violations(graph, a)]


def _forces(expr, cube, support) -> bool:
    free = [v for v in support if v not in cube]
    return all(_cause_value(expr, {**cube, **dict(zip(free, values))})
               for values in product((False, True), repeat=len(free)))


def _brute_minimal(expr):
    """Every non-empty cube over the support forcing expr with no forcing non-empty sub-cube."""
    support = sorted(expr_atoms(expr))
    implicants = []
    for values in product((None, False, True), repeat=len(support)):
        cube = {v: value for v, value in zip(support, values) if value is not None}
        if cube and _forces(expr, cube, support):
            implicants.append(frozenset(cube.items()))
    minimal = [dict(sorted(p)) for p in implicants
               if not any(q < p for q in implicants)]
    minimal.sort(key=lambda p: (len(p), sorted(p.items())))
    return minimal


class TestAgainstBruteForce:
    def test_consistent_and_uncovered(self):
        for graph in _graphs(11, 60):
            consistent = _brute_consistent(graph)
            assert consistent_assignments(graph) == consistent
            uncovered = [a for a in consistent
                         if not any(brute_force_effects(graph, a)[link.effect]
                                    for link in graph.links)]
            assert find_uncovered_conditions(graph) == uncovered

    def test_diff_constraint_coverage(self):
        rng = random.Random(12)
        for graph in _graphs(12, 60):
            conditions = graph.conditions()
            if len(conditions) < 2:
                continue
            patterns = [[Constraint(rng.choice(list(ConstraintOp)), *rng.sample(conditions, 2))
                         for _ in range(rng.randrange(1, 3))] for _ in range(4)]
            consistent = _brute_consistent(graph)
            # A pattern holds unless every one of its alternatives is violated.
            expected = [p for p in patterns
                        if any(brute_force_violations(replace(graph, constraints=tuple(p)), a)
                               == set(p) for a in consistent)]
            assert diff_constraint_coverage(graph, patterns) == expected

    def test_baseline_assignment(self):
        for graph in _graphs(13, 60):
            consistent = _brute_consistent(graph)
            all_true = {c: True for c in graph.conditions()}
            if all_true in consistent:
                expected = all_true
            elif consistent:
                expected = consistent[max(range(len(consistent)),
                                          key=lambda i: (sum(consistent[i].values()), -i))]
            else:
                expected = None
            assert _baseline_assignment(graph) == expected

    def test_choose_assignment_avoids_constraints_and_masks(self):
        for graph in _graphs(14, 60):
            table = TruthTable.of(graph)
            allowed = [a for a in _brute_consistent(graph)
                       if not brute_force_masked(graph, brute_force_effects(graph, a))]
            for link in graph.links:
                for msa in minimal_satisfying_assignments(link.cause):
                    candidates = [a for a in allowed
                                  if all(a[v] == value for v, value in msa.items())]
                    expected = (min(candidates, key=lambda a: sum(a.values()))
                                if candidates else None)
                    assert _choose_assignment(table, msa) == expected

    def test_minimal_satisfying_assignments_of_graph_links(self):
        for graph in _graphs(15, 60):
            for link in graph.links:
                if len(expr_atoms(link.cause)) <= 7:
                    assert minimal_satisfying_assignments(link.cause) == \
                        _brute_minimal(link.cause)

    def test_minimal_satisfying_assignments_of_random_expressions(self):
        rng = random.Random(16)
        conditions = [f"C{i}" for i in range(1, 6)]
        for _ in range(150):
            expr = random_expr(rng, conditions, 3)
            assert minimal_satisfying_assignments(expr) == _brute_minimal(expr)

    def test_tautology_gives_singletons(self):
        graph = parse_ceg("C1: a\nC2: b\nE1: e\nOR(C1,NOT(C1),C2)=E1")
        assert minimal_satisfying_assignments(graph.links[0].cause) == [
            {"C1": False}, {"C1": True}, {"C2": False}, {"C2": True}]


def _chain_source(k: int) -> str:
    lines = [f"C{i:02d}: condition number {i}" for i in range(1, k + 1)]
    lines += ["E1: first outcome", "E2: second outcome", "AND(C01,C02)=E1",
              "OR(C02,C03)=E2", "EXC(C01,C02)", "MSK(E1,E2)"]
    return "\n".join(lines)


CAP = 4
OVER_CAP = parse_ceg(_chain_source(CAP + 1))
DRAFT = parse_feature("Feature: F\nScenario: S\nGiven condition number 1\n"
                      "When condition number 3 occurs\nThen second outcome")

ENTRY_POINTS = {
    "TruthTable.of": lambda g, cap: TruthTable.of(g, cap),
    "consistent_assignments": lambda g, cap: consistent_assignments(g, cap),
    "find_uncovered_conditions": lambda g, cap: find_uncovered_conditions(g, cap),
    "diff_constraint_coverage": lambda g, cap: diff_constraint_coverage(g, [], cap),
    "_baseline_assignment": lambda g, cap: _baseline_assignment(g, cap),
    "construct_iqs": lambda g, cap: construct_iqs(g, cap),
    "synthesize_missing": lambda g, cap: synthesize_missing(g, set(), cap),
    "review": lambda g, cap: review(DRAFT, g, enumeration_cap=cap),
}


def _columns_up_to(monkeypatch, cap: int) -> None:
    """Fail any truth-table column wider than `cap` conditions' rows."""
    column = analysis._column

    def guarded(shift: int, rows: int) -> int:
        if rows > 1 << cap:
            raise AssertionError(f"a {rows}-row column was built past the cap")
        return column(shift, rows)

    monkeypatch.setattr(analysis, "_column", guarded)


class TestCap:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_raises_before_building(self, name, monkeypatch):
        _columns_up_to(monkeypatch, CAP)
        with pytest.raises(TooManyConditions):
            ENTRY_POINTS[name](OVER_CAP, CAP)

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_runs_at_the_cap(self, name):
        ENTRY_POINTS[name](parse_ceg(_chain_source(CAP)), CAP)

    def test_default_cap_is_twenty(self, monkeypatch):
        assert analysis.ENUMERATION_CAP == 20
        _columns_up_to(monkeypatch, 20)
        with pytest.raises(TooManyConditions):
            consistent_assignments(parse_ceg(_chain_source(21)))
