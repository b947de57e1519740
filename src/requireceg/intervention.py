"""Causal-intervention probes and the self-healing loop for causal graphs.

An intervention question starts from a baseline where every condition holds,
forces one condition false (do(C = False)), recomputes the graph, and asks
whether the requirement text really entails the resulting behavior changes.
Healing alternates a formal repair loop (grammar errors, oracle-assisted
reconstruction) with a semantic repair loop (failed probes, oracle-assisted
modification), each bounded by the iteration cap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

# perfbench/spans.py traces calls to consistent_assignments through this module's globals.
from .ceg.analysis import ENUMERATION_CAP, TruthTable, consistent_assignments, evaluate  # noqa: F401
from .ceg.dsl import FormalError, check_formal, compose_source, parse_ceg
from .ceg.model import AtomicNode, CausalEffectGraph, TruthAssignment
from .errors import DslSyntaxError, FormalLoopExhausted, OracleFailure
from .oracle import Oracle, OracleRequest, parse_structured_answer

logger = logging.getLogger(__name__)

DEFAULT_MAX_ITERS = 5


@dataclass(frozen=True)
class InterventionQuestion:
    iq_id: str
    intervened_condition: str
    affected_statements: tuple[str, ...]
    baseline: TruthAssignment
    intervened: TruthAssignment
    expected_effect_changes: dict[str, tuple[bool, bool]]
    rendered_question: str

    def to_dict(self) -> dict:
        return {
            "iq_id": self.iq_id,
            "intervened_condition": self.intervened_condition,
            "affected_statements": list(self.affected_statements),
            "expected_effect_changes": {
                e: {"before": before, "after": after}
                for e, (before, after) in sorted(self.expected_effect_changes.items())
            },
            "rendered_question": self.rendered_question,
        }


@dataclass(frozen=True)
class OracleAnswer:
    verdict: str  # "Yes" | "No"
    reasoning: str


@dataclass(frozen=True)
class IssueRecord:
    condition: str
    question: InterventionQuestion
    statements: tuple[str, ...]
    oracle_reasoning: str

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "iq_id": self.question.iq_id,
            "statements": list(self.statements),
            "reasoning": self.oracle_reasoning,
        }


@dataclass
class FormalRound:
    statements: tuple[str, ...]
    errors: tuple[FormalError, ...]
    reconstructed: bool

    def to_dict(self) -> dict:
        return {
            "statements": list(self.statements),
            "errors": [e.to_dict() for e in self.errors],
            "reconstructed": self.reconstructed,
        }


@dataclass
class SemanticRound:
    iq_count: int
    issues: tuple[IssueRecord, ...]
    modified: bool

    def to_dict(self) -> dict:
        return {
            "iq_count": self.iq_count,
            "issues": [i.to_dict() for i in self.issues],
            "modified": self.modified,
        }


@dataclass
class HealingLog:
    formal_rounds: list[FormalRound] = field(default_factory=list)
    semantic_rounds: list[SemanticRound] = field(default_factory=list)
    residual_issues: list[IssueRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return len(self.formal_rounds) + len(self.semantic_rounds)

    @property
    def converged(self) -> bool:
        return not self.residual_issues

    def to_dict(self) -> dict:
        return {
            "formal_rounds": [r.to_dict() for r in self.formal_rounds],
            "semantic_rounds": [r.to_dict() for r in self.semantic_rounds],
            "residual_issues": [i.to_dict() for i in self.residual_issues],
            "converged": self.converged,
            "notes": list(self.notes),
        }


def _baseline_assignment(graph: CausalEffectGraph,
                         cap: int = ENUMERATION_CAP) -> Optional[TruthAssignment]:
    """All-true baseline, or the max-true consistent assignment when constraints forbid it."""
    all_true = {c: True for c in graph.conditions()}
    if all(constraint.holds(all_true) for constraint in graph.constraints):
        return all_true
    table = TruthTable.of(graph, cap)
    best = table.first_row(table.consistent, most_true=True)
    if best is None:
        logger.info("constraint set is unsatisfiable; no baseline exists")
    else:
        logger.info("all-true baseline violates constraints; substituted first consistent "
                    "assignment with maximum true count (true: %s)",
                    ", ".join(c for c, v in sorted(best.items()) if v) or "none")
    return best


def _render_question(graph: CausalEffectGraph, condition: str,
                     baseline: TruthAssignment,
                     changed_links: Sequence, changed_constraints: Sequence,
                     after_effects: dict[str, bool]) -> str:
    node_map = graph.node_map
    assumed = [node_map[c].description for c in sorted(baseline)
               if baseline[c] and c != condition]
    header = (
        f"Assume all of: {'; '.join(assumed) if assumed else 'nothing else'}. "
        f"Now suppose {node_map[condition].description} does NOT hold."
    )
    lines = [header]
    for link in changed_links:
        effect_desc = node_map[link.effect].description
        outcome = "occur" if after_effects[link.effect] else "not occur"
        lines.append(
            f"According to the requirement, is it correct that {effect_desc} "
            f"should {outcome}?"
        )
    for constraint in changed_constraints:
        lines.append(f"(Context: the truth of {constraint.statement_text()} changes.)")
    return "\n".join(lines)


def construct_iqs(graph: CausalEffectGraph,
                  cap: int = ENUMERATION_CAP) -> list[InterventionQuestion]:
    """One question group per condition whose do(C=False) flip changes anything."""
    baseline = _baseline_assignment(graph, cap)
    if baseline is None:
        return []
    before = evaluate(graph, baseline).effects
    questions: list[InterventionQuestion] = []
    for condition in graph.conditions():
        if not baseline[condition]:
            continue  # forcing false is a no-op for an already-false baseline value
        intervened = {**baseline, condition: False}
        after = evaluate(graph, intervened).effects
        changed_links = sorted((link for link in graph.links
                                if before[link.effect] != after[link.effect]),
                               key=lambda l: l.effect)
        changed_constraints = sorted((c for c in graph.constraints
                                      if c.holds(baseline) != c.holds(intervened)),
                                     key=lambda c: (c.op.value, c.a, c.b))
        if not changed_links and not changed_constraints:
            continue
        # Only linked effects can change; changed_links is in effect order.
        changes = {link.effect: (before[link.effect], after[link.effect])
                   for link in changed_links}
        affected = tuple(
            [l.statement_text() for l in changed_links]
            + [c.statement_text() for c in changed_constraints]
        )
        questions.append(InterventionQuestion(
            iq_id=f"IQ-{condition}",
            intervened_condition=condition,
            affected_statements=affected,
            baseline=dict(baseline),
            intervened=intervened,
            expected_effect_changes=changes,
            rendered_question=_render_question(
                graph, condition, baseline, changed_links, changed_constraints, after,
            ),
        ))
    return questions


def _parse_verdict(raw: str) -> OracleAnswer:
    data = parse_structured_answer(raw)
    verdict = str(data.get("verdict", "")).strip().capitalize()
    reasoning = str(data.get("reasoning", "")).strip()
    if verdict not in ("Yes", "No"):
        raise OracleFailure(f"malformed answer: verdict must be Yes or No, got {verdict!r}")
    if not reasoning:
        raise OracleFailure("malformed answer: missing reasoning")
    return OracleAnswer(verdict=verdict, reasoning=reasoning)


def semantic_check(requirement: str, iqs: Sequence[InterventionQuestion],
                   oracle: Oracle) -> list[IssueRecord]:
    """Ask the oracle each probe; a No verdict yields an issue record."""
    issues: list[IssueRecord] = []
    for iq in sorted(iqs, key=lambda q: (q.intervened_condition, q.iq_id)):
        answer = _parse_verdict(oracle.complete(OracleRequest(
            agent="ReasoningIQ",
            payload={"requirement": requirement, "question": iq.rendered_question,
                     "iq_id": iq.iq_id},
        )))
        if answer.verdict == "No":
            issues.append(IssueRecord(
                condition=iq.intervened_condition,
                question=iq,
                statements=iq.affected_statements,
                oracle_reasoning=answer.reasoning,
            ))
    return issues


def _atoms_payload(atoms: Sequence[AtomicNode]) -> list[dict]:
    return [{"id": a.id, "kind": a.kind.value, "description": a.description} for a in atoms]


def _statements_from_answer(raw: str) -> list[str]:
    data = parse_structured_answer(raw)
    statements = data.get("statements")
    if not isinstance(statements, list) or not all(isinstance(s, str) for s in statements):
        raise OracleFailure("repair answer must contain a 'statements' list of strings")
    return [s.strip() for s in statements if s.strip()]


def _rebuild(atoms: Sequence[AtomicNode], statements: Sequence[str]) -> CausalEffectGraph:
    try:
        return parse_ceg(compose_source(atoms, statements))
    except DslSyntaxError as exc:
        raise OracleFailure(f"repaired statements are malformed: {exc}") from exc


def heal(requirement: str, atoms: Sequence[AtomicNode], graph: CausalEffectGraph,
         oracle: Oracle, max_iters: int = DEFAULT_MAX_ITERS,
         enumeration_cap: int = ENUMERATION_CAP) -> tuple[CausalEffectGraph, HealingLog]:
    """Run the formal repair loop, then the semantic repair loop.

    The returned graph always passes the formal check; persistent formal
    errors raise FormalLoopExhausted. Persistent semantic issues are not an
    error: they are flagged in the log as residual issues.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    log = HealingLog()
    node_map = {a.id: a for a in atoms}
    statements = list(graph.raw_statements)

    for round_index in range(max_iters):
        errors = check_formal(statements, node_map)
        if not errors:
            log.formal_rounds.append(FormalRound(tuple(statements), (), False))
            break
        if round_index == max_iters - 1:
            log.formal_rounds.append(FormalRound(tuple(statements), tuple(errors), False))
            raise FormalLoopExhausted(
                f"{len(errors)} formal error(s) remain after {max_iters} round(s)"
            )
        log.formal_rounds.append(FormalRound(tuple(statements), tuple(errors), True))
        surviving = [s for s in statements
                     if s not in {e.statement_text for e in errors}]
        answer = oracle.complete(OracleRequest(
            agent="ReconstructCEG",
            payload={
                "requirement": requirement,
                "atoms": _atoms_payload(atoms),
                "statements": surviving,
                "errors": [e.to_dict() for e in errors],
            },
        ))
        statements = _statements_from_answer(answer)
    graph = _rebuild(atoms, statements)

    for round_index in range(max_iters):
        iqs = construct_iqs(graph, cap=enumeration_cap)
        issues = semantic_check(requirement, iqs, oracle)
        if not issues:
            log.semantic_rounds.append(SemanticRound(len(iqs), (), False))
            break
        if round_index == max_iters - 1:
            log.semantic_rounds.append(SemanticRound(len(iqs), tuple(issues), False))
            log.residual_issues = list(issues)
            log.notes.append(
                f"semantic issues persist after {max_iters} round(s); flagged as residual"
            )
            break
        answer = oracle.complete(OracleRequest(
            agent="ModifyCEG",
            payload={
                "requirement": requirement,
                "atoms": _atoms_payload(atoms),
                "statements": list(graph.raw_statements),
                "issues": [issue.to_dict() for issue in issues],
            },
        ))
        statements = _statements_from_answer(answer)
        candidate = _rebuild(atoms, statements)
        formal = check_formal(statements, node_map)
        if formal:
            log.notes.append(
                "modification introduced formal errors; keeping previous graph for next round"
            )
            log.semantic_rounds.append(SemanticRound(len(iqs), tuple(issues), False))
            continue
        graph = candidate
        log.semantic_rounds.append(SemanticRound(len(iqs), tuple(issues), True))
    return graph, log
