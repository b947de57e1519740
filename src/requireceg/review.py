"""Review Gherkin scenarios against a causal-effect graph.

Steps are bound to atomic nodes (inline annotation, then lexical match,
then optional oracle disambiguation). Each scenario induces a truth
assignment (bound-positive true, bound-negative false, everything else
false); the graph is evaluated and mismatches become defects with
template repairs. Causal branches no scenario exercises are synthesized
as new scenarios.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

# perfbench/spans.py traces calls to consistent_assignments through this module's globals.
from .ceg.analysis import (  # noqa: F401
    ENUMERATION_CAP,
    TruthTable,
    consistent_assignments,
    evaluate,
    minimal_satisfying_assignments,
)
from .ceg.model import CausalEffectGraph, CausalLink, ConstraintOp, NodeKind, TruthAssignment
from .errors import OracleFailure
from .gherkin.ast import (
    GherkinDocument,
    Scenario,
    ScenarioKind,
    Step,
    StepKeyword,
    StepKind,
)
from .oracle import Oracle, OracleRequest, parse_structured_answer

logger = logging.getLogger(__name__)

LEXICAL_THRESHOLD = 0.5
NEGATION_CUES = {"not", "no", "never", "cannot", "without"}
STOP_WORDS = NEGATION_CUES | {
    "a", "an", "the", "is", "are", "was", "were", "be", "been", "being",
    "will", "would", "shall", "should", "can", "could", "may", "might",
    "must", "do", "does", "did", "has", "have", "had", "having",
    "i", "you", "he", "she", "it", "we", "they", "them", "my", "your", "their",
    "this", "that", "these", "those", "to", "of", "in", "on", "at", "by",
    "for", "with", "from", "as", "into", "and", "or", "but", "if", "then",
    "than", "there", "here", "when", "while", "after", "before", "yet",
    "stating", "saying",
}

_ANNOTATION_RE = re.compile(r"\[(!?)([CE][A-Za-z0-9_]*)\]\s*$")
_MAX_REVIEW_ROUNDS = 25


class Polarity(str, Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"


class BindingMethod(str, Enum):
    ANNOTATION = "Annotation"
    LEXICAL = "Lexical"
    ORACLE = "Oracle"


@dataclass(frozen=True)
class StepRef:
    container: str  # "background" or "scenario:<index>"
    index: int


@dataclass(frozen=True)
class StepBinding:
    ref: StepRef
    step: Step
    atom_id: str
    polarity: Polarity
    confidence: float
    method: BindingMethod


class DefectKind(str, Enum):
    MISSING_PRECONDITION = "MissingPrecondition"
    MISSING_EFFECT = "MissingEffect"
    WRONG_EFFECT = "WrongEffect"
    CONSTRAINT_VIOLATION = "ConstraintViolation"
    UNCOVERED_LINK = "UncoveredLink"


class PatchKind(str, Enum):
    INSERT_PRECONDITION = "insert-precondition"
    APPEND_ACTION = "append-action"
    REMOVE_STEP = "remove-step"
    REPLACE_STEP = "replace-step"


@dataclass(frozen=True)
class ScenarioPatch:
    kind: PatchKind
    text: str = ""
    step_index: int = -1


@dataclass(frozen=True)
class Defect:
    kind: DefectKind
    detail: str
    evidence: tuple[str, ...]
    patch: Optional[ScenarioPatch] = None

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "detail": self.detail,
                "evidence": list(self.evidence)}


class VerdictStatus(str, Enum):
    CONSISTENT = "Consistent"
    MISMATCH = "Mismatch"
    UNBINDABLE = "Unbindable"


@dataclass(frozen=True)
class ScenarioVerdict:
    scenario: Scenario
    status: VerdictStatus
    defects: tuple[Defect, ...]
    evidence: tuple[str, ...]
    assignment: TruthAssignment = field(default_factory=dict)
    unbound_steps: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Step binding


def _tokens(text: str) -> list[str]:
    return re.sub(r"[^a-z0-9\s]", " ", text.lower()).split()


def _content_tokens(text: str) -> set[str]:
    return {t for t in _tokens(text) if t not in STOP_WORDS}


def _has_cue(text: str) -> bool:
    return any(t in NEGATION_CUES for t in _tokens(text))


def _jaccard(a: set[str], b: set[str]) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def _wanted_kind(step: Step) -> NodeKind:
    if step.resolved_kind is StepKind.ACTION:
        return NodeKind.EFFECT
    return NodeKind.CONDITION


def _bind_step(step: Step, ref: StepRef, graph: CausalEffectGraph,
               oracle: Optional[Oracle]) -> Optional[StepBinding]:
    node_map = graph.node_map
    wanted = _wanted_kind(step)
    annotation = _ANNOTATION_RE.search(step.text)
    if annotation:
        negated, atom_id = annotation.group(1) == "!", annotation.group(2)
        node = node_map.get(atom_id)
        if node is None or node.kind is not wanted:
            logger.warning("annotation [%s] on step %r does not name a declared %s",
                           atom_id, step.text, wanted.value)
            return None
        return StepBinding(ref, step, atom_id,
                           Polarity.NEGATIVE if negated else Polarity.POSITIVE,
                           1.0, BindingMethod.ANNOTATION)
    text = _ANNOTATION_RE.sub("", step.text)
    step_tokens = _content_tokens(text)
    step_cue = _has_cue(text)
    best: Optional[tuple[float, str]] = None
    for node in graph.nodes:
        if node.kind is not wanted:
            continue
        score = _jaccard(step_tokens, _content_tokens(node.description))
        if score >= LEXICAL_THRESHOLD and (best is None or score > best[0]
                                           or (score == best[0] and node.id < best[1])):
            best = (score, node.id)
    if best is not None:
        score, atom_id = best
        node = node_map[atom_id]
        negative = step_cue != _has_cue(node.description)
        return StepBinding(ref, step, atom_id,
                           Polarity.NEGATIVE if negative else Polarity.POSITIVE,
                           score, BindingMethod.LEXICAL)
    if oracle is not None:
        candidates = [{"id": n.id, "description": n.description}
                      for n in graph.nodes if n.kind is wanted]
        try:
            data = parse_structured_answer(oracle.complete(OracleRequest(
                agent="BindStep",
                payload={"step": step.text, "kind": step.resolved_kind.value,
                         "candidates": candidates},
            )))
        except OracleFailure:
            return None
        atom_id = str(data.get("atom", "none"))
        if atom_id in node_map and node_map[atom_id].kind is wanted:
            polarity = (Polarity.NEGATIVE
                        if str(data.get("polarity", "positive")).lower() == "negative"
                        else Polarity.POSITIVE)
            return StepBinding(ref, step, atom_id, polarity, 0.9, BindingMethod.ORACLE)
    return None


def bind_steps(doc: GherkinDocument, graph: CausalEffectGraph,
               oracle: Optional[Oracle] = None) -> list[StepBinding]:
    """Bind every step in the document to at most one atomic node."""
    bindings: list[StepBinding] = []
    for index, step in enumerate(doc.background):
        binding = _bind_step(step, StepRef("background", index), graph, oracle)
        if binding is not None:
            bindings.append(binding)
    for s_index, scenario in enumerate(doc.scenarios):
        for index, step in enumerate(scenario.steps):
            binding = _bind_step(step, StepRef(f"scenario:{s_index}", index), graph, oracle)
            if binding is not None:
                bindings.append(binding)
    return bindings


# ---------------------------------------------------------------------------
# Scenario checking


def _negation_text(description: str) -> str:
    return f"{description} does not apply"


def _constraint_patch(constraint, assignment: TruthAssignment,
                      bound_steps: dict[str, int], node_map) -> Optional[ScenarioPatch]:
    """Template repair for one violated constraint, editing scenario steps only."""
    a, b = constraint.a, constraint.b
    op = constraint.op
    if op in (ConstraintOp.EXC, ConstraintOp.XOR) and assignment[a] and assignment[b]:
        for cid in (max(a, b), min(a, b)):
            if cid in bound_steps:
                return ScenarioPatch(PatchKind.REPLACE_STEP,
                                     _negation_text(node_map[cid].description),
                                     bound_steps[cid])
        return None
    if op in (ConstraintOp.INC, ConstraintOp.XOR) and not assignment[a] and not assignment[b]:
        target = min(a, b)
        return ScenarioPatch(PatchKind.INSERT_PRECONDITION, node_map[target].description)
    if op is ConstraintOp.REQ and assignment[a] and not assignment[b]:
        if b in bound_steps:
            return ScenarioPatch(PatchKind.REPLACE_STEP, node_map[b].description,
                                 bound_steps[b])
        return ScenarioPatch(PatchKind.INSERT_PRECONDITION, node_map[b].description)
    return None


def check_scenario(scenario: Scenario, bindings: Sequence[StepBinding],
                   graph: CausalEffectGraph,
                   background_bindings: Sequence[StepBinding] = ()) -> ScenarioVerdict:
    """Check one scenario's causal consistency against the graph."""
    node_map = graph.node_map
    bound_indices = {b.ref.index for b in bindings}
    unbound = tuple(step.text for i, step in enumerate(scenario.steps)
                    if i not in bound_indices)
    if unbound:
        return ScenarioVerdict(scenario, VerdictStatus.UNBINDABLE, (), (),
                               unbound_steps=unbound)
    assignment: TruthAssignment = {c: False for c in graph.conditions()}
    explicit: set[str] = set()
    bound_steps: dict[str, int] = {}
    for binding in list(background_bindings) + list(bindings):
        if node_map[binding.atom_id].kind is not NodeKind.CONDITION:
            continue
        assignment[binding.atom_id] = binding.polarity is Polarity.POSITIVE
        explicit.add(binding.atom_id)
        if binding.ref.container != "background":
            bound_steps[binding.atom_id] = binding.ref.index
    result = evaluate(graph, assignment)
    defects: list[Defect] = []

    for constraint in result.violated_constraints:
        defects.append(Defect(
            DefectKind.CONSTRAINT_VIOLATION,
            f"assignment violates {constraint.statement_text()}",
            (constraint.statement_text(),),
            _constraint_patch(constraint, assignment, bound_steps, node_map),
        ))
    for masked in result.masked_effects:
        defects.append(Defect(
            DefectKind.CONSTRAINT_VIOLATION,
            f"effect {masked} fires while masked",
            tuple(r.statement_text() for r in graph.restrictions if r.b == masked),
        ))

    then_expect: dict[str, tuple[bool, int]] = {
        binding.atom_id: (binding.polarity is Polarity.POSITIVE, binding.ref.index)
        for binding in bindings if binding.step.resolved_kind is StepKind.ACTION}

    missing_preconditions: dict[str, list[str]] = {}
    for effect, (expected, step_index) in sorted(then_expect.items()):
        actual = result.effects.get(effect, False)
        if expected == actual:
            continue
        link = graph.link_for(effect)
        needed = _completion_conditions(link, assignment, explicit, graph) if expected else None
        if needed is not None:
            for cid in needed:
                missing_preconditions.setdefault(cid, []).append(link.statement_text())
            continue
        defects.append(Defect(
            DefectKind.WRONG_EFFECT,
            f"scenario asserts {effect} but its cause cannot hold here" if expected
            else f"scenario asserts {effect} does not occur, but its cause holds",
            (link.statement_text(),) if link else (f"{effect} has no causal statement",),
            ScenarioPatch(PatchKind.REMOVE_STEP, step_index=step_index),
        ))
    for cid, evidence in sorted(missing_preconditions.items()):
        defects.append(Defect(
            DefectKind.MISSING_PRECONDITION,
            f"scenario omits precondition {cid} ({node_map[cid].description})",
            tuple(dict.fromkeys(evidence)),
            ScenarioPatch(PatchKind.INSERT_PRECONDITION, node_map[cid].description),
        ))
    for effect in sorted(result.effects):
        if result.effects[effect] and effect not in then_expect:
            link = graph.link_for(effect)
            defects.append(Defect(
                DefectKind.MISSING_EFFECT,
                f"cause of {effect} holds but the scenario omits it "
                f"({node_map[effect].description})",
                (link.statement_text(),) if link else (effect,),
                ScenarioPatch(PatchKind.APPEND_ACTION, node_map[effect].description),
            ))

    status = VerdictStatus.CONSISTENT if not defects else VerdictStatus.MISMATCH
    evidence = tuple(dict.fromkeys(e for d in defects for e in d.evidence))
    return ScenarioVerdict(scenario, status, tuple(defects), evidence,
                           assignment=assignment)


def _completion_conditions(link: Optional[CausalLink], assignment: TruthAssignment,
                           explicit: set[str],
                           graph: CausalEffectGraph) -> Optional[list[str]]:
    """Unmentioned conditions that, set true, fire the link without breaking anything.

    Returns None when no constraint-consistent completion respects the
    explicitly bound values.
    """
    if link is None:
        return None
    best: Optional[list[str]] = None
    for msa in minimal_satisfying_assignments(link.cause):
        if any(var in explicit and assignment[var] != value
               for var, value in msa.items()):
            continue
        completed = dict(assignment)
        for var, value in msa.items():
            if var not in explicit:
                completed[var] = value
        if not all(c.holds(completed) for c in graph.constraints):
            continue
        needed = sorted(v for v, value in msa.items()
                        if value and not assignment[v] and v not in explicit)
        if not needed:
            continue
        if best is None or (len(needed), needed) < (len(best), best):
            best = needed
    return best


# ---------------------------------------------------------------------------
# Synthesis of uncovered branches


def branch_key(link: CausalLink, msa: dict[str, bool]) -> tuple[str, frozenset]:
    return (link.statement_text(), frozenset(msa.items()))


def covered_branches(graph: CausalEffectGraph,
                     assignments: Sequence[TruthAssignment]) -> set[tuple[str, frozenset]]:
    """Branch keys exercised by any of the given (consistent) assignments."""
    return {branch_key(link, msa) for link in graph.links
            for msa in minimal_satisfying_assignments(link.cause)
            if any(msa.items() <= assignment.items() for assignment in assignments)}


def _choose_assignment(table: TruthTable, msa: dict[str, bool]) -> Optional[TruthAssignment]:
    """The first consistent, mask-free row agreeing with msa, with the fewest true conditions."""
    return table.first_row(table.consistent & table.unmasked & table.cube(msa), most_true=False)


def _synth_steps(graph: CausalEffectGraph, assignment: TruthAssignment,
                 msa: dict[str, bool], target_effect: str) -> list[Step]:
    node_map = graph.node_map
    trues = sorted(c for c, v in assignment.items() if v)
    support_false = sorted(c for c, v in msa.items() if not v)
    steps: list[Step] = []
    if trues:
        trigger, givens = trues[-1], trues[:-1]
        when_text = f"{node_map[trigger].description} occurs"
    else:
        trigger, support_false = support_false[-1], support_false[:-1]
        givens = []
        when_text = _negation_text(node_map[trigger].description)
    for text in ([node_map[cid].description for cid in givens]
                 + [_negation_text(node_map[cid].description) for cid in support_false]):
        keyword = StepKeyword.GIVEN if not steps else StepKeyword.AND
        steps.append(Step(keyword, StepKind.PRECONDITION, text))
    steps.append(Step(StepKeyword.WHEN, StepKind.TRIGGER, when_text))
    fired = evaluate(graph, assignment).effects
    then_effects = [target_effect] + sorted(e for e, v in fired.items()
                                            if v and e != target_effect)
    for i, effect in enumerate(then_effects):
        keyword = StepKeyword.THEN if i == 0 else StepKeyword.AND
        steps.append(Step(keyword, StepKind.ACTION, node_map[effect].description))
    return steps


def synthesize_missing(graph: CausalEffectGraph,
                       covered: set[tuple[str, frozenset]],
                       cap: int = ENUMERATION_CAP) -> list[Scenario]:
    """One new scenario per uncovered, satisfiable branch of every link."""
    branches = [(link, msa) for link in sorted(graph.links, key=lambda l: l.effect)
                for msa in minimal_satisfying_assignments(link.cause)
                if branch_key(link, msa) not in covered]
    if not branches:
        return []
    table = TruthTable.of(graph, cap)
    node_map = graph.node_map
    scenarios: list[Scenario] = []
    titles: set[str] = set()
    for link, msa in branches:
        assignment = _choose_assignment(table, msa)
        if assignment is None:
            logger.info("branch %s of %s is unsatisfiable under constraints and "
                        "restrictions; skipped", dict(msa), link.statement_text())
            continue
        description = node_map[link.effect].description
        title = stem = description[0].upper() + description[1:]
        serial = 2
        while title in titles:
            title, serial = f"{stem} (case {serial})", serial + 1
        titles.add(title)
        scenarios.append(Scenario(
            title=title,
            kind=ScenarioKind.PLAIN,
            steps=tuple(_synth_steps(graph, assignment, msa, link.effect)),
        ))
    return scenarios


# ---------------------------------------------------------------------------
# Document-level review


@dataclass
class ModifiedScenario:
    original: Scenario
    revised: Scenario
    defects: tuple[Defect, ...]


@dataclass
class ReviewReport:
    kept: list[Scenario] = field(default_factory=list)
    modified: list[ModifiedScenario] = field(default_factory=list)
    added: list[Scenario] = field(default_factory=list)
    coverage: float = 1.0
    unbindable: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kept": [s.title for s in self.kept],
            "modified": [
                {
                    "original_title": m.original.title,
                    "title": m.revised.title,
                    "defects": [d.to_dict() for d in m.defects],
                }
                for m in self.modified
            ],
            "added": [s.title for s in self.added],
            "coverage": self.coverage,
            "unbindable": list(self.unbindable),
            "notes": list(self.notes),
        }

    def summary(self) -> dict:
        return {"kept": len(self.kept), "modified": len(self.modified),
                "added": len(self.added)}

    @staticmethod
    def merge(reports: Sequence["ReviewReport"]) -> "ReviewReport":
        merged = ReviewReport(coverage=1.0)
        coverages = []
        for report in reports:
            merged.kept.extend(report.kept)
            merged.modified.extend(report.modified)
            merged.added.extend(report.added)
            merged.unbindable.extend(report.unbindable)
            merged.notes.extend(report.notes)
            coverages.append(report.coverage)
        if coverages:
            merged.coverage = sum(coverages) / len(coverages)
        return merged


def _expand_outlines(doc: GherkinDocument) -> tuple[list[Scenario], dict[int, tuple[int, Scenario]]]:
    """Expand outline rows into plain scenarios; remember their origins."""
    expanded: list[Scenario] = []
    origin: dict[int, tuple[int, Scenario]] = {}
    for s_index, scenario in enumerate(doc.scenarios):
        if scenario.kind is not ScenarioKind.OUTLINE or scenario.examples is None:
            origin[len(expanded)] = (s_index, scenario)
            expanded.append(scenario)
            continue
        headers = scenario.examples.headers
        for r_index, row in enumerate(scenario.examples.rows, start=1):
            values = dict(zip(headers, row))
            steps = []
            for step in scenario.steps:
                text = step.text
                for header, value in values.items():
                    text = text.replace(f"<{header}>", value)
                steps.append(replace(step, text=text))
            expanded.append(Scenario(
                title=f"{scenario.title} (example {r_index})",
                kind=ScenarioKind.PLAIN,
                steps=tuple(steps),
                tags=scenario.tags,
            ))
            origin[len(expanded) - 1] = (s_index, scenario)
    return expanded, origin


def _normalize_keywords(steps: list[Step]) -> list[Step]:
    """Restore valid And/But chaining after edits."""
    normalized: list[Step] = []
    last_kind: Optional[StepKind] = None
    primary = {StepKind.PRECONDITION: StepKeyword.GIVEN,
               StepKind.TRIGGER: StepKeyword.WHEN,
               StepKind.ACTION: StepKeyword.THEN}
    for step in steps:
        keyword = step.keyword
        if keyword in (StepKeyword.AND, StepKeyword.BUT):
            if last_kind is not step.resolved_kind:
                keyword = primary[step.resolved_kind]
        elif last_kind is step.resolved_kind and keyword == primary[step.resolved_kind]:
            keyword = StepKeyword.AND
        if keyword is not step.keyword:
            step = replace(step, keyword=keyword)
        normalized.append(step)
        last_kind = step.resolved_kind
    return normalized


def _reword(oracle: Optional[Oracle], proposed: str, instruction: str, title: str) -> str:
    if oracle is None:
        return proposed
    data = parse_structured_answer(oracle.complete(OracleRequest(
        agent="Review",
        payload={"proposed_text": proposed, "instruction": instruction,
                 "scenario_title": title},
    )))
    text = str(data.get("text", "")).strip()
    return text or proposed


def _apply_patches(scenario: Scenario, defects: Sequence[Defect],
                   oracle: Optional[Oracle]) -> Optional[Scenario]:
    """Apply every patchable defect once; None when nothing is applicable."""
    removes: list[int] = []
    replaces: dict[int, str] = {}
    inserts: list[str] = []
    appends: list[str] = []
    for defect in defects:
        patch = defect.patch
        if patch is None:
            continue
        if patch.kind is PatchKind.REMOVE_STEP:
            removes.append(patch.step_index)
        elif patch.kind is PatchKind.REPLACE_STEP:
            replaces[patch.step_index] = patch.text
        elif patch.kind is PatchKind.INSERT_PRECONDITION:
            if patch.text not in inserts:
                inserts.append(patch.text)
        elif patch.kind is PatchKind.APPEND_ACTION:
            if patch.text not in appends:
                appends.append(patch.text)
    if not (removes or replaces or inserts or appends):
        return None
    steps = list(scenario.steps)
    for index, text in sorted(replaces.items()):
        text = _reword(oracle, text, "replace this step to match the causal model",
                       scenario.title)
        steps[index] = replace(steps[index], text=text)
    for index in sorted(set(removes), reverse=True):
        del steps[index]
    for text in sorted(inserts):
        text = _reword(oracle, text, "insert this missing precondition", scenario.title)
        position = 0
        for i, step in enumerate(steps):
            if step.resolved_kind is StepKind.PRECONDITION:
                position = i + 1
        steps.insert(position, Step(StepKeyword.GIVEN, StepKind.PRECONDITION, text))
    for text in sorted(appends):
        text = _reword(oracle, text, "append this missing outcome", scenario.title)
        steps.append(Step(StepKeyword.THEN, StepKind.ACTION, text))
    return replace(scenario, steps=tuple(_normalize_keywords(steps)))


def review(doc: GherkinDocument, graph: CausalEffectGraph,
           oracle: Optional[Oracle] = None,
           enumeration_cap: int = ENUMERATION_CAP) -> tuple[GherkinDocument, ReviewReport]:
    """Repair mismatched scenarios, synthesize uncovered branches, report the result."""
    report = ReviewReport()
    expanded, origin = _expand_outlines(doc)
    working = list(expanded)
    defect_history: dict[int, list[Defect]] = {i: [] for i in range(len(working))}
    edited: set[int] = set()

    background_bindings = bind_steps(replace(doc, scenarios=()), graph, oracle)
    bg_bound = {b.ref.index for b in background_bindings}
    for index, step in enumerate(doc.background):
        if index not in bg_bound:
            report.notes.append(f"background step not bound to any node: {step.text}")

    def check(scenario: Scenario) -> ScenarioVerdict:
        bindings = [b for b in bind_steps(replace(doc, scenarios=(scenario,)), graph, oracle)
                    if b.ref.container == "scenario:0"]
        return check_scenario(scenario, bindings, graph, background_bindings=background_bindings)

    verdicts: dict[int, ScenarioVerdict] = {}
    for _ in range(_MAX_REVIEW_ROUNDS):
        changed = False
        for index, scenario in enumerate(working):
            verdict = verdicts[index] = check(scenario)
            if verdict.status is not VerdictStatus.MISMATCH:
                continue
            defect_history[index].extend(verdict.defects)
            revised = _apply_patches(scenario, verdict.defects, oracle)
            if revised is not None:
                working[index] = revised
                edited.add(index)
                changed = True
        if not changed:
            break
    else:
        report.notes.append("review round cap reached; remaining mismatches left flagged")

    for index, verdict in sorted(verdicts.items()):
        if verdict.status is VerdictStatus.UNBINDABLE:
            report.unbindable.append({
                "title": working[index].title,
                "unbound_steps": list(verdict.unbound_steps),
            })
        elif verdict.status is VerdictStatus.MISMATCH:
            report.notes.append(
                f"scenario '{working[index].title}' still mismatched: "
                + "; ".join(d.detail for d in verdict.defects)
            )

    consistent_assignments_seen = [
        verdicts[i].assignment for i in sorted(verdicts)
        if verdicts[i].status is VerdictStatus.CONSISTENT
    ]
    covered = covered_branches(graph, consistent_assignments_seen)
    synthesized = synthesize_missing(graph, covered, enumeration_cap)
    accepted: list[Scenario] = []
    for scenario in synthesized:
        verdict = check(scenario)
        if verdict.status is VerdictStatus.CONSISTENT:
            accepted.append(scenario)
            consistent_assignments_seen.append(verdict.assignment)
        else:
            report.notes.append(
                f"synthesized scenario '{scenario.title}' did not re-check as "
                f"consistent ({verdict.status.value}); dropped"
            )

    # Fold untouched outline expansions back into their original outline.
    final_scenarios: list[Scenario] = []
    emitted_outlines: set[int] = set()
    for index, scenario in enumerate(working):
        source = origin.get(index)
        if source is not None and source[1].kind is ScenarioKind.OUTLINE:
            s_index, outline = source
            family = [i for i, o in origin.items() if o[0] == s_index]
            if not any(i in edited for i in family):
                if s_index not in emitted_outlines:
                    emitted_outlines.add(s_index)
                    final_scenarios.append(outline)
                continue
        final_scenarios.append(scenario)
    final_scenarios.extend(accepted)

    for index, scenario in enumerate(working):
        source = origin.get(index)
        original = source[1] if source is not None else expanded[index]
        if index in edited:
            report.modified.append(ModifiedScenario(
                original=original,
                revised=scenario,
                defects=tuple(defect_history[index]),
            ))
        elif source is not None and source[1].kind is ScenarioKind.OUTLINE:
            if not any(report_entry.original is source[1] for report_entry in report.modified) \
                    and source[1] not in report.kept:
                report.kept.append(source[1])
        else:
            report.kept.append(scenario)
    report.added = accepted

    if graph.links:
        covered_links = {key[0] for key in covered_branches(
            graph, consistent_assignments_seen)}
        report.coverage = len(covered_links) / len(graph.links)

    revised_doc = replace(doc, scenarios=tuple(final_scenarios))
    return revised_doc, report
