"""Unit tests for step binding, scenario checking, synthesis, and review."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from helpers import random_graph
from requireceg.ceg.dsl import parse_ceg
from requireceg.gherkin.ast import ScenarioKind, parse_feature, serialize
from requireceg.gherkin.lint import lint
from requireceg.review import (
    BindingMethod,
    DefectKind,
    Polarity,
    VerdictStatus,
    bind_steps,
    branch_key,
    check_scenario,
    covered_branches,
    review,
    synthesize_missing,
)


@pytest.fixture
def ftgo_graph(ftgo_ceg):
    return parse_ceg(ftgo_ceg)


@pytest.fixture
def ftgo_doc(ftgo_draft):
    return parse_feature(ftgo_draft)


def scenario_bindings(doc, graph, index=0):
    return [b for b in bind_steps(doc, graph)
            if b.ref.container == f"scenario:{index}"]


class TestBindSteps:
    def test_annotation_binding(self, ftgo_graph):
        doc = parse_feature(
            "Feature: F\nScenario: S\nGiven the order has not yet been processed [C2]\n"
            "When the consumer requests to cancel the order\nThen the order status is updated to canceled")
        binding = scenario_bindings(doc, ftgo_graph)[0]
        assert binding.atom_id == "C2"
        assert binding.polarity is Polarity.POSITIVE
        assert binding.method is BindingMethod.ANNOTATION
        assert binding.confidence == 1.0

    def test_negated_annotation(self, ftgo_graph):
        doc = parse_feature("Feature: F\nScenario: S\nGiven anything at all [!C2]\n"
                            "When the consumer requests to cancel the order")
        binding = scenario_bindings(doc, ftgo_graph)[0]
        assert binding.atom_id == "C2"
        assert binding.polarity is Polarity.NEGATIVE

    def test_lexical_binding_of_notification_step(self, ftgo_graph):
        doc = parse_feature(
            "Feature: F\nScenario: S\nGiven the order status is processed\n"
            "Then the consumer will be notified with a message stating, "
            "'Your order cannot be canceled at this stage'")
        bindings = scenario_bindings(doc, ftgo_graph)
        then_binding = [b for b in bindings if b.ref.index == 1][0]
        assert then_binding.atom_id == "E3"
        assert then_binding.method is BindingMethod.LEXICAL
        assert then_binding.polarity is Polarity.POSITIVE

    def test_unmatched_step_stays_unbound(self, ftgo_graph):
        doc = parse_feature("Feature: F\nScenario: S\nGiven the moon is full\n"
                            "When the consumer requests to cancel the order")
        bindings = scenario_bindings(doc, ftgo_graph)
        assert [b.ref.index for b in bindings] == [1]

    def test_negation_cue_flips_polarity(self, ftgo_graph):
        doc = parse_feature("Feature: F\nScenario: S\n"
                            "Given the order status is not processed\n"
                            "When the consumer requests to cancel the order")
        binding = scenario_bindings(doc, ftgo_graph)[0]
        assert binding.atom_id == "C3"
        assert binding.polarity is Polarity.NEGATIVE

    def test_double_negation_binds_positive(self, ftgo_graph):
        # both step and description carry a cue: the step asserts the atom
        doc = parse_feature("Feature: F\nScenario: S\n"
                            "Given the order has not yet been processed\n"
                            "When the consumer requests to cancel the order")
        binding = scenario_bindings(doc, ftgo_graph)[0]
        assert binding.atom_id == "C2"
        assert binding.polarity is Polarity.POSITIVE

    def test_then_steps_only_bind_effects(self, ftgo_graph):
        doc = parse_feature("Feature: F\nScenario: S\nGiven the order has been placed\n"
                            "Then the order status is processed [C3]")
        bindings = scenario_bindings(doc, ftgo_graph)
        assert [b.ref.index for b in bindings] == [0]

    def test_oracle_disambiguation(self, ftgo_graph):
        from conftest import make_oracle
        oracle = make_oracle({"BindStep": {"default": {"answer": {
            "atom": "C1", "polarity": "positive"}}}})
        doc = parse_feature("Feature: F\nScenario: S\nGiven something entirely new\n"
                            "When the consumer requests to cancel the order")
        bindings = [b for b in bind_steps(doc, ftgo_graph, oracle)
                    if b.ref.container == "scenario:0"]
        assert bindings[0].atom_id == "C1"
        assert bindings[0].method is BindingMethod.ORACLE


class TestCheckScenario:
    def test_missing_precondition(self, ftgo_doc, ftgo_graph):
        scenario = ftgo_doc.scenarios[0]
        verdict = check_scenario(scenario, scenario_bindings(ftgo_doc, ftgo_graph, 0),
                                 ftgo_graph)
        assert verdict.status is VerdictStatus.MISMATCH
        kinds = {d.kind for d in verdict.defects}
        assert kinds == {DefectKind.MISSING_PRECONDITION}
        assert "C2" in verdict.defects[0].detail
        assert verdict.defects[0].evidence

    def test_missing_effect(self, ftgo_doc, ftgo_graph):
        scenario = ftgo_doc.scenarios[1]
        verdict = check_scenario(scenario, scenario_bindings(ftgo_doc, ftgo_graph, 1),
                                 ftgo_graph)
        assert verdict.status is VerdictStatus.MISMATCH
        assert {d.kind for d in verdict.defects} == {DefectKind.MISSING_EFFECT}
        assert "E3" in verdict.defects[0].detail

    def test_consistent_scenario(self, ftgo_graph):
        doc = parse_feature(
            "Feature: F\nScenario: S\nGiven the order has been placed\n"
            "And the order has not yet been processed\n"
            "When the consumer requests to cancel the order\n"
            "Then the order status is updated to canceled\n"
            "And the consumer receives a cancellation confirmation message")
        verdict = check_scenario(doc.scenarios[0], scenario_bindings(doc, ftgo_graph),
                                 ftgo_graph)
        assert verdict.status is VerdictStatus.CONSISTENT
        assert verdict.defects == ()

    def test_unbindable_scenario(self, ftgo_graph):
        doc = parse_feature("Feature: F\nScenario: S\nGiven the moon is full\n"
                            "When the tide turns")
        verdict = check_scenario(doc.scenarios[0], scenario_bindings(doc, ftgo_graph),
                                 ftgo_graph)
        assert verdict.status is VerdictStatus.UNBINDABLE
        assert len(verdict.unbound_steps) == 2

    def test_wrong_effect_when_cause_cannot_hold(self, ftgo_graph):
        doc = parse_feature(
            "Feature: F\nScenario: S\nGiven nothing special [!C2]\n"
            "When the consumer requests to cancel the order\n"
            "Then the order status is updated to canceled")
        verdict = check_scenario(doc.scenarios[0], scenario_bindings(doc, ftgo_graph),
                                 ftgo_graph)
        assert {d.kind for d in verdict.defects} == {DefectKind.WRONG_EFFECT}

    def test_constraint_violation(self):
        graph = parse_ceg("C1: the lamp is on\nC2: the lamp is off\nE1: light shines\n"
                          "DIR(C1)=E1\nEXC(C1,C2)")
        doc = parse_feature("Feature: F\nScenario: S\nGiven the lamp is on\n"
                            "And the lamp is off\nWhen the lamp is on [C1]\n"
                            "Then light shines")
        bindings = scenario_bindings(doc, graph)
        verdict = check_scenario(doc.scenarios[0], bindings, graph)
        assert DefectKind.CONSTRAINT_VIOLATION in {d.kind for d in verdict.defects}

    def test_background_contributes_to_assignment(self, ftgo_graph):
        doc = parse_feature(
            "Feature: F\nBackground:\nGiven the order has been placed\n"
            "And the order has not yet been processed\n"
            "Scenario: S\nWhen the consumer requests to cancel the order\n"
            "Then the order status is updated to canceled\n"
            "And the consumer receives a cancellation confirmation message")
        background = [b for b in bind_steps(doc, ftgo_graph)
                      if b.ref.container == "background"]
        verdict = check_scenario(doc.scenarios[0], scenario_bindings(doc, ftgo_graph),
                                 ftgo_graph, background_bindings=background)
        assert verdict.status is VerdictStatus.CONSISTENT


class TestSynthesize:
    def test_uncovered_dir_link(self):
        graph = parse_ceg("C4: the restaurant closed\nE3: a notice is shown\nDIR(C4)=E3")
        scenarios = synthesize_missing(graph, covered=set())
        assert len(scenarios) == 1
        steps = scenarios[0].steps
        assert steps[0].text.startswith("the restaurant closed")
        assert steps[-1].text == "a notice is shown"

    def test_or_branch_partial_coverage(self):
        graph = parse_ceg("C3: path a\nC4: path b\nE3: outcome\nOR(C3,C4)=E3")
        link = graph.links[0]
        covered = {branch_key(link, {"C3": True})}
        scenarios = synthesize_missing(graph, covered)
        assert len(scenarios) == 1
        assert any("path b" in s.text for s in scenarios[0].steps)

    def test_all_covered(self):
        graph = parse_ceg("C1: a\nE1: b\nDIR(C1)=E1")
        covered = covered_branches(graph, [{"C1": True}])
        assert synthesize_missing(graph, covered) == []

    def test_unsatisfiable_branch_skipped(self):
        graph = parse_ceg("C1: a\nC2: b\nE1: e\nAND(C1,C2)=E1\nEXC(C1,C2)")
        assert synthesize_missing(graph, set()) == []

    def test_synthesized_scenarios_recheck_consistent(self, ftgo_graph):
        scenarios = synthesize_missing(ftgo_graph, set())
        for scenario in scenarios:
            doc = parse_feature("Feature: probe\nScenario: x\nGiven y [C0]")
            from dataclasses import replace
            probe = replace(doc, scenarios=(scenario,))
            bindings = [b for b in bind_steps(probe, ftgo_graph)
                        if b.ref.container == "scenario:0"]
            verdict = check_scenario(scenario, bindings, ftgo_graph)
            assert verdict.status is VerdictStatus.CONSISTENT, scenario.title


    def test_synthesized_scenarios_never_fire_masked_effects(self):
        rng = random.Random(7)
        probe = parse_feature("Feature: probe\nScenario: x\nGiven y")
        for _ in range(300):
            graph = random_graph(rng, max_conditions=6, max_effects=8, max_statements=12)
            for scenario in synthesize_missing(graph, set()):
                doc = replace(probe, scenarios=(scenario,))
                verdict = check_scenario(scenario, scenario_bindings(doc, graph), graph)
                masked = [d.detail for d in verdict.defects if "fires while masked" in d.detail]
                assert masked == [], scenario.title


class TestReview:
    def test_ftgo_review(self, ftgo_doc, ftgo_graph):
        revised, report = review(ftgo_doc, ftgo_graph)
        assert len(report.modified) == 2
        assert len(report.added) == 1
        assert report.kept == []
        assert report.coverage == 1.0
        kinds = {d.kind for m in report.modified for d in m.defects}
        assert DefectKind.MISSING_PRECONDITION in kinds
        assert DefectKind.MISSING_EFFECT in kinds
        assert lint(serialize(revised)) == []

    def test_conservation(self, ftgo_doc, ftgo_graph):
        revised, report = review(ftgo_doc, ftgo_graph)
        originals = {m.original.title for m in report.modified} | \
            {s.title for s in report.kept}
        assert originals == {s.title for s in ftgo_doc.scenarios}
        revised_titles = [s.title for s in revised.scenarios]
        for scenario in ftgo_doc.scenarios:
            assert scenario.title in revised_titles

    def test_idempotence(self, ftgo_doc, ftgo_graph):
        revised, _ = review(ftgo_doc, ftgo_graph)
        again, report = review(revised, ftgo_graph)
        assert report.modified == []
        assert report.added == []
        assert again == revised

    def test_consistent_document_kept(self, ftgo_graph):
        doc = parse_feature(
            "Feature: F\nScenario: S\nGiven the order has not yet been processed\n"
            "When the consumer requests to cancel the order\n"
            "Then the order status is updated to canceled\n"
            "And the consumer receives a cancellation confirmation message\n"
            "Scenario: T\nGiven the order status is processed\n"
            "When the consumer requests to cancel the order\n"
            "Then the consumer is notified that the order cannot be canceled at this stage\n"
            "Scenario: U\nWhen the restaurant is no longer accepting cancellations\n"
            "Then the consumer is notified that the order cannot be canceled at this stage")
        revised, report = review(doc, ftgo_graph)
        assert report.modified == []
        assert report.added == []
        assert len(report.kept) == 3

    def test_unbindable_scenario_kept_and_flagged(self, ftgo_graph):
        doc = parse_feature(
            "Feature: F\nScenario: Strange\nGiven the moon is full\nWhen the tide turns\n"
            "Scenario: T\nGiven the order status is processed\n"
            "When the consumer requests to cancel the order\n"
            "Then the consumer is notified that the order cannot be canceled at this stage")
        revised, report = review(doc, ftgo_graph)
        assert len(report.unbindable) == 1
        assert report.unbindable[0]["title"] == "Strange"
        assert "Strange" in [s.title for s in revised.scenarios]
        assert "Strange" in [s.title for s in report.kept]

    def test_untouched_outline_is_preserved(self):
        graph = parse_ceg("C1: the total is small\nE1: standard shipping applies\nDIR(C1)=E1")
        doc = parse_feature(
            "Feature: F\nScenario Outline: Ship <kind>\n"
            "Given the total is small\nWhen the total is small [C1]\n"
            "Then standard shipping applies\n"
            "Examples:\n| kind |\n| a |\n| b |\n")
        revised, report = review(doc, graph)
        assert revised.scenarios[0].kind is ScenarioKind.OUTLINE
        assert report.modified == []

    def test_edited_outline_expands_to_plain_scenarios(self):
        graph = parse_ceg("C1: the total is small\nE1: standard shipping applies\nDIR(C1)=E1")
        doc = parse_feature(
            "Feature: F\nScenario Outline: Ship <kind>\n"
            "When the total is small\n"
            "Examples:\n| kind |\n| a |\n| b |\n")
        revised, report = review(doc, graph)
        assert [s.kind for s in revised.scenarios] == [ScenarioKind.PLAIN] * 2
        assert {s.title for s in revised.scenarios} == {
            "Ship <kind> (example 1)", "Ship <kind> (example 2)"}
        for scenario in revised.scenarios:
            assert scenario.steps[-1].text == "standard shipping applies"
        assert {m.original.title for m in report.modified} == {"Ship <kind>"}
        assert report.kept == []
        assert lint(serialize(revised)) == []

    def test_report_serialization(self, ftgo_doc, ftgo_graph):
        _, report = review(ftgo_doc, ftgo_graph)
        record = report.to_dict()
        assert set(record) >= {"kept", "modified", "added", "coverage", "unbindable"}
        assert record["coverage"] == 1.0
