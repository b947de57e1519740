"""The four benchmark workloads.

Each workload is set up from a seed, then runs timed passes over the same
generated inputs as a closed loop from one thread: a pass starts when the
previous one has finished. `run_pass` is the timed work. `check` runs untimed
after every pass and returns the problems it found, which count as failed
operations; the outputs of the first pass are kept as the reference that
later passes must equal, and `digest` hashes them so that two processes can
be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import gen
from check import TruthTable, round_trips
from spans import RecordingOracle, SpanStats, Tracer, median

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
CORPUS = FIXTURES / "corpus"


def _snapshot(root: Path) -> dict[str, str]:
    """Every artifact under root, with manifest `timing` keys dropped."""
    snapshot = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        text = path.read_text(encoding="utf-8")
        if path.name == "manifest.json":
            payload = json.loads(text)
            payload.pop("timing", None)
            text = json.dumps(payload, indent=2, sort_keys=True)
        snapshot[str(path.relative_to(root))] = text
    return snapshot


class Workload:
    name = ""
    why = ""
    params: dict = {}

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ops = 0
        self.failed_ops = 0
        self.reference = None

    def digest(self) -> str:
        """SHA-256 of the outputs of the first checked pass."""
        text = json.dumps(self.reference, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def calls(self, lib, tracer: Tracer | None, *names):
        """The package functions the benchmark calls, wrapped when tracing."""
        fns = [getattr(lib, n) for n in names]
        return [tracer.wrap(fn) if tracer else fn for fn in fns]

    def report(self, ops_per_s: float) -> dict:
        """Workload-specific end-to-end figures: name -> (value, unit, better)."""
        raise NotImplementedError

    def layers(self, stats: SpanStats, tracer: Tracer) -> dict:
        return {}


class PipelineMock(Workload):
    name = "pipeline-mock"
    # The leaf-kind weights are gen.LEAF_WEIGHTS; what they rest on is stated there.
    params = {"projects": 6, "leaves_per_project": 20, "conditions": "3-8",
              "leaf_kinds": "clean:formal:modify:residual = 6:2:1:1",
              "bindstep_only_steps": "Background in 40% of drafts, one in 50% of scenarios",
              "recorded_slice": "tests/fixtures/dataset/two_projects.json, 4 features"}
    why = ("run_dataset over the recorded 2-project dataset plus 6x20 seeded leaves (clean:formal "
           "3:1 as recorded; modify, residual 10% each, assumed): the batch run, every layer")
    # The output tree is kept between passes and every artifact is overwritten.
    # Creating a file on an ext4 virtual disk took 0.4-0.7 ms and varied from
    # run to run, which would swamp the pipeline's own work; only the first
    # pass pays for it.

    def setup(self, lib, seed: int) -> None:
        rng = random.Random(seed)
        dataset, script = gen.pipeline_dataset(
            rng, self.params["projects"], self.params["leaves_per_project"])
        self.lib = lib
        synthetic = self.workdir / "dataset.json"
        synthetic.write_text(json.dumps(dataset), encoding="utf-8")
        self.out = self.workdir / "out"
        recorded = lib.MockOracle.from_file(FIXTURES / "oracle" / "e2e_mock.json")
        self.slices = [(synthetic, lib.MockOracle(script), self.out / "synthetic"),
                       (FIXTURES / "dataset" / "two_projects.json", recorded,
                        self.out / "recorded")]

    def run_pass(self, tracer: Tracer | None = None):
        lib = self.lib
        (run_dataset,) = self.calls(lib, tracer, "run_dataset")
        results = []
        for dataset, mock, out in self.slices:
            oracle = RecordingOracle(mock, lib.oracle.fingerprint, tracer)
            config = lib.PipelineConfig(oracle_profile=oracle, output_dir=out)
            results.append((run_dataset(dataset, config), oracle))
        return results

    def check(self, result) -> list[str]:
        self.oracle = RecordingOracle.merged([oracle for _, oracle in result])
        records = [r for manifests, _ in result for m in manifests for r in m.features]
        self.features = len(records)
        self.ops += len(records)
        self.failed_ops += sum(r["status"] != "ok" for r in records)
        snapshot = _snapshot(self.out)
        # Sizes without the manifests' wall-clock `timing`, so they repeat exactly.
        self.written = (len(snapshot), sum(len(t.encode("utf-8")) for t in snapshot.values()))
        for path in self.out.rglob("*"):
            if path.is_file():
                path.write_bytes(b"")  # a file the next pass fails to write then shows
        if self.reference is None:
            self.reference = snapshot
            return [f"{name} does not re-parse and round-trip"
                    for name, text in snapshot.items()
                    if name.endswith("reviewed.feature") and not round_trips(self.lib, text)]
        if snapshot != self.reference:
            changed = sorted(set(snapshot.items()) ^ set(self.reference.items()))
            return [f"artifacts differ from the first run with this seed: {changed[0][0]}"]
        return []

    def oracle_figures(self) -> dict:
        calls = sum(self.oracle.calls.values())
        return {
            "oracle_calls_per_feature": (calls / self.features, "count", "lower"),
            "oracle_repeat_share": (sum(self.oracle.repeats.values()) / calls, "ratio", "lower"),
        }

    def report(self, ops_per_s: float) -> dict:
        return {"features_per_s": (ops_per_s, "1/s", "higher"), **self.oracle_figures()}

    def layers(self, stats: SpanStats, tracer: Tracer) -> dict:
        return {"pipeline.files_written": self.written[0],
                "pipeline.bytes_written": self.written[1],
                **{name: value for name, (value, _, _) in self.oracle_figures().items()}}


class AnalysisWide(Workload):
    name = "analysis-wide"
    params = {"conditions": [12, 14, 16], "traced_only_conditions": [18, 20],
              "links": "k/2 two-atom AND/OR, some negated", "constraints": "EXC,REQ,EXC,XOR",
              "restrictions": 1, "draft_scenarios": 1}
    why = ("one fixed-shape graph each at 12, 14, 16 conditions (AND/OR links, EXC/REQ/XOR, one "
           "MSK) checked and reviewed with no oracle: enumeration-bound, no I/O or text")
    WIDE = (12, 14, 16)
    TRACED_ONLY = (18, 20)

    def setup(self, lib, seed: int) -> None:
        rng = random.Random(seed)
        self.lib = lib
        self.cases = {}
        for k in self.WIDE + self.TRACED_ONLY:
            spec, required = gen.wide_graph(rng, k)
            draft = gen.wide_draft(spec)
            patterns = [[lib.ceg.Constraint(lib.ceg.ConstraintOp(op), a, b)
                         for op, a, b in pattern] for pattern in required]
            self.cases[k] = (spec, required, lib.parse_ceg(spec.dsl()), patterns,
                             lib.parse_feature(draft))

    def run_pass(self, tracer: Tracer | None = None, sizes=WIDE, with_review: bool = True):
        uncovered, coverage, iqs, review = self.calls(
            self.lib, tracer, "find_uncovered_conditions", "diff_constraint_coverage",
            "construct_iqs", "review")
        out = {}
        for k in sizes:
            _, _, graph, patterns, doc = self.cases[k]
            if tracer:
                tracer.trace_id = f"k{k}"
            missing = coverage(graph, patterns)
            out[k] = (len(uncovered(graph)),
                      [i for i, p in enumerate(patterns) if any(p is m for m in missing)],
                      len(iqs(graph)),
                      review(doc, graph)[0] if with_review else None)
        return out

    def check(self, result) -> list[str]:
        self.ops += len(result)
        summary = {k: (n, missing, n_iqs, doc and self.lib.serialize(doc))
                   for k, (n, missing, n_iqs, doc) in result.items()}
        if self.reference is not None:
            same = all(summary[k] == self.reference.get(k, summary[k]) for k in summary)
            return [] if same else ["results differ from the first pass with this seed"]
        self.reference = summary
        problems = []
        for k, (n_uncovered, missing, _, text) in summary.items():
            spec, required, graph, _, _ = self.cases[k]
            table = TruthTable(spec)
            consistent = len(self.lib.consistent_assignments(graph))
            if consistent != table.consistent.bit_count():
                problems.append(f"k={k}: {consistent} consistent assignments, "
                                f"truth table has {table.consistent.bit_count()}")
            if n_uncovered != table.uncovered.bit_count():
                problems.append(f"k={k}: {n_uncovered} uncovered assignments, "
                                f"truth table has {table.uncovered.bit_count()}")
            expected = [i for i, p in enumerate(required) if not table.entailed(p)]
            if missing != expected:
                problems.append(f"k={k}: patterns {missing} reported missing, expected {expected}")
            if text is not None and not round_trips(self.lib, text):
                problems.append(f"k={k}: reviewed draft does not re-parse and round-trip")
        return problems

    def report(self, ops_per_s: float) -> dict:
        return {"graph_check_s": (len(self.WIDE) / ops_per_s, "s", "lower")}

    def traced_extra(self, tracer: Tracer):
        """Enumeration at the sizes that only the traced run measures."""
        return self.run_pass(tracer, self.TRACED_ONLY, with_review=False)

    def check_extra(self, result) -> list[str]:
        saved, self.reference = self.reference, None
        problems = self.check(result)
        self.reference = saved
        return problems


class ReviewRepair(Workload):
    name = "review-repair"
    params = {"graphs": 500, "max_conditions": 6, "max_effects": 8, "scenarios": "1-3",
              "oracle_only_steps": "20% of condition steps, 15% of effect steps (assumed)",
              "shapes_seed": 0}
    why = ("review of 500 random graphs (<=6 conditions), 1-3 scenario drafts, scripted "
           "BindStep/Review (oracle-only steps 20%/15%, assumed): binding and the repair loop")
    # The graphs and drafts are drawn once from `shapes_seed`; the run's seed
    # rewords their atoms' descriptions and orders them. Drawn afresh for each
    # seed, the share of graphs that run to the review round cap (about one in
    # nine, each costing 20 times a typical review) varied by 13% between
    # seeds, and reviews_per_s with it; permuting the atoms' ids also moved it.

    def setup(self, lib, seed: int) -> None:
        shapes, rng = random.Random(self.params["shapes_seed"]), random.Random(seed)
        self.lib = lib
        self.cases = []
        for _ in range(self.params["graphs"]):
            spec = gen.random_graph(shapes, self.params["max_conditions"],
                                    self.params["max_effects"])
            dsl, draft = gen.reword(rng, spec, gen.review_draft(shapes, spec))
            self.cases.append((lib.parse_ceg(dsl), lib.parse_feature(draft)))
        rng.shuffle(self.cases)
        self.mock = lib.MockOracle(gen.review_script(self.params["max_conditions"],
                                                     self.params["max_effects"]))

    def run_pass(self, tracer: Tracer | None = None):
        (review,) = self.calls(self.lib, tracer, "review")
        oracle = RecordingOracle(self.mock, self.lib.oracle.fingerprint, tracer)
        out = []
        for i, (graph, doc) in enumerate(self.cases):
            if tracer:
                tracer.trace_id = f"g{i}"
            out.append(review(doc, graph, oracle))
        return out, oracle

    def check(self, result) -> list[str]:
        results, self.oracle = result
        self.ops += len(results)
        texts = [self.lib.serialize(doc) for doc, _ in results]
        if self.reference is not None:
            return [] if texts == self.reference else ["reviews differ from the first pass"]
        self.reference = texts
        problems = [f"review {i} does not re-parse and round-trip"
                    for i, text in enumerate(texts) if not round_trips(self.lib, text)]
        self.unstable = sum(
            self.lib.serialize(self.lib.review(doc, graph, self.mock)[0]) != text
            for (doc, _), (graph, _), text in zip(results, self.cases, texts))
        reports = [report for _, report in results]
        self.cap_hits = sum(any("round cap reached" in n for n in r.notes) for r in reports)
        self.dropped = sum(sum("did not re-check" in n for n in r.notes) for r in reports)
        self.synthesized = self.dropped + sum(len(r.added) for r in reports)
        self.coverage = sum(r.coverage for r in reports) / len(reports)
        return problems

    def shares(self) -> dict:
        n = len(self.cases)
        return {
            "review_cap_hit_share": (self.cap_hits / n, "ratio", "lower"),
            "review_unstable_share": (self.unstable / n, "ratio", "lower"),
            "synth_dropped_share": (self.dropped / max(self.synthesized, 1), "ratio", "lower"),
            "link_coverage_mean": (self.coverage, "ratio", "higher"),
        }

    def report(self, ops_per_s: float) -> dict:
        return {"reviews_per_s": (ops_per_s, "1/s", "higher"), **self.shares()}

    def layers(self, stats: SpanStats, tracer: Tracer) -> dict:
        return {name: value for name, (value, _, _) in self.shares().items()}


class CorpusMeasure(Workload):
    name = "corpus-measure"
    params = {"fixture_files": 50, "variants": 150, "malformed_share": 0.2}
    why = ("the 50-file fixture corpus plus 150 seeded variants (outlines, backgrounds, tags, "
           "long steps; 20% malformed, assumed) through the measure path: the text layers")

    def setup(self, lib, seed: int) -> None:
        rng = random.Random(seed)
        self.lib = lib
        self.files = [(p.name, p.read_text(encoding="utf-8"), None)
                      for p in sorted(CORPUS.glob("*.feature"))]
        if len(self.files) != self.params["fixture_files"]:
            raise SystemExit(f"expected {self.params['fixture_files']} files in {CORPUS}")
        self.files += gen.corpus_variants(rng, self.params["variants"],
                                          self.params["malformed_share"])

    def run_pass(self, tracer: Tracer | None = None):
        parse, serialize, acc_syn, keyword_stats, readability = self.calls(
            self.lib, tracer, "parse_feature", "serialize", "acc_syn", "keyword_stats",
            "readability")
        sources = [text for _, text, _ in self.files]
        docs, parsed, texts = [], [], []
        for source in sources:
            try:
                doc = parse(source)
            except self.lib.errors.ParseError:
                texts.append(None)
                continue
            docs.append(doc)
            parsed.append(source)
            texts.append(serialize(doc))
        accuracy = acc_syn(sources)
        stats = keyword_stats(docs, parsed)
        scores = [readability(source) for source in parsed]
        return texts, accuracy, stats, scores

    def check(self, result) -> list[str]:
        texts, accuracy, stats, scores = result
        self.ops += len(texts)
        summary = (texts, accuracy.clean_files, stats.to_dict(), [s.to_dict() for s in scores])
        if self.reference is not None:
            return [] if summary == self.reference else ["results differ from the first pass"]
        self.reference = summary
        problems = []
        for (name, source, defect), text in zip(self.files, texts):
            findings = self.lib.lint(source)
            if defect in gen.PARSE_DEFECTS and (text is not None or not findings):
                problems.append(f"{name}: injected {defect} was not rejected and flagged")
            elif defect in gen.LINT_DEFECTS and (text is None or not findings):
                problems.append(f"{name}: injected {defect} was not parsed and flagged")
            elif defect is None and (text is None or findings):
                problems.append(f"{name}: clean file did not parse cleanly")
            if text is not None and not round_trips(self.lib, text):
                problems.append(f"{name}: serialized text does not re-parse and round-trip")
        clean = sum(defect is None for _, _, defect in self.files)
        if accuracy.clean_files != clean:
            problems.append(f"acc_syn counts {accuracy.clean_files} clean files, expected {clean}")
        return problems

    def report(self, ops_per_s: float) -> dict:
        return {"files_per_s": (ops_per_s, "1/s", "higher")}


WORKLOADS = {w.name: w for w in (PipelineMock, AnalysisWide, ReviewRepair, CorpusMeasure)}


def layer_metrics(workload: Workload, tracer: Tracer) -> tuple[dict[str, float], float]:
    """Every per-layer metric, and the percentile the review tail reports.

    A layer this workload does not reach reads 0.
    """
    stats = SpanStats(tracer.spans)
    oracle = getattr(workload, "oracle", None)
    m: dict[str, float] = {}
    for agent in AGENTS:
        m[f"oracle.calls.{agent}"] = oracle.calls[agent] if oracle else 0
        m[f"oracle.repeats.{agent}"] = oracle.repeats[agent] if oracle else 0
    m["oracle.busy_s"] = stats.total("oracle.complete")
    for k in SIZES:
        for fn in ("consistent_assignments", "find_uncovered_conditions",
                   "diff_constraint_coverage"):
            m[f"ceg.analysis.{fn}.s.k{k}"] = stats.median_s(f"ceg.analysis.{fn}", f"k{k}")
        m[f"intervention.construct_iqs.s.k{k}"] = stats.median_s(
            "intervention.construct_iqs", f"k{k}")
    evaluations = stats.get("ceg.analysis.evaluate")
    busy = sum(s["dur"] for s in evaluations)
    m["ceg.analysis.evaluate.rows_per_s"] = len(evaluations) / busy if busy else 0.0
    m["ceg.analysis.minimal_satisfying_assignments.s"] = stats.median_s(
        "ceg.analysis.minimal_satisfying_assignments")
    m["intervention.heal.s"] = stats.median_s("intervention.heal")
    m["intervention.heal.formal_rounds"] = stats.total("intervention.heal", "formal_rounds")
    m["intervention.heal.semantic_rounds"] = stats.total("intervention.heal", "semantic_rounds")
    m["intervention.semantic_check.s"] = stats.median_s("intervention.semantic_check")
    for k in (12, 14, 16):
        m[f"review.review.s.k{k}"] = stats.median_s("review.review", f"k{k}")
    reviews = sorted(s["dur"] for s in stats.get("review.review"))
    m["review.review.ms.p50"] = median(reviews) * 1e3
    tail_pct, tail_s = tail(reviews)
    m["review.review.ms.tail"] = tail_s * 1e3
    m["review.review.samples"] = len(reviews)
    m["review.bind_steps.calls"] = len(stats.get("review.bind_steps"))
    m["review.bind_steps.s"] = stats.median_s("review.bind_steps")
    m["review.check_scenario.calls_per_review"] = (
        len(stats.get("review.check_scenario")) / len(reviews) if reviews else 0.0)
    m["review.synthesize_missing.s"] = stats.median_s("review.synthesize_missing")
    for name in ("oracle_calls_per_feature", "oracle_repeat_share", "review_cap_hit_share",
                 "review_unstable_share", "synth_dropped_share", "link_coverage_mean"):
        m[name] = 0.0
    m["gherkin.ast.parse_feature.kb_per_s"] = stats.kb_per_s("gherkin.ast.parse_feature")
    m["gherkin.ast.serialize.kb_per_s"] = stats.kb_per_s("gherkin.ast.serialize")
    m["gherkin.ast.keyword_stats.s"] = stats.median_s("gherkin.ast.keyword_stats")
    m["gherkin.lint.lint.kb_per_s"] = stats.kb_per_s("gherkin.lint.lint")
    m["gherkin.lint.findings"] = stats.total("gherkin.lint.lint", "findings")
    acc = stats.get("gherkin.lint.acc_syn")
    m["gherkin.lint.acc_syn"] = median(s["value"] for s in acc)
    m["metrics.readability.kb_per_s"] = stats.kb_per_s("metrics.readability")
    m["metrics.project_report.s"] = stats.median_s("metrics.project_report")
    m["ceg.dsl.parse_ceg.s"] = stats.median_s("ceg.dsl.parse_ceg")
    m["ceg.dsl.check_formal.s"] = stats.median_s("ceg.dsl.check_formal")
    m["elicitation.self_s"] = stats.layer_self_s("elicitation")
    m["pipeline.self_s"] = stats.layer_self_s("pipeline")
    m["pipeline.files_written"] = 0
    m["pipeline.bytes_written"] = 0
    m.update(workload.layers(stats, tracer))
    return m, tail_pct


def tail(values: list[float]) -> tuple[float, float]:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it, and its value."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        beyond = len(values) * (100 - pct) / 100
        if beyond >= 10:
            index = min(len(values) - 1, int(len(values) * pct / 100))
            return pct, values[index]
    return 0.0, 0.0


AGENTS = ("AnalyzeSystemBehavior", "AnalyzeUserBehavior", "BindStep", "BuildCEG",
          "ClassifyFURPS", "FeatureTreeGenerator", "GenerateGherkin", "IdentifyCAndE",
          "ModifyCEG", "ReasoningIQ", "ReconstructCEG", "Review")
SIZES = (12, 14, 16, 18, 20)


def _per_layer() -> dict[str, tuple[str, str]]:
    """Name -> (unit, better) of every per-layer metric, in report order."""
    catalog: dict[str, tuple[str, str]] = {}
    for agent in AGENTS:
        catalog[f"oracle.calls.{agent}"] = ("count", "lower")
    for agent in AGENTS:
        catalog[f"oracle.repeats.{agent}"] = ("count", "lower")
    catalog["oracle.busy_s"] = ("s", "lower")
    catalog["oracle_calls_per_feature"] = ("count", "lower")
    catalog["oracle_repeat_share"] = ("ratio", "lower")
    for fn in ("consistent_assignments", "find_uncovered_conditions",
               "diff_constraint_coverage"):
        for k in SIZES:
            catalog[f"ceg.analysis.{fn}.s.k{k}"] = ("s", "lower")
    catalog["ceg.analysis.evaluate.rows_per_s"] = ("rows/s", "higher")
    catalog["ceg.analysis.minimal_satisfying_assignments.s"] = ("s", "lower")
    for k in SIZES:
        catalog[f"intervention.construct_iqs.s.k{k}"] = ("s", "lower")
    catalog["intervention.heal.s"] = ("s", "lower")
    catalog["intervention.heal.formal_rounds"] = ("count", "lower")
    catalog["intervention.heal.semantic_rounds"] = ("count", "lower")
    catalog["intervention.semantic_check.s"] = ("s", "lower")
    for k in (12, 14, 16):
        catalog[f"review.review.s.k{k}"] = ("s", "lower")
    catalog["review.review.ms.p50"] = ("ms", "lower")
    catalog["review.review.ms.tail"] = ("ms", "lower")
    catalog["review.review.samples"] = ("count", "higher")
    catalog["review.bind_steps.calls"] = ("count", "lower")
    catalog["review.bind_steps.s"] = ("s", "lower")
    catalog["review.check_scenario.calls_per_review"] = ("count", "lower")
    catalog["review.synthesize_missing.s"] = ("s", "lower")
    catalog["review_cap_hit_share"] = ("ratio", "lower")
    catalog["review_unstable_share"] = ("ratio", "lower")
    catalog["synth_dropped_share"] = ("ratio", "lower")
    catalog["link_coverage_mean"] = ("ratio", "higher")
    for name in ("gherkin.ast.parse_feature.kb_per_s", "gherkin.ast.serialize.kb_per_s"):
        catalog[name] = ("kB/s", "higher")
    catalog["gherkin.ast.keyword_stats.s"] = ("s", "lower")
    catalog["gherkin.lint.lint.kb_per_s"] = ("kB/s", "higher")
    catalog["gherkin.lint.findings"] = ("count", "lower")
    catalog["gherkin.lint.acc_syn"] = ("ratio", "higher")
    catalog["metrics.readability.kb_per_s"] = ("kB/s", "higher")
    catalog["metrics.project_report.s"] = ("s", "lower")
    catalog["ceg.dsl.parse_ceg.s"] = ("s", "lower")
    catalog["ceg.dsl.check_formal.s"] = ("s", "lower")
    catalog["elicitation.self_s"] = ("s", "lower")
    catalog["pipeline.self_s"] = ("s", "lower")
    catalog["pipeline.files_written"] = ("count", "lower")
    catalog["pipeline.bytes_written"] = ("bytes", "lower")
    catalog["trace.overhead_s"] = ("s", "lower")
    catalog["trace.overhead_share"] = ("ratio", "lower")
    return catalog


PER_LAYER = _per_layer()
