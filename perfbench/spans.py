"""In-memory spans around calls into the package, and a recording oracle.

Spans are recorded only from the benchmark's own files: a traced run rebinds,
in its own process, the public functions each package module looks up in its
globals, and restores them afterwards. No file of the package changes.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

# Module -> global names to wrap. Each name is a public function that the
# module calls through its own globals, so wrapping it there records the
# call as a child span of the caller.
INSTRUMENTED = {
    "requireceg.pipeline": ("generate_feature_tree", "elicit_user_behavior",
                            "elicit_system_behavior", "identify_atoms", "build_ceg",
                            "heal", "draft_gherkin", "review", "serialize", "serialize_ceg",
                            "lint", "parse_feature", "project_report", "run_pipeline"),
    "requireceg.elicitation": ("parse_ceg", "check_formal", "parse_feature"),
    "requireceg.intervention": ("construct_iqs", "semantic_check", "consistent_assignments",
                                "evaluate", "check_formal", "parse_ceg"),
    "requireceg.review": ("bind_steps", "check_scenario", "synthesize_missing",
                          "consistent_assignments", "evaluate",
                          "minimal_satisfying_assignments"),
    "requireceg.ceg.analysis": ("consistent_assignments",),
    "requireceg.metrics": ("keyword_stats", "acc_syn", "readability", "classify_furps",
                           "serialize"),
    "requireceg.gherkin.lint": ("parse_feature", "lint"),
}


def layer_name(fn) -> str:
    """`requireceg.gherkin.ast.parse_feature` -> `gherkin.ast.parse_feature`."""
    return f"{fn.__module__.removeprefix('requireceg.')}.{fn.__name__}"


def _attributes(name: str, args, result) -> dict:
    """Sizes and counts recorded at the boundary, for per-layer ratios."""
    if name in ("gherkin.ast.parse_feature", "gherkin.lint.lint", "metrics.readability"):
        attrs = {"bytes": len(args[0].encode("utf-8"))}
        if name == "gherkin.lint.lint":
            attrs["findings"] = len(result)
        return attrs
    if name == "gherkin.ast.serialize":
        return {"bytes": len(result.encode("utf-8"))}
    if name == "intervention.heal":
        log = result[1]
        return {"formal_rounds": len(log.formal_rounds),
                "semantic_rounds": len(log.semantic_rounds)}
    if name == "gherkin.lint.acc_syn":
        return {"value": float(result.value)}
    return {}


class Tracer:
    """Collects spans: name, start, end, parent span, trace id, attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.trace_id = ""
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, start: float, trace_id: str | None = None) -> dict:
        """Append a span under the innermost open span, inheriting its trace id."""
        parent = self.stack[-1] if self.stack else None
        if trace_id is None:
            trace_id = self.spans[parent]["trace"] if parent is not None else self.trace_id
        span = {"name": name, "parent": parent, "trace": trace_id, "start": start, "end": 0.0}
        self.spans.append(span)
        return span

    def wrap(self, fn, trace_key=None):
        name = layer_name(fn)
        tracer = self

        def traced(*args, **kwargs):
            trace_id = trace_key(args, kwargs) if trace_key is not None else None
            span = tracer._open(name, time.perf_counter(), trace_id)
            tracer.stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer.stack.pop()
            span.update(_attributes(name, args, result))
            return result

        return traced

    def span(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span measured by the caller (the oracle wrapper)."""
        self._open(name, start).update(end=end, **attrs)

    def instrument(self) -> None:
        """Rebind every INSTRUMENTED global to a traced wrapper."""
        for module_name, names in INSTRUMENTED.items():
            module = importlib.import_module(module_name)
            for attr in names:
                original = getattr(module, attr)
                key = (lambda a, kw: kw.get("project_id", "")) if attr == "run_pipeline" else None
                setattr(module, attr, self.wrap(original, key))
                self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


class SpanStats:
    """Per-name durations, self times and attributes of a finished trace."""

    def __init__(self, spans: list[dict]):
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        self.by_name: dict[str, list[dict]] = {}
        for span, children in zip(spans, child_time):
            span["dur"] = span["end"] - span["start"]
            span["self"] = span["dur"] - children
            self.by_name.setdefault(span["name"], []).append(span)

    def get(self, name: str, trace: str | None = None) -> list[dict]:
        spans = self.by_name.get(name, [])
        return spans if trace is None else [s for s in spans if s["trace"] == trace]

    def median_s(self, name: str, trace: str | None = None) -> float:
        durations = sorted(s["dur"] for s in self.get(name, trace))
        return median(durations)

    def total(self, name: str, key: str = "dur") -> float:
        return sum(s.get(key, 0) for s in self.get(name))

    def kb_per_s(self, name: str) -> float:
        busy = self.total(name)
        return self.total(name, "bytes") / 1024 / busy if busy else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(s["self"] for name, spans in self.by_name.items()
                   if name.rsplit(".", 1)[0] == layer for s in spans)


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


class RecordingOracle:
    """Counts calls and fingerprint repeats per agent, and times `complete`.

    A repeat is a request whose fingerprint was already asked through this
    wrapper; the benchmark makes one wrapper per dataset run.
    """

    @classmethod
    def merged(cls, oracles: list["RecordingOracle"]) -> "RecordingOracle":
        """The counts of several wrappers, one per dataset run, added up."""
        total = cls(None, None)
        for oracle in oracles:
            total.calls.update(oracle.calls)
            total.repeats.update(oracle.repeats)
            total.busy_s += oracle.busy_s
        return total

    def __init__(self, inner, fingerprint, tracer: Tracer | None = None):
        self.inner = inner
        self.fingerprint = fingerprint
        self.tracer = tracer
        self.calls: Counter = Counter()
        self.repeats: Counter = Counter()
        self.seen: set[str] = set()
        self.busy_s = 0.0

    def complete(self, request) -> str:
        key = self.fingerprint(request)
        self.calls[request.agent] += 1
        if key in self.seen:
            self.repeats[request.agent] += 1
        self.seen.add(key)
        start = time.perf_counter()
        try:
            return self.inner.complete(request)
        finally:
            end = time.perf_counter()
            self.busy_s += end - start
            if self.tracer is not None:
                self.tracer.span("oracle.complete", start, end, agent=request.agent)
