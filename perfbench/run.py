"""Benchmark for requireceg: four seeded workloads, end-to-end and per-layer metrics.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-mock --seed 1 --seconds 10 --trace 0

or all four, each in its own process, with a table of every end-to-end
figure by name, unit and direction (`--trace 1` adds the traced runs,
`--write` saves everything as JSON):

    python3 perfbench/run.py --workload all --seed 1 --seconds 10 [--trace 1] [--write F]

A run sets up its inputs from the seed (a fresh import of the package plus
seeded generation), then runs timed passes over them, one after another
from one thread, until the passes add up to `--seconds`, checking every
pass untimed. Between passes it sets up again, spread over the run. Every
pass and set-up is timed in reference seconds (see CALIBRATION_REF_S):
`ops_per_s` is the operations of one pass over the median pass time, and
`setup_s` the median set-up time. With `--trace 1` each untraced pass is
followed by one with spans recorded around the package's public functions.
The run reports the per-layer metrics of the last traced pass, and the
tracing overhead: the median over the pairs of traced against untraced
wall time. Spans are kept in memory and written to
`perfbench/_out/trace-<workload>-<seed>.jsonl` at the end.

Stdout ends with two JSON lines: run information (Python version, CPU
count, git revision, workload parameters, the workload's own end-to-end
figures, a digest of its checked outputs and any check failures), then the
result
`{"correct", "attempted", "failed", "metrics"}`. The exit code is 1 when a
check or an operation failed, and 2 when the package sources are missing.

Metric conventions: `*.s` is the median seconds of one call; `*.s.k<k>`
the same on the k-condition graph; `*.busy_s` and `*.self_s` are totals
over the traced pass (self time excludes child spans); counts are totals
over the traced pass.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_out"
SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
}


# Hosts are often shared, and other tenants' load slows every process: on a
# shared 2-CPU virtual machine a fixed loop ran 1.7 times slower for most of
# some minutes, with short fast spells, and plain pass times moved by up to
# 35% between runs. So every timed piece of work (a pass or a set-up) is
# bracketed by a fixed pure-Python loop, timed several times just before and
# just after it, and is reported in reference seconds: its wall time times
# CALIBRATION_REF_S over the loop's median time around it. A change to the
# package moves the figures; a change in host load mostly does not. The
# reference is about the loop's median time on an idle host of that kind, so
# reference seconds read close to wall seconds there. The unscaled figures
# are in the run information as `measured`.
CALIBRATION_REF_S = 0.004


def calibration_loop() -> int:
    """Fixed work of the kinds the package does: dicts, strings, small objects."""
    total = 0
    names = [f"C{i}" for i in range(12)]
    for row in range(1000):
        assignment = {name: (row >> j) & 1 == 0 for j, name in enumerate(names)}
        text = " ".join(name.lower() for name, value in assignment.items() if value)
        total += len(text.split()) + sum(assignment.values())
    return total


class Clock:
    """Times work in wall seconds, and afterwards in reference seconds.

    The calibration loop runs a few times just before and after each timed
    piece of work. The host's speed for a piece of work lasting d seconds is
    the loop's median time over the window from d before its start to d after
    its end: a short piece is judged by the host's load right around it, a
    long one, which itself averages over the load's swings, by a wider span.
    """

    def __init__(self):
        self.loop: list[tuple[float, float]] = []  # (midpoint, seconds) per loop run
        self._calibrate(40)  # warm-up: a process just started runs slower at first
        self.loop.clear()

    def _calibrate(self, count: int) -> None:
        for _ in range(count):
            start = time.perf_counter()
            calibration_loop()
            end = time.perf_counter()
            self.loop.append(((start + end) / 2, end - start))

    def time(self, fn, *args):
        """`fn(*args)`, and the (start, end) of the call for `reference_s`."""
        gc.collect()
        self._calibrate(5)
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        # About one loop per 50 ms of work: a few % of the run.
        self._calibrate(max(5, min(40, int((end - start) / 0.05))))
        return result, (start, end)

    def reference_s(self, span: tuple[float, float]) -> float:
        start, end = span
        d = end - start
        around = [s for t, s in self.loop if start - d <= t <= end + d]
        return d * CALIBRATION_REF_S / median(around)


def set_up(name: str, workdir: Path, seed: int):
    """One set-up: a fresh import of the package plus seeded generation.

    The package's modules in `sys.modules` are those of this import afterwards.
    """
    from workloads import WORKLOADS

    for module in [m for m in sys.modules if m == "requireceg" or m.startswith("requireceg.")]:
        del sys.modules[module]
    lib = importlib.import_module("requireceg")
    workload = WORKLOADS[name](workdir)
    workload.setup(lib, seed)
    return workload


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from workloads import PER_LAYER, layer_metrics

    workdir = WORK / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        clock = Clock()
        workload, first = clock.time(set_up, name, workdir, seed)
        package = {m: module for m, module in sys.modules.items()
                   if m == "requireceg" or m.startswith("requireceg.")}
        setups = [first]
        spare = workdir / "setup"
        spare.mkdir()

        problems: list[str] = []
        passes: list[tuple[float, float]] = []
        # With tracing, each untraced pass is followed by a traced one, so that
        # the overhead compares passes run under the same host load: medians
        # of untraced and traced passes taken a minute apart differed by up
        # to 25% either way. The per-layer metrics come from the last traced pass.
        pairs: list[tuple[tuple[float, float], tuple[float, float]]] = []
        elapsed = 0.0
        while elapsed < seconds:
            result, span = clock.time(workload.run_pass)
            passes.append(span)
            elapsed += span[1] - span[0]
            problems += workload.check(result)
            if trace:
                tracer = Tracer()
                tracer.instrument()
                try:
                    result, traced = clock.time(workload.run_pass, tracer)
                finally:
                    tracer.restore()
                problems += workload.check(result)
                pairs.append((span, traced))
                elapsed += traced[1] - traced[0]
            # The other set-ups are spread over the run, so that their median
            # does not hang on the host's load in one short stretch of it.
            while len(setups) < 1 + (SETUP_REPEATS - 1) * min(1, elapsed / seconds):
                setups.append(clock.time(set_up, name, spare, seed)[1])
                sys.modules.update(package)  # passes and tracing go on with the first import
        times = [end - start for start, end in passes]
        setup_times = [end - start for start, end in setups]
        refs = [clock.reference_s(span) for span in passes]
        setup_s = median(clock.reference_s(span) for span in setups)
        ops_per_pass = workload.ops / (len(passes) + len(pairs))
        ops_per_s = ops_per_pass / median(refs)
        loop_s = [s for _, s in clock.loop]
        info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                "python": platform.python_version(), "cpu_count": os.cpu_count(),
                "git_revision": git_revision(), "why": workload.why,
                "params": workload.params, "passes": len(passes),
                "pass_s": {"median": median(times), "min": min(times), "max": max(times)},
                "setup_repeats_s": {"median": median(setup_times), "min": min(setup_times),
                                    "max": max(setup_times), "count": len(setup_times)},
                "calibration_s": {"min": min(loop_s), "median": median(loop_s),
                                  "samples": len(loop_s), "reference": CALIBRATION_REF_S},
                "measured": {"ops_per_s": ops_per_pass / median(times),
                             "setup_s": median(setup_times)},
                "output_digest": workload.digest()}

        if trace:
            if hasattr(workload, "traced_extra"):
                tracer.instrument()
                try:
                    extra = workload.traced_extra(tracer)
                finally:
                    tracer.restore()
                problems += workload.check_extra(extra)
            layers, tail_pct = layer_metrics(workload, tracer)
            # Wall times: the two passes of a pair already share the host's load.
            walls = [(p[1] - p[0], t[1] - t[0]) for p, t in pairs]
            layers["trace.overhead_s"] = median(t - p for p, t in walls)
            layers["trace.overhead_share"] = median(t / p for p, t in walls) - 1
            info["review_tail_percentile"] = tail_pct
            info["trace_file"] = str((WORK / f"trace-{name}-{seed}.jsonl").relative_to(ROOT))
            tracer.write(ROOT / info["trace_file"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(workload.ops, 1)
    failed = min(attempted, workload.failed_ops + len(problems))
    end_to_end = {"setup_s": setup_s, "ops_per_s": ops_per_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    report = {m: (end_to_end[m], *END_TO_END[m]) for m in ("setup_s", "peak_rss_mb")}
    report["failed_share"] = (failed / attempted, "ratio", "lower")
    report.update(workload.report(ops_per_s))
    info["report"] = {m: {"value": v, "unit": u, "better": b} for m, (v, u, b) in report.items()}
    info["problems"] = problems[:20]
    catalog, values = (PER_LAYER, layers) if trace else (END_TO_END, end_to_end)
    metrics = {m: {"value": values[m], "unit": unit} for m, (unit, _) in catalog.items()}
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return {"info": info}, result


def run_all(seed: int, seconds: float, trace: bool, write: str | None) -> int:
    """Run every workload in its own process and print the end-to-end figures.

    With `trace`, each workload also runs traced in a second process, and the
    digests of the two processes' checked outputs must be equal: this catches
    output that changes between processes (string hashing, say) and output
    that tracing changes.
    """
    from workloads import WORKLOADS

    runs: dict[str, dict] = {}
    status = 0
    for name in WORKLOADS:
        runs[name] = {}
        for traced in ([False, True] if trace else [False]):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
                capture_output=True, text=True, timeout=900, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                status = 1
                sys.stderr.write(proc.stderr)
            if len(lines) < 2:
                print(f"{name}: no result (exit code {proc.returncode})")
                continue
            run = {**json.loads(lines[-2]), "result": json.loads(lines[-1])}
            runs[name]["traced" if traced else "untraced"] = run
            if not traced:
                for metric, entry in run["info"]["report"].items():
                    print(f"{name:15} {metric:26} {entry['value']:14.6g} {entry['unit']:6} "
                          f"{entry['better']} is better")
            else:
                overhead = run["result"]["metrics"]["trace.overhead_share"]["value"]
                print(f"{name:15} {'tracing overhead':26} {overhead:14.3%}")
            for problem in run["info"]["problems"]:
                print(f"{name:15} check failed: {problem}")
        digests = {run["info"]["output_digest"] for run in runs[name].values()}
        if len(digests) > 1:
            status = 1
            print(f"{name:15} check failed: outputs differ between processes with this seed")
    if write:
        first = next(iter(r["info"] for runs_ in runs.values() for r in runs_.values()), {})
        summary = {key: first.get(key) for key in ("python", "cpu_count", "git_revision")}
        summary.update({"seed": seed, "seconds": seconds, "workloads": runs})
        Path(write).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="with --workload all: save every run as JSON here")
    args = parser.parse_args()

    if not (ROOT / "src" / "requireceg" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.write)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
