#!/usr/bin/env python3
"""Benchmark of the wreath_sylow package: one workload, one seed, one process.

    python3 perfbench/run.py --workload deep-ladder --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from the seed, runs one warm-up case, then
measures whole passes over the cases: at least one, and more while the next
is expected to end within ``--seconds``.  A case's latency is the median of
its samples, one per pass.  Every output is checked.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` every listed layer function is wrapped in a
timing span and the JSON holds the per-layer metrics instead (spans are
written to ``.perfbench_out/`` at the repository root).

``--record-digests`` runs one pass at the default seed and stores the digest
of every output in ``perfbench/digests.json``; later runs at that seed must
reproduce them byte for byte.

Exit codes: 0 all outputs correct, 1 a check failed, 2 the package under
``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def _import_package():
    """Import wreath_sylow from this checkout's src/, never from elsewhere."""
    if not (SRC / "wreath_sylow" / "__init__.py").is_file():
        print(f"error: no wreath_sylow package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]
    start = time.perf_counter()
    import wreath_sylow
    import workloads  # imports the cli, oracle and gallery modules too

    elapsed = time.perf_counter() - start
    if Path(wreath_sylow.__file__).resolve().parent != SRC / "wreath_sylow":
        print(f"error: imported wreath_sylow from {wreath_sylow.__file__}", file=sys.stderr)
        sys.exit(2)
    return workloads, elapsed


def _recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def machine_info() -> dict:
    """Context for the numbers; reported, never gated."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    lines = blank = 0
    for path in sorted(SRC.rglob("*.py")):
        for ln in path.read_text(encoding="utf-8").splitlines():
            lines += 1
            blank += not ln.strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": lines,
        "src_nonblank_lines": lines - blank,
    }


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least ten of n samples beyond it."""
    fits = [q for q in PERCENTILES if n * (100 - q) / 100 >= 10]
    return fits[-1] if fits else 50


def percentile(sorted_vals, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile of an ascending list.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics, so
    the estimate does not jump when two neighbouring cases trade places;
    a workload holds few, very unequal cases near its tail.
    """
    n, x = len(sorted_vals), q / 100
    a, b = (n + 1) * x, (n + 1) * (1 - x)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule per order statistic; the weights are renormalized
    weights = []
    for i in range(n):
        mids = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in mids))
    return sum(w * v for w, v in zip(weights, sorted_vals)) / sum(weights)


def run_pass(cases, tracer):
    """Time every case once; returns (wall seconds, [(case, seconds, output, error)])."""
    results = []
    start = time.perf_counter()
    for case in cases:
        if tracer is not None:
            tracer.case = case.cid
        c0 = time.perf_counter()
        try:
            out, err = case.run(), None
        except Exception as exc:  # a raising case is a failed case, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((case, time.perf_counter() - c0, out, err))
    return time.perf_counter() - start, results


class Tally:
    """Outcome of the measured passes: timings, failures and verdict kinds."""

    def __init__(self, wl_mod, reference: dict, learn: bool):
        self.wl_mod = wl_mod
        self.reference = reference  # case id -> output digest
        self.learn = learn  # take digests from the first pass instead of the record
        self.walls: list[float] = []
        self.samples: dict[str, list[float]] = {}  # case id -> seconds, one per pass
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.kinds: Counter = Counter()  # verdict kinds of the first pass

    def add_pass(self, wall: float, results) -> None:
        first = not self.walls
        self.walls.append(wall)
        for case, secs, out, err in results:
            self.samples.setdefault(case.cid, []).append(secs)
            self.attempted += 1
            issues = [err] if err else case.check(out)
            if not err:
                d = self.wl_mod.digest(out[1] if isinstance(out, tuple) else out)
                if self.learn:
                    self.reference.setdefault(case.cid, d)
                if d != self.reference.get(case.cid):
                    issues.append(f"output digest {d}, recorded {self.reference.get(case.cid)}")
                kind = self.wl_mod.observed_kind(out)
                if first and kind:
                    self.kinds[kind] += 1
            if issues:
                self.failed += 1
                self.problems.extend(f"{case.cid}: {msg}" for msg in issues)

    def case_percentile(self, q: float) -> float:
        """The q-th percentile over the cases of each case's median latency."""
        return percentile(sorted(statistics.median(s) for s in self.samples.values()), q)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("deep-ladder", "mixed-stream", "oracle-crosscheck"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store the output digests of one pass at the default seed")
    args = ap.parse_args(argv)

    wl_mod, import_s = _import_package()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = wl_mod.WORKLOADS[args.workload](args.seed)
        workload.warmup.run()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    # at the default seed outputs must match the recorded digests; at any
    # other seed every pass must reproduce the first pass's outputs
    learn = args.seed != wl_mod.DEFAULT_SEED or args.record_digests
    tally = Tally(wl_mod, {} if learn else _recorded_digests().get(args.workload, {}), learn)
    if tracer is not None:
        tracer.recording = True
    start = time.perf_counter()
    while True:
        tally.add_pass(*run_pass(workload.cases, tracer))
        expected_end = time.perf_counter() - start + statistics.median(tally.walls)
        if args.record_digests or expected_end > args.seconds:
            break
    if tracer is not None:
        tracer.recording = False

    if args.record_digests:
        recorded = _recorded_digests()
        recorded[args.workload] = tally.reference
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    missing = [k for k in workload.kinds_required if not tally.kinds[k]]
    if missing:
        tally.problems.append(f"verdict kinds never produced: {', '.join(missing)}")

    n_cases = len(workload.cases)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(tally.walls)}  cases/pass {n_cases}")
    print("info " + json.dumps(machine_info(), sort_keys=True))
    print("verdict kinds (first pass): " + json.dumps(dict(sorted(tally.kinds.items()))))
    print(f"fail_frac {tally.failed / tally.attempted:.6g}"
          f"  ({tally.failed} of {tally.attempted} attempted cases)")
    for msg in tally.problems[:20]:
        print(f"FAILED {msg}")

    if tracer is None:
        tail_q = tail_percentile(n_cases)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(tally.walls), "s"),
            "case_p50_ms": (tally.case_percentile(50) * 1e3, "ms"),
            "case_tail_ms": (tally.case_percentile(tail_q) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print(f"(case_tail_ms is p{tail_q} of {n_cases} cases, each the median of"
              f" {len(tally.walls)} passes)")
    else:
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = (statistics.median(tally.walls), "s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        print(f"trace.wall_s {metrics['trace.wall_s'][0]:.4f} s with {len(tracer.spans)} spans;"
              " tracing overhead = trace.wall_s - wall_s of a --trace 0 run (overhead.py)")
        for title, moves, on, names in tracing.ROWS:
            print(f"-- {title}: should move {moves} on {on}")
            for name in names:
                note = "" if name in tracer.installed else "  (not found)"
                print(f"   {name:<38} calls {metrics[name + '.calls'][0]:>9}"
                      f"  self {metrics[name + '.self_s'][0]:10.4f} s{note}")
        for name, unit in tracing.COUNTERS.items():
            print(f"   {name:<38} {metrics[name][0]:.6g} {unit}")
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
