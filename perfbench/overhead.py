#!/usr/bin/env python3
"""Tracing overhead per workload: traced wall_s minus untraced wall_s.

    python3 perfbench/overhead.py --seed 0 --seconds 30 [workload ...]

Runs ``run.py`` in fresh processes, one after the other, with the same
seed: PAIRS pairs of one ``--trace 0`` and one ``--trace 1`` run, the order
alternating from pair to pair, and reports the median of each side.  The
machine's speed drifts by more than the overhead of the slow workloads, so a
single pair is not enough.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("deep-ladder", "mixed-stream", "oracle-crosscheck")
PAIRS = 3


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    print(f"{'workload':<18} {'wall_s':>9} {'traced':>9} {'overhead':>9}   (medians of {PAIRS} runs)")
    for wl in args.workloads:
        plain, traced = [], []
        for k in range(PAIRS):
            for trace in ((0, 1) if k % 2 == 0 else (1, 0)):
                metrics = measure(wl, args.seed, args.seconds, trace)
                if trace:
                    traced.append(metrics["trace.wall_s"]["value"])
                else:
                    plain.append(metrics["wall_s"]["value"])
        p, t = statistics.median(plain), statistics.median(traced)
        print(f"{wl:<18} {p:9.3f} {t:9.3f} {t - p:+9.3f} s ({(t - p) / p:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
