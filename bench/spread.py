#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload simulate-sweep --seeds 1-10 [--trace 0]

For every metric it prints the median of the per-seed values, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the
interquartile distance as a share of the median, and, for end-to-end
metrics, that share against the metric's bound in BENCHMARK.json.  Runs
are sequential; each uses ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} "
              f"{result['failed']}/{result['attempted']} failed", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        line = (f"{name:<45} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                f"spread {spread:.4f}")
        if name in bounds:
            line += f"  bound {bounds[name]}  spread/bound {spread / bounds[name]:.2f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
