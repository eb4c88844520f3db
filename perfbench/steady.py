"""Steadiness check: run one workload N times on this commit, with a new
seed each time, and print each end-to-end metric's median, quartiles and
relative spread (``(q3 - q1) / median``) beside its bound.

    python3 perfbench/steady.py --workload feed_fanout --runs 10

Before each run it times a fixed pure-Python calibration loop and prints
that time beside the run, so a slow stretch of the machine shows up as a
slow calibration next to slow metrics instead of passing for a
regression. A spread above a third of the bound is flagged: such a
metric is too noisy to hold a change to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (integer and dict work)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(1_500_000):
        total += (i * i) % 7
        table[i & 4095] = total
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for run in range(args.runs):
        seed = args.first_seed + run
        calib = calibrate()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(result)
        if not result["correct"]:
            print(f"seed {seed}: outputs wrong\n{proc.stderr}", file=sys.stderr)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(
            f"seed {seed:3d}  calib {calib:.3f}s  wall {wall:6.1f}s  correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}  {values}",
            flush=True,
        )
    print(f"\n{args.workload}: {len(rows)} runs")
    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in rows if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread < bound / 3 else "  <- above bound/3"
        print(f"{name:24s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f}{flag}")
    shares = {r["failed"] / r["attempted"] for r in rows}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
