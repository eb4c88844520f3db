"""The repository's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload feed_fanout --seed 1 --seconds 10 --trace 0

Generates the seed's inputs, runs ``repro`` on them in fresh processes
(``repro diversify`` and ``repro serve``, see :mod:`workloads`), checks
every output against the reference in :mod:`oracle`, and prints one JSON
line last: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with no tracing. Whole
rounds repeat until ``--seconds`` of work has been measured (one round
already takes longer at the sizes in :mod:`workloads`); each metric is
the median over rounds. ``--trace 1`` runs one plain round and one round
under the span recorder on the same inputs, and reports the per-layer
metrics, the per-path breakdown (on stderr) and the tracing overhead. The
client-observed request latencies of the plain round are reported there
too, as metrics of the HTTP layer: on a 2-core virtual machine they
swung with the host's load far beyond any bound an end-to-end metric may
have (see README.md).
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from harness import ROOT, BenchError, Program

#: End-to-end metrics whose traced/untraced ratio is reported as overhead.
OVERHEAD_OF = ("ingest_posts_per_s", "diversify_posts_per_s", "recovery_s")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(correct: bool, attempted: int, failed: int, values: dict, declared: list) -> None:
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def _report_failures(rounds) -> bool:
    ok = True
    for rnd in rounds:
        if not rnd.checker.ok:
            ok = False
            print(f"{rnd.checker.failures} check(s) failed:", file=sys.stderr)
            for message in rnd.checker.messages:
                print(f"  {message}", file=sys.stderr)
    return ok


def _round(workload, seed: int, work: Path, trace_dir: Path | None = None):
    from workloads import run_round

    work.mkdir(parents=True)
    program = Program(work, trace_dir)
    try:
        return run_round(workload, seed, program, work)
    finally:
        program.close()


def measure(workload, seed: int, seconds: float, work: Path) -> int:
    spec = _spec()
    rounds = []
    measured = 0.0
    while not rounds or measured < seconds:
        round_dir = work / f"round-{len(rounds)}"
        start = time.perf_counter()
        rounds.append(_round(workload, seed, round_dir))
        measured += time.perf_counter() - start
        shutil.rmtree(round_dir)
    values = {
        name: statistics.median(r.metrics[name] for r in rounds)
        for name in rounds[0].metrics
    }
    ok = _report_failures(rounds)
    _emit(ok, sum(r.attempted for r in rounds), sum(r.failed for r in rounds), values, spec["end_to_end"])
    return 0


def traced(workload, seed: int, work: Path) -> int:
    from tracing import Trace, layer_metrics, overcounted, path_breakdown

    spec = _spec()
    plain = _round(workload, seed, work / "plain")
    shutil.rmtree(work / "plain")
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True)
    rnd = _round(workload, seed, work / "traced", spans_dir)
    traces = {name: Trace(path) for name, path in rnd.spans.items()}
    values = layer_metrics(traces["batch"], traces["serve"], traces["recovered"], rnd.client, rnd.program)
    values.update(plain.loop)
    breakdown = path_breakdown(traces, rnd.client)
    ok = _report_failures([plain, rnd])
    for message in overcounted(breakdown):
        ok = False
        print(f"breakdown is wrong: {message}", file=sys.stderr)
    print(f"per-path breakdown ({workload.name}, seed {seed}, traced):", file=sys.stderr)
    for path, row in breakdown.items():
        values[f"path.{path.replace(' ', '_')}.remainder_s"] = row["remainder_s"]
        print(f"  {path}: end-to-end {row['e2e_s']:.4f}s, remainder {row['remainder_s']:.4f}s", file=sys.stderr)
        for name, self_s in row["self_s"].items():
            print(f"    {name:42s} {self_s:10.4f}s", file=sys.stderr)
    for name in OVERHEAD_OF:
        base, with_spans = plain.metrics[name], rnd.metrics[name]
        # Positive means tracing made the metric worse, whichever way it points.
        worse = base / with_spans - 1 if name.endswith("per_s") else with_spans / base - 1
        values[f"trace.overhead.{name}"] = worse
        print(f"  tracing overhead on {name}: {worse:+.1%}", file=sys.stderr)
    _emit(ok, plain.attempted + rnd.attempted, plain.failed + rnd.failed, values, spec["per_layer"])
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # The client's own collector pauses would land in the latencies it
    # measures; it creates no reference cycles worth collecting.
    gc.disable()
    # Unwind on SIGTERM too, so the finally blocks stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{'traced' if args.trace else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            return traced(workload, args.seed, work)
        return measure(workload, args.seed, args.seconds, work)
    except BenchError as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
