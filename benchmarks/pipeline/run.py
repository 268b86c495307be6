"""Measure one pipeline workload for a fixed time; print one JSON result.

Usage::

    python3 benchmarks/pipeline/run.py --workload sweep-default-ref \\
        --seed 3 --seconds 20 --trace 0

Runs reps of the workload's table (root seed ``--seed``) one after
another until the next one would end past ``--seconds`` (at least
:data:`MIN_REPS`), then checks them with the correctness gate.  The last
line of standard output is::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the medians of every ``end_to_end``
metric of ``BENCHMARK.json``, times scaled to the reference CPU speed
(``child.SpeedProbe``); with ``--trace 1`` one more, traced rep
runs and the metrics are every ``per_layer`` metric.  Caches, reports
and the trace go under ``benchmarks/pipeline/out/``.  Exits 1 when a rep
fails the gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import harness

#: reps per run however long they take: the median of three
MIN_REPS = 3


def main(argv=None) -> int:
    bench = harness.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    harness.prepare()

    name = args.workload
    table = harness.table_path(name)
    with harness.work_dir(harness.DEFAULT_OUT) as work:
        fill = cache_dir = None
        if name in harness.WARM:
            fill = harness.fill_cache(name, args.seed, work)
            cache_dir = fill["cache_dir"]
        reps, walls = [], []
        started = time.perf_counter()
        while len(reps) < MIN_REPS or (
            time.perf_counter() - started + statistics.mean(walls)
            <= args.seconds
        ):
            begun = time.perf_counter()
            reps.append(harness.run_rep(table, args.seed, work, cache_dir))
            walls.append(time.perf_counter() - begun)
            if not reps[-1]["ok"]:
                break  # the run has failed; end it well within its cap
        traced = None
        if args.trace:
            traced = harness.run_rep(
                table, args.seed, work, cache_dir,
                trace_path=harness.DEFAULT_OUT / f"trace-{name}.jsonl")

    attempted, failed, messages = harness.gate(
        {name: (fill, reps + ([traced] if traced else []))})[name]
    for message in messages:
        print(f"FAIL {name}: {message}")

    values = harness.end_to_end_values(
        reps, [m["name"] for m in bench["end_to_end"]])
    if args.trace:
        wanted = bench["per_layer"]
        measured = harness.per_layer(
            traced, statistics.median(values["sweep_s"])
        ) if traced["ok"] and values["sweep_s"] else {}
    else:
        wanted = bench["end_to_end"]
        measured = {k: statistics.median(v) for k, v in values.items() if v}
    metrics = {}
    for metric in wanted:
        if metric["name"] in measured:
            value = measured[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"{name} {metric['name']} = {value:.6g} {metric['unit']}")
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
