"""Pipeline benchmark: time ``repro runtable`` on every workload.

Usage::

    python benchmarks/pipeline/bench.py --seed 0 [--out DIR]

There are :data:`ROUNDS` rounds.  Round ``k`` runs rep ``k`` of every
workload, forward on even rounds and reversed on odd ones, so drift of
the machine spreads over all workloads.  One client, one busy process:
each rep is one child interpreter with ``--workers 1``, then its
set-up children.  Cold workloads get a fresh on-disk
cache per rep; a warm workload's cache is filled once, untimed, and
reused by every rep.  After the rounds, one traced rep per workload
gives the per-layer table.

Prints every end-to-end metric per workload (median, quartiles, n) with
its unit, the per-layer table, and each correctness-gate violation by
name; writes ``results-seed<S>.json`` (for ``compare.py``) and
``trace-<workload>.jsonl`` under ``--out``.  Exits 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

import harness

#: timed reps per workload; compared runs must use the same number
ROUNDS = 20

#: end-to-end metrics reported beside BENCHMARK.json's.  Both are 0 on
#: most workloads, so the gate pins them instead of a bound.
GATE_METRICS = {"hit_fraction": "ratio", "failed_frac": "ratio"}

#: per-layer counts summed from the report rows.  The rows digest pins
#: them, so they are printed as exact counts, not as metrics to improve.
EXACT_COUNTS = ("work.rounds", "work.messages", "work.faults")


def run_all(names, seed, rounds, out):
    """Every rep of every workload: ``{name: (fill, reps, traced)}``.

    ``fill`` is the untimed rep that filled a warm workload's cache
    (``None`` for cold ones).
    """
    fills, reps = {}, {name: [] for name in names}
    with harness.work_dir(out) as work:
        for name in names:
            if name in harness.WARM:
                fills[name] = harness.fill_cache(name, seed, work)

        def rep(name, trace_path=None):
            cache_dir = fills[name]["cache_dir"] if name in fills else None
            return harness.run_rep(harness.table_path(name), seed, work,
                                   cache_dir, trace_path)

        for k in range(rounds):
            for name in (names if k % 2 == 0 else names[::-1]):
                reps[name].append(rep(name))
                last = reps[name][-1]
                print(f"round {k + 1}/{rounds} {name}: "
                      + (f"{last['sweep_s']:.3f} s" if last["ok"]
                         else last["error"]), flush=True)
        traced = {name: rep(name, out / f"trace-{name}.jsonl")
                  for name in names}
    for fill in fills.values():
        del fill["cache_dir"]
    return {name: (fills.get(name), reps[name], traced[name]) for name in names}


def collate(bench, runs, seed, rounds):
    """The results document ``compare.py`` reads.

    The traced rep passes the correctness gate with the timed ones, so
    tracing cannot change rows unnoticed.
    """
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(GATE_METRICS)
    results = {"seed": seed, "rounds": rounds,
               "nproc": len(os.sched_getaffinity(0)),
               "units": units, "layer_map": list(harness.LAYER_MAP),
               "workloads": {}}
    verdicts = harness.gate({
        name: (fill, reps + [traced])
        for name, (fill, reps, traced) in runs.items()
    })
    for name, (attempted, failed, messages) in verdicts.items():
        _, reps, traced = runs[name]
        values = harness.end_to_end_values(
            reps, [m for m in units if m != "failed_frac"])
        values["failed_frac"] = [failed / attempted]
        summary = {metric: harness.summarize(v) for metric, v in values.items()}
        untraced = summary["sweep_s"]["median"]
        results["workloads"][name] = {
            "metrics": summary, "values": values,
            # the unscaled wall time and the probe's CPU speed behind it
            "host": harness.end_to_end_values(reps, ["wall_sweep_s", "speed"]),
            "attempted": attempted, "failed": failed, "violations": messages,
            "digest": next((r["digest"] for r in reps if r["ok"]), None),
            "layers": (harness.per_layer(traced, untraced)
                       if traced["ok"] and untraced else {}),
            "missing": traced.get("missing", []),
        }
    return results


def print_results(bench, results):
    names = list(results["workloads"])
    print(f"\nend-to-end (seed {results['seed']}, {results['rounds']} "
          f"rounds, nproc {results['nproc']}): median [q1, q3] n")
    for name, doc in results["workloads"].items():
        for metric, unit in results["units"].items():
            s = doc["metrics"][metric]
            if s["n"]:
                print(f"  {name:<20} {metric:<13} {s['median']:>12.5g} "
                      f"[{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']} {unit}")
        for key, unit in (("wall_sweep_s", "s, unscaled"),
                          ("speed", "of the reference CPU")):
            s = harness.summarize(doc["host"][key])
            if s["n"]:
                print(f"  {name:<20} {key:<13} {s['median']:>12.5g} "
                      f"[{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']} {unit}")
        for message in doc["violations"]:
            print(f"  FAIL {name}: {message}")

    print("\nper-layer (one traced rep per workload)")
    print(f"  {'metric':<20}" + "".join(f"{n[:18]:>19}" for n in names))
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    layers += [(name, "count, exact") for name in EXACT_COUNTS]
    for metric, unit in layers:
        row = [results["workloads"][n]["layers"].get(metric) for n in names]
        print(f"  {metric:<20}" + "".join(
            f"{v:>19.5g}" if v is not None else f"{'-':>19}" for v in row)
            + f"  {unit}")
    for name, doc in results["workloads"].items():
        if doc["missing"]:
            print(f"  {name}: unresolved wrap targets {doc['missing']}")


def main(argv=None) -> int:
    bench = harness.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument("--out", default=str(harness.DEFAULT_OUT),
                        help="results directory (default: %(default)s)")
    args = parser.parse_args(argv)
    harness.prepare()
    out = pathlib.Path(args.out)

    names = [w["name"] for w in bench["workloads"]]
    runs = run_all(names, args.seed, ROUNDS, out)
    results = collate(bench, runs, args.seed, ROUNDS)
    print_results(bench, results)
    path = out / f"results-seed{args.seed}.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")
    return 1 if any(d["failed"] for d in results["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
