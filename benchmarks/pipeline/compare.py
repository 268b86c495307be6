"""Compare two ``bench.py`` results files, workload by workload.

Usage::

    python benchmarks/pipeline/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both medians with
their quartiles, the change of the median, and a verdict, judged
against the metric's bound in ``BENCHMARK.json``:

- ``unresolved``: the spread (quartile distance over the median) on
  either side is wider than the bound, and neither side's every run
  beats every run of the other;
- ``worse``: the median moved the wrong way by more than the bound;
- ``improved``: the median moved the right way by more than BASE's
  quartile distance, and NEW wins at least nine tenths of all
  (NEW run, BASE run) pairs;
- ``unchanged``: otherwise.

``hit_fraction`` must be equal on both sides and ``failed_frac`` must
not rise.  Exits 1 on any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def verdict(base, new, better, bound):
    """Judge NEW's values against BASE's for one metric."""
    b, n = harness.summarize(base), harness.summarize(new)
    sign = 1.0 if better == "lower" else -1.0
    # positive = worse, as a share of BASE's median
    worse_by = sign * (n["median"] - b["median"]) / b["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (b, n))
    beats = [sign * (y - x) < 0 for x in base for y in new]
    beaten = [sign * (x - y) < 0 for x in base for y in new]
    if spread > bound and not (all(beats) or all(beaten)):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if (-sign * (n["median"] - b["median"]) > b["q3"] - b["q1"]
            and sum(beats) >= 0.9 * len(beats)):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    metrics = harness.load_benchmark()["end_to_end"]

    bad = 0
    print(f"{'workload':<20} {'metric':<13} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'delta':>8}  verdict")
    for name, b_doc in base["workloads"].items():
        n_doc = new["workloads"].get(name)
        if n_doc is None:
            print(f"{name:<20} missing from {args.new}")
            bad += 1
            continue
        for metric in metrics:
            key = metric["name"]
            bv, nv = b_doc["values"][key], n_doc["values"][key]
            if not bv or not nv:
                print(f"{name:<20} {key:<13} no successful reps")
                bad += 1
                continue
            word = verdict(bv, nv, metric["better"], metric["bound"])
            bad += word == "worse"
            b, n = b_doc["metrics"][key], n_doc["metrics"][key]
            delta = (n["median"] - b["median"]) / b["median"]
            print(f"{name:<20} {key:<13} "
                  f"{b['median']:>10.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
                  f"{'':>2}{n['median']:>10.5g} [{n['q1']:.5g}, "
                  f"{n['q3']:.5g}] {delta:>+8.2%}  {word}")
        b_hit = b_doc["metrics"]["hit_fraction"]["median"]
        n_hit = n_doc["metrics"]["hit_fraction"]["median"]
        if b_hit != n_hit:
            print(f"{name:<20} hit_fraction   {b_hit} -> {n_hit}  worse")
            bad += 1
        b_fail = b_doc["metrics"]["failed_frac"]["median"]
        n_fail = n_doc["metrics"]["failed_frac"]["median"]
        if n_fail > b_fail:
            print(f"{name:<20} failed_frac    {b_fail} -> {n_fail}  worse")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
