"""Micro-benchmarks of the combinatorial and simulation engines.

Not a paper artifact -- these track the performance of the pieces the
protocols run in their inner loops (exact set packing, vertex-disjoint
max flow, witness generation/verification, watch-list construction), so
a quadratic regression in any of them shows up as a bench slowdown.

``test_engine_backends`` additionally compares the two simulation
backends (reference vs fastpath, see ``docs/ENGINES.md``) on the same
crash-flood scenarios and writes the wall-clock table to
``benchmarks/results/BENCH_engines.json``; the >= 20x speedup assertion
at side 200 is the fastpath engine's performance regression pin.

``test_engine_memory_side_1000`` is the large-grid smoke: one
crash-flood run per backend on a side-1000 torus (a million nodes),
each in its own subprocess so ``ru_maxrss`` isolates that engine's peak
RSS.  It pins the fastpath memory budget -- the ball-stencil/bitset
refactor keeps peak RSS around 550 MB where the old ``(N, K)`` int64
neighbor table alone was 192 MB -- and the >= 20x speedup at this size.
Both results land in ``BENCH_engines.json`` (keys ``wall_clock`` /
``side_1000_memory``; read-merge-write, so the tests can run in any
order or alone).
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.analysis.flows import max_vertex_disjoint_paths
from repro.analysis.packing import find_set_packing
from repro.core.earmark import watchlist_for_node
from repro.core.paths import corner_connectivity
from repro.core.witnesses import verify_connectivity_map
from repro.grid.graphs import adjacency_map
from repro.grid.torus import Torus
from repro.radio.fastpath import HAVE_NUMPY


def test_packing_protocol_shaped(benchmark):
    """A commit-rule-sized instance: honest disjoint chains plus
    adversarial overlapping fakes."""
    t = 9
    sets = [frozenset({("n", i)}) for i in range(t + 1)]
    sets += [frozenset({("n", t + 1 + i), ("m", i)}) for i in range(t)]
    sets += [frozenset({("x", i), ("bad", i % 3)}) for i in range(30)]

    result = benchmark(find_set_packing, sets, target=2 * t + 1)
    assert len(result) >= 2 * t + 1


def test_flow_torus_connectivity(benchmark):
    torus = Torus.square(11, 2)
    adj = adjacency_map(torus)

    count = benchmark(
        max_vertex_disjoint_paths, adj, (0, 0), (5, 5)
    )
    assert count == 24  # full neighborhood degree


def test_corner_connectivity_generation(benchmark):
    families = benchmark(corner_connectivity, 0, 0, 5)
    assert len(families) == 5 * 11


def test_witness_verification(benchmark):
    r = 4
    families = corner_connectivity(0, 0, r)

    def verify():
        verify_connectivity_map(
            families,
            r,
            required_nodes=r * (2 * r + 1),
            required_paths_each=r * (2 * r + 1),
        )
        return True

    assert benchmark(verify)


def test_watchlist_build(benchmark):
    wl = benchmark(watchlist_for_node, (7, 9), (0, 0), 3)
    assert len(wl) >= 3 * 7


# -- simulation backend comparison (reference vs fastpath) ----------------

#: (side, repetitions) -- one scenario family per torus size; both
#: engines take the best of the same number of runs.  More reps on small
#: tori, where a single run is too quick to time stably, and best of 5 at
#: side 200, where a best-of-2 fastpath reading (~0.1 s) swung about 2x
#: on a shared host
_BACKEND_SIDES = ((10, 20), (50, 5), (200, 5))


def _engine_run_seconds(side: int, engine: str, reps: int) -> float:
    """Best-of-``reps`` wall-clock of one crash-flood run (build cost
    excluded: the scenario is constructed once, the engine choice only
    changes ``run()``)."""
    from repro.experiments.scenarios import crash_broadcast_scenario

    sc = crash_broadcast_scenario(
        r=2, t=4, placement="random", seed=7, torus_side=side,
        max_rounds=400, engine=engine,
    )
    sc.run()  # warm: imports, lattice tables
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = sc.run()
        best = min(best, time.perf_counter() - t0)
    assert out.achieved
    return best


@pytest.mark.skipif(not HAVE_NUMPY, reason="fastpath needs numpy")
def test_engine_backends(benchmark, save_table):
    rows = []
    for side, reps in _BACKEND_SIDES:
        ref = _engine_run_seconds(side, "reference", reps)
        fast = _engine_run_seconds(side, "fastpath", reps)
        rows.append(
            {
                "side": side,
                "nodes": side * side,
                "reference_s": round(ref, 4),
                "fastpath_s": round(fast, 4),
                "speedup": round(ref / fast, 1),
            }
        )

    def report():
        return rows

    benchmark.pedantic(report, rounds=1, iterations=1)
    # regression pin: the whole point of the fastpath backend is bulk
    # sweeps on large tori (measured ~30x on an idle machine; 20x leaves
    # headroom for loaded CI runners)
    big = next(r for r in rows if r["side"] == 200)
    assert big["speedup"] >= 20.0, rows
    _merge_results("wall_clock", rows)
    save_table(
        "BENCH_engines", rows, title="engine backends: crash-flood wall-clock"
    )


# -- side-1000 memory + throughput smoke ----------------------------------

_MEM_SIDE = 1000

#: fastpath peak-RSS budget at side 1000 (MB).  Measured ~550 MB after
#: the stencil/bitset memory work; the budget leaves allocator headroom
#: while still failing if the O(N*K) int64 neighbor table (192 MB at
#: this size, r=2 linf) is ever reintroduced on the vectorized path.
_MEM_RSS_BUDGET_MB = 700.0

_MEM_CHILD = """\
import json, resource, time
from repro.experiments.scenarios import crash_broadcast_scenario

sc = crash_broadcast_scenario(
    r=2, t=4, placement="random", seed=7, torus_side={side},
    max_rounds=400, engine={engine!r},
)
t0 = time.perf_counter()
out = sc.run()
elapsed = time.perf_counter() - t0
print(json.dumps({{
    "seconds": elapsed,
    "rounds": out.result.rounds,
    "achieved": out.achieved,
    # ru_maxrss is KB on Linux
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    / 1024.0,
}}))
"""


def _subprocess_run_stats(side: int, engine: str) -> dict:
    """One engine run in a fresh interpreter: ``ru_maxrss`` then
    reflects exactly that engine's peak, not whatever the bench process
    allocated before."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.run(
        [sys.executable, "-c", _MEM_CHILD.format(side=side, engine=engine)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _merge_results(key: str, value) -> None:
    """Read-merge-write one section of ``BENCH_engines.json``."""
    out = pathlib.Path(__file__).parent / "results" / "BENCH_engines.json"
    out.parent.mkdir(exist_ok=True)
    data = {}
    if out.exists():
        try:
            existing = json.loads(out.read_text())
        except ValueError:
            existing = {}
        if isinstance(existing, dict):
            data = existing
        # a bare list is the pre-memory-smoke schema: the wall-clock rows
        elif isinstance(existing, list):
            data = {"wall_clock": existing}
    data[key] = value
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.mark.skipif(not HAVE_NUMPY, reason="fastpath needs numpy")
def test_engine_memory_side_1000(benchmark, save_table):
    """Million-node crash flood: peak-RSS budget + speedup pin.

    The reference run takes minutes at this size (that asymmetry is the
    point); each engine runs exactly once, in its own subprocess.
    """
    fast = _subprocess_run_stats(_MEM_SIDE, "fastpath")
    ref = _subprocess_run_stats(_MEM_SIDE, "reference")
    assert fast["achieved"] and ref["achieved"]
    assert fast["rounds"] == ref["rounds"]
    row = {
        "side": _MEM_SIDE,
        "nodes": _MEM_SIDE * _MEM_SIDE,
        "reference_s": round(ref["seconds"], 2),
        "fastpath_s": round(fast["seconds"], 2),
        "speedup": round(ref["seconds"] / fast["seconds"], 1),
        "reference_peak_rss_mb": round(ref["peak_rss_mb"], 1),
        "fastpath_peak_rss_mb": round(fast["peak_rss_mb"], 1),
        "fastpath_rss_budget_mb": _MEM_RSS_BUDGET_MB,
    }

    def report():
        return row

    benchmark.pedantic(report, rounds=1, iterations=1)
    # memory regression pin (the stencil/bitset work)
    assert fast["peak_rss_mb"] <= _MEM_RSS_BUDGET_MB, row
    # throughput regression pin (measured ~80x on an idle machine)
    assert row["speedup"] >= 20.0, row
    _merge_results("side_1000_memory", row)
    save_table(
        "BENCH_engines_memory",
        [row],
        title="engine backends: side-1000 memory + wall-clock smoke",
    )
