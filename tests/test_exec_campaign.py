"""Sweep-executor pipeline tests: planning, ordered assembly,
checkpoint-on-complete, and the cross-worker determinism contract.

The acceptance chain: one sweep computed in-process, rerun on a
two-worker pool over the same store -- the rerun is a 100% cache hit
with byte-identical rows.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.exec import (
    ResultCache,
    ScenarioSpec,
    SweepExecutor,
    derive_seed,
    plan_units,
    run_trial,
    unit_cache_key,
)
from repro.exec import executor as executor_module

CRASH = ScenarioSpec(kind="crash", r=1, t=1, trials=6, protocol="crash-flood")
BYZ = ScenarioSpec(
    kind="byzantine",
    r=1,
    t=1,
    trials=4,
    protocol="bv-two-hop",
    strategy="fabricator",
)


def canonical(rows):
    """Byte form used for identity assertions."""
    return json.dumps(rows, sort_keys=True).encode()


def _reversed_units(tasks, workers):
    """Completes units in reverse submission order."""
    for task in reversed(tasks):
        yield executor_module._run_unit(task)


class TestPlanning:
    def test_plan_order_is_spec_then_trial(self):
        units = plan_units([CRASH, BYZ], root_seed=0, chunk_size=4)
        assert [(u.spec_index, u.indices) for u in units] == [
            (0, (0, 1, 2, 3)),
            (0, (4, 5)),
            (1, (0, 1, 2, 3)),
        ]

    def test_plan_keys_are_stable(self):
        a = plan_units([CRASH], 7, chunk_size=2)
        b = plan_units([CRASH], 7, chunk_size=2)
        assert [u.key for u in a] == [u.key for u in b]

    @pytest.mark.parametrize(
        "collect_metrics, first, last",
        [
            (
                False,
                "6d48eeeb8e726459b1fd89dd737dced61bf5d06c5ef96932bb9f1cc5c07d2acd",
                "f14e5474e1bfacfc6a02157db4957414ea4c2193f11f71c692c3dc09c52860ce",
            ),
            (
                True,
                "cfe438f9d10aec75cf1326145fcd9900fa436271b42180fd7c9ffa03ac43dcb7",
                "9dd3f75b9bdd06e42212c43fbcf0a1bc64f145f6bc41c157923c38ee8ef9f100",
            ),
        ],
        ids=["rows", "metrics"],
    )
    def test_plan_keys_are_pinned(self, collect_metrics, first, last):
        """The t=0 cell of the default r=2 crash table at seed 4242: a
        key that moves orphans every cache entry banked under it."""
        spec = ScenarioSpec(
            kind="crash", r=2, t=0, trials=16, protocol="crash-flood",
            placement="random", collect_metrics=collect_metrics,
        )
        units = plan_units([spec], 4242)
        assert [u.indices for u in (units[0], units[-1])] == [
            (0, 1, 2, 3), (12, 13, 14, 15),
        ]
        assert (units[0].key, units[-1].key) == (first, last)

    @pytest.mark.parametrize("collect_metrics", [False, True])
    def test_plan_keys_equal_unit_cache_key(self, collect_metrics):
        specs = [
            dataclasses.replace(spec, collect_metrics=collect_metrics)
            for spec in (CRASH, BYZ)
        ]
        units = plan_units(specs, 11, chunk_size=4)
        assert [u.key for u in units] == [
            unit_cache_key(specs[u.spec_index], 11, u.indices)
            for u in units
        ]


class TestOrderedFinalization:
    def test_units_finalize_in_plan_order(self, monkeypatch):
        """Whatever order the units complete in, rows come out in plan
        order: row i is trial i."""
        monkeypatch.setattr(executor_module, "_compute_units", _reversed_units)
        result = SweepExecutor(chunk_size=2).run([CRASH], root_seed=1)
        key = CRASH.scenario_key()
        assert result.rows[0] == [
            run_trial(CRASH, derive_seed(1, key, index))
            for index in range(CRASH.trials)
        ]

    def test_reversed_completion_rows_match_serial(self, monkeypatch):
        reference = SweepExecutor(chunk_size=2).run([CRASH, BYZ], root_seed=3)
        monkeypatch.setattr(executor_module, "_compute_units", _reversed_units)
        reversed_run = SweepExecutor(chunk_size=2).run(
            [CRASH, BYZ], root_seed=3
        )
        assert canonical(reversed_run.rows) == canonical(reference.rows)


class TestCheckpointing:
    def test_completions_banked_immediately(self, tmp_path, monkeypatch):
        """Every completed unit is on disk before the sweep ends -- an
        interrupt after unit k keeps units 0..k."""

        def interrupted(tasks, workers):
            """Complete the first unit, then interrupt the sweep."""
            yield executor_module._run_unit(tasks[0])
            raise KeyboardInterrupt

        monkeypatch.setattr(executor_module, "_compute_units", interrupted)
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(cache=cache, chunk_size=2).run([CRASH], root_seed=0)
        # the rerun reuses the banked unit
        stats_probe = SweepExecutor(cache=cache, chunk_size=2)
        assert stats_probe.checkpointed([CRASH], root_seed=0) == (1, 3)

    def test_counters_accumulate(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache, chunk_size=2)
        cold = executor.run([CRASH], root_seed=0).stats
        warm = executor.run([CRASH], root_seed=0).stats
        assert (cold.cache_misses, cold.cache_hits) == (3, 0)
        assert (warm.cache_misses, warm.cache_hits) == (0, 3)
        assert cold.units_total + warm.units_total == 6
        assert cold.trials_computed + warm.trials_computed == CRASH.trials


class TestCrossBackendChain:
    """The acceptance criterion: in-process -> pool, one shared store,
    the rerun 100% hits and byte-identical."""

    def test_serial_pool_all_hit_identically(self, tmp_path):
        specs = [CRASH, BYZ]
        cache = ResultCache(tmp_path / "store")

        serial = SweepExecutor(cache=cache, chunk_size=2).run(
            specs, root_seed=5
        )
        assert serial.stats.cache_misses == serial.stats.units_total
        baseline = canonical(serial.rows)

        pooled = SweepExecutor(workers=2, cache=cache, chunk_size=2).run(
            specs, root_seed=5
        )
        assert pooled.stats.cache_hits == pooled.stats.units_total
        assert canonical(pooled.rows) == baseline
