"""Sweep-executor pipeline tests: planning, ordered assembly,
checkpoint-on-complete, and the cross-backend determinism contract.

The acceptance chain: one sweep computed on the serial backend, rerun
on the pool backend after its store was demoted to the legacy flat
layout -- the rerun is a 100% cache hit with byte-identical rows.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.exec import (
    ResultCache,
    ScenarioSpec,
    SweepExecutor,
    derive_seed,
    plan_units,
    run_trial,
)
from repro.exec.backends import (
    BackendError,
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
)
from repro.exec.cache import SHARD_DIR

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


def _demote_to_flat(cache):
    """Rewrite a sharded cache into the legacy flat layout in place."""
    for path in list((cache.root / SHARD_DIR).glob("??/*.json")):
        os.replace(path, cache.root / path.name)
    for shard in list((cache.root / SHARD_DIR).glob("??")):
        shard.rmdir()


class ReversingBackend(ExecutionBackend):
    """Completes units in reverse submission order."""

    name = "reversing"

    def run_units(self, fn, payloads):
        """Yield (index, rows) last-submitted-first."""
        for index in reversed(range(len(payloads))):
            yield index, fn(payloads[index])


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


class TestOrderedFinalization:
    def test_units_finalize_in_plan_order(self):
        """Whatever order the backend completes in, rows come out in
        plan order: row i is trial i."""
        result = SweepExecutor(chunk_size=2, backend=ReversingBackend()).run(
            [CRASH], root_seed=1
        )
        key = CRASH.scenario_key()
        assert result.rows[0] == [
            run_trial(CRASH, derive_seed(1, key, index))
            for index in range(CRASH.trials)
        ]

    def test_reversed_completion_rows_match_serial(self):
        reference = SweepExecutor(chunk_size=2, backend=SerialBackend()).run(
            [CRASH, BYZ], root_seed=3
        )
        reversed_run = SweepExecutor(
            chunk_size=2, backend=ReversingBackend()
        ).run([CRASH, BYZ], root_seed=3)
        assert canonical(reversed_run.rows) == canonical(reference.rows)

    def test_incomplete_backend_raises(self):
        class LossyBackend(ExecutionBackend):
            """Silently drops the last unit (contract violation)."""

            name = "lossy"

            def run_units(self, fn, payloads):
                """Yield all but the final payload's result."""
                for index in range(len(payloads) - 1):
                    yield index, fn(payloads[index])

        executor = SweepExecutor(chunk_size=2, backend=LossyBackend())
        with pytest.raises(BackendError, match="without completing"):
            executor.run([CRASH], root_seed=0)


class TestCheckpointing:
    def test_completions_banked_immediately(self, tmp_path):
        """Every completed unit is on disk before the sweep ends -- an
        interrupt after unit k keeps units 0..k."""

        class InterruptedBackend(ExecutionBackend):
            """Completes one unit, then the sweep is interrupted."""

            name = "interrupted"

            def run_units(self, fn, payloads):
                """Yield the first unit's rows, then raise."""
                yield 0, fn(payloads[0])
                raise KeyboardInterrupt

        cache = ResultCache(tmp_path)
        executor = SweepExecutor(
            cache=cache, chunk_size=2, backend=InterruptedBackend()
        )
        with pytest.raises(KeyboardInterrupt):
            executor.run([CRASH], root_seed=0)
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
        total = cold + warm
        assert total.units_total == 6
        assert total.trials_computed == CRASH.trials


class TestCrossBackendChain:
    """The acceptance criterion: serial -> pool, one shared store, the
    rerun 100% hits and byte-identical -- straight through a
    flat->sharded migration."""

    def test_serial_pool_all_hit_identically(self, tmp_path):
        specs = [CRASH, BYZ]
        cache = ResultCache(tmp_path / "store")

        serial = SweepExecutor(
            cache=cache, chunk_size=2, backend=SerialBackend()
        ).run(specs, root_seed=5)
        assert serial.stats.cache_misses == serial.stats.units_total
        baseline = canonical(serial.rows)

        # demote the entire store to the legacy flat layout: the pool
        # rerun must migrate it back transparently, at 100% hits
        _demote_to_flat(cache)
        pooled = SweepExecutor(
            cache=cache, chunk_size=2, backend=PoolBackend(workers=2)
        ).run(specs, root_seed=5)
        assert pooled.stats.cache_hits == pooled.stats.units_total
        assert canonical(pooled.rows) == baseline


class TestExecutorFacade:
    """SweepExecutor runs on a backend instance it is handed."""

    def test_backend_instance_override(self):
        remote = SweepExecutor(backend=ReversingBackend()).run(
            [CRASH], root_seed=2
        )
        local = SweepExecutor().run([CRASH], root_seed=2)
        assert canonical(remote.rows) == canonical(local.rows)
        assert remote.stats.workers == 1
