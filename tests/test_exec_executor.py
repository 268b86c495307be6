"""Tests for repro.exec.executor: chunking, stats, serial fallback,
checkpoint/resume accounting."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    ResultCache,
    ScenarioSpec,
    SweepExecutor,
    run_trial,
    derive_seed,
)

CRASH = ScenarioSpec(kind="crash", r=1, t=1, trials=5, protocol="crash-flood")


class TestConfiguration:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="workers"):
            SweepExecutor(workers=0)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            SweepExecutor(chunk_size=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ScenarioSpec(kind="gremlin", r=1, t=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigurationError, match="trials"):
            ScenarioSpec(kind="crash", r=1, t=1, trials=0)


class TestChunking:
    def test_unit_count_follows_chunk_size(self):
        executor = SweepExecutor(chunk_size=2)
        result = executor.run([CRASH])  # 5 trials -> 3 units (2+2+1)
        assert result.stats.units_total == 3
        assert result.stats.trials_total == 5
        assert result.stats.trials_computed == 5
        assert len(result.rows[0]) == 5

    def test_chunk_size_does_not_change_rows(self):
        fine = SweepExecutor(chunk_size=1).run([CRASH])
        coarse = SweepExecutor(chunk_size=64).run([CRASH])
        assert fine.rows == coarse.rows

    def test_rows_are_trial_index_ordered(self):
        """Row i of the output is exactly run_trial(spec, seed_i)."""
        result = SweepExecutor(chunk_size=2).run([CRASH], root_seed=3)
        key = CRASH.scenario_key()
        expected = [
            run_trial(CRASH, derive_seed(3, key, i))
            for i in range(CRASH.trials)
        ]
        assert result.rows[0] == expected


class TestStats:
    def test_wall_clock_recorded(self):
        result = SweepExecutor().run([CRASH])
        assert result.stats.wall_clock_s > 0

    def test_hit_fraction_empty_run(self):
        result = SweepExecutor().run([])
        assert result.stats.units_total == 0
        assert result.stats.hit_fraction == 0.0
        assert result.rows == []

    def test_as_dict_shape(self):
        stats = SweepExecutor().run([CRASH]).stats.as_dict()
        assert set(stats) == {
            "workers",
            "units_total",
            "cache_hits",
            "cache_misses",
            "hit_fraction",
            "trials_total",
            "trials_computed",
            "wall_clock_s",
            "cache_enabled",
        }


class TestResume:
    def test_checkpointed_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache, chunk_size=2)
        assert executor.checkpointed([CRASH]) == (0, 3)
        executor.run([CRASH])
        assert executor.checkpointed([CRASH]) == (3, 3)
        # no cache -> nothing checkpointed (default chunk_size=4 -> 2 units)
        assert SweepExecutor(cache=None).checkpointed([CRASH]) == (0, 2)

    def test_interrupted_run_resumes_partially(self, tmp_path):
        """Simulate an interruption by deleting one completed unit: the
        rerun recomputes only that unit and reproduces identical rows."""
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache, chunk_size=2)
        full = executor.run([CRASH])
        victim = sorted(cache.entry_paths())[0]
        victim.unlink()
        resumed = executor.run([CRASH])
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.cache_misses == 1
        assert resumed.rows == full.rows


class TestParallel:
    def test_parallel_equals_serial_crash(self):
        serial = SweepExecutor(workers=1, chunk_size=1).run([CRASH])
        parallel = SweepExecutor(workers=4, chunk_size=1).run([CRASH])
        assert parallel.rows == serial.rows
        assert parallel.stats.workers == 4

    def test_parallel_pool_not_spawned_for_single_unit(self):
        """One pending unit short-circuits to the serial path (no pool
        startup cost); the rows are the same either way."""
        one = ScenarioSpec(
            kind="crash", r=1, t=1, trials=2, protocol="crash-flood"
        )
        a = SweepExecutor(workers=8, chunk_size=4).run([one])
        b = SweepExecutor(workers=1, chunk_size=4).run([one])
        assert a.rows == b.rows
