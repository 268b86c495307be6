"""Tests for repro.exec.cache: hit/miss, invalidation, corruption
recovery (truncated, empty, undecodable and garbled entries are misses),
the sharded layout (pre-shard flat entries are never read), the entry
format (compact canonical JSON; ``indent=0`` entries of earlier versions
still hit), writes that stage through a temp file and ``os.replace``
without forcing anything to disk, concurrent writers, and the
--no-cache bypass."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    ResultCache,
    ScenarioSpec,
    SweepExecutor,
    code_version_tag,
    content_key,
    unit_cache_key,
)

ROWS = [{"achieved": True, "safe": True, "rounds": 3}]


@pytest.fixture
def cache(tmp_path):
    """A fresh cache rooted in the test's temp directory."""
    return ResultCache(tmp_path / "cache")


class TestHitMiss:
    def test_miss_on_empty_cache(self, cache):
        assert cache.get("0" * 64) is None
        assert not cache.contains("0" * 64)

    def test_put_then_hit(self, cache):
        key = content_key({"x": 1})
        cache.put(key, ROWS)
        assert cache.get(key) == ROWS
        assert cache.contains(key)
        assert len(cache) == 1

    def test_distinct_keys_do_not_alias(self, cache):
        cache.put(content_key({"x": 1}), ROWS)
        assert cache.get(content_key({"x": 2})) is None

    def test_put_is_atomic_no_tmp_left_behind(self, cache):
        cache.put(content_key({"x": 1}), ROWS)
        assert not list(cache.root.rglob("*.tmp"))

    def test_entries_land_in_their_shard(self, cache):
        key = content_key({"x": 1})
        path = cache.put(key, ROWS)
        assert path == cache.root / "shards" / key[:2] / f"{key}.json"
        assert path.exists()


class TestInvalidation:
    SPEC = ScenarioSpec(kind="byzantine", r=1, t=1, trials=4)

    def test_param_change_changes_key(self):
        base = unit_cache_key(self.SPEC, 0, (0, 1))
        for changed in (
            ScenarioSpec(kind="byzantine", r=1, t=2, trials=4),
            ScenarioSpec(kind="byzantine", r=2, t=1, trials=4),
            ScenarioSpec(kind="byzantine", r=1, t=1, trials=4, strategy="liar"),
            ScenarioSpec(kind="byzantine", r=1, t=1, trials=4, max_rounds=99),
            ScenarioSpec(kind="crash", r=1, t=1, trials=4),
        ):
            assert unit_cache_key(changed, 0, (0, 1)) != base

    def test_root_seed_and_indices_change_key(self):
        base = unit_cache_key(self.SPEC, 0, (0, 1))
        assert unit_cache_key(self.SPEC, 1, (0, 1)) != base
        assert unit_cache_key(self.SPEC, 0, (2, 3)) != base

    def test_trials_alone_does_not_change_key(self):
        """Extending a sweep's trial count must reuse existing units:
        identity is (scenario, seed, indices), not the trial total."""
        more = ScenarioSpec(kind="byzantine", r=1, t=1, trials=40)
        assert unit_cache_key(more, 0, (0, 1)) == unit_cache_key(
            self.SPEC, 0, (0, 1)
        )

    def test_code_version_in_key(self, monkeypatch):
        base = unit_cache_key(self.SPEC, 0, (0, 1))
        monkeypatch.setattr(
            "repro.exec.campaign.code_version_tag", lambda: "other-version"
        )
        assert unit_cache_key(self.SPEC, 0, (0, 1)) != base

    def test_stale_entry_invisible_after_param_change(self, cache):
        """End to end: cached results for one budget are never returned
        for another (the key embeds the scenario)."""
        executor = SweepExecutor(cache=cache)
        first = executor.run(
            [ScenarioSpec(kind="crash", r=1, t=1, trials=2,
                          protocol="crash-flood")]
        )
        changed = executor.run(
            [ScenarioSpec(kind="crash", r=1, t=2, trials=2,
                          protocol="crash-flood")]
        )
        assert changed.stats.cache_hits == 0
        assert first.rows != [] and changed.rows != []


class TestCorruptionRecovery:
    def test_truncated_json_is_a_miss_and_removed(self, cache):
        key = content_key({"x": 1})
        path = cache.put(key, ROWS)
        path.write_text('{"key": "' + key + '", "rows": [{"a"')
        assert cache.get(key) is None
        assert not path.exists()

    def test_wrong_embedded_key_rejected(self, cache):
        key = content_key({"x": 1})
        path = cache.put(key, ROWS)
        blob = json.loads(path.read_text())
        blob["key"] = "f" * 64
        path.write_text(json.dumps(blob))
        assert cache.get(key) is None

    def test_schema_violation_rejected(self, cache):
        key = content_key({"x": 1})
        path = cache.put(key, ROWS)
        path.write_text(json.dumps({"key": key, "rows": "not-a-list"}))
        assert cache.get(key) is None

    def test_undecodable_entry_is_a_miss_and_removed(self, cache):
        """Bytes that are not UTF-8 are corruption like any other, not
        an exception out of ``get``."""
        key = content_key({"x": 1})
        path = cache.put(key, ROWS)
        path.write_bytes(b"\xff\xfe")
        assert cache.get(key) is None
        assert not path.exists()

    def test_non_object_entry_is_a_miss_and_removed(self, cache):
        key = content_key({"x": 1})
        path = cache.put(key, ROWS)
        path.write_text("[]")
        assert cache.get(key) is None
        assert not path.exists()

    def test_executor_recomputes_over_undecodable_entry(self, cache):
        """The sweep survives an undecodable entry: it recomputes the
        unit to equal rows and banks it again."""
        spec = ScenarioSpec(
            kind="crash", r=1, t=1, trials=2, protocol="crash-flood"
        )
        executor = SweepExecutor(cache=cache)
        clean = executor.run([spec])
        (victim,) = list(cache.entry_paths())
        blob = victim.read_bytes()
        victim.write_bytes(b"\xff\xfe")
        recovered = executor.run([spec])
        assert recovered.stats.cache_misses == 1
        assert recovered.rows == clean.rows
        assert victim.read_bytes() == blob
        assert executor.run([spec]).stats.cache_hits == 1

    def test_executor_recomputes_over_corrupt_entry(self, cache):
        """A corrupted work-unit file must fall back to recompute --
        same rows, no crash."""
        spec = ScenarioSpec(
            kind="crash", r=1, t=1, trials=2, protocol="crash-flood"
        )
        executor = SweepExecutor(cache=cache)
        clean = executor.run([spec])
        assert clean.stats.cache_misses == 1
        for path in list(cache.entry_paths()):
            path.write_text("garbage{{{")
        recovered = executor.run([spec])
        assert recovered.stats.cache_hits == 0
        assert recovered.stats.cache_misses == 1
        assert recovered.rows == clean.rows
        # and the recompute re-banked a valid entry
        assert executor.run([spec]).stats.cache_hits == 1


class TestFlatLayoutIgnored:
    def test_flat_entry_misses_and_is_recomputed_into_its_shard(
        self, cache
    ):
        """A valid entry at the pre-shard flat path predates row changes
        its key cannot tell apart, so it is never served: ``get``
        misses, the sweep recomputes the unit into its shard, and
        ``len()`` counts shard entries only."""
        spec = ScenarioSpec(
            kind="crash", r=1, t=1, trials=2, protocol="crash-flood"
        )
        key = unit_cache_key(spec, 0, (0, 1))
        stale = ROWS * 2  # one row per trial index, as a hit needs
        cache.put(key, stale)
        flat = cache.root / f"{key}.json"
        os.replace(cache.path_for(key), flat)
        assert cache.get(key) is None
        assert len(cache) == 0

        run = SweepExecutor(cache=cache).run([spec])
        assert run.stats.cache_misses == run.stats.units_total == 1
        assert run.rows[0] != stale
        assert cache.get(key) == run.rows[0]
        assert cache.path_for(key).exists() and flat.exists()
        assert len(cache) == 1


class TestDurability:
    def test_truncated_entry_mid_write_recomputes_cleanly(self, cache):
        """Crash injection: tear a unit file mid-write (truncate it) and
        assert the executor recomputes the unit cleanly -- same rows,
        torn file replaced by a valid one."""
        spec = ScenarioSpec(
            kind="crash", r=1, t=1, trials=2, protocol="crash-flood"
        )
        executor = SweepExecutor(cache=cache)
        clean = executor.run([spec])
        (victim,) = list(cache.entry_paths())
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])  # torn write
        recovered = executor.run([spec])
        assert recovered.stats.cache_hits == 0
        assert recovered.stats.cache_misses == 1
        assert recovered.rows == clean.rows
        # the recompute re-banked a valid, byte-identical entry
        assert executor.run([spec]).stats.cache_hits == 1
        assert victim.read_bytes() == blob

    def test_zero_length_entry_is_a_miss_and_rewritten(self, cache):
        """An OS crash before the page cache reached the disk can leave
        an empty entry: it misses, is removed, and the next sweep writes
        it again with equal rows."""
        spec = ScenarioSpec(
            kind="crash", r=1, t=1, trials=2, protocol="crash-flood"
        )
        executor = SweepExecutor(cache=cache)
        clean = executor.run([spec])
        (victim,) = list(cache.entry_paths())
        blob = victim.read_bytes()
        victim.write_bytes(b"")
        key = unit_cache_key(spec, 0, (0, 1))
        assert cache.get(key) is None
        assert not victim.exists()
        recovered = executor.run([spec])
        assert recovered.stats.cache_misses == 1
        assert recovered.rows == clean.rows
        assert victim.read_bytes() == blob

    def test_put_never_forces_to_disk(self, cache, monkeypatch):
        """The cache is a memo: ``put`` stages and renames, never
        fsyncs."""

        def refuse(fd):
            raise AssertionError("put called os.fsync")

        monkeypatch.setattr(os, "fsync", refuse)
        key = content_key({"x": 1})
        cache.put(key, ROWS)
        assert cache.get(key) == ROWS

    def test_torn_tmp_file_never_shadows_the_entry(self, cache):
        """A crash between staging and rename leaves only a ``.tmp``
        file; reads miss and the next put overwrites it."""
        key = content_key({"x": 1})
        cache.shard_for(key).mkdir(parents=True)
        tmp = cache.path_for(key).with_suffix(f".json.{os.getpid()}.tmp")
        tmp.write_text('{"key": "' + key + '", "rows": [{"a"')
        assert cache.get(key) is None
        cache.put(key, ROWS)
        assert cache.get(key) == ROWS
        assert not tmp.exists()


class TestEntryFormat:
    def test_entry_is_compact_canonical_json(self, cache):
        key = content_key({"x": 1})
        meta = {"root_seed": 3, "indices": [0]}
        blob = {
            "key": key,
            "code_version": code_version_tag(),
            "meta": meta,
            "rows": ROWS,
        }
        path = cache.put(key, ROWS, meta=meta)
        assert path.read_bytes() == json.dumps(
            blob, sort_keys=True, separators=(",", ":")
        ).encode()

    def test_indented_entry_of_earlier_versions_still_hits(self, cache):
        """Entries written with ``indent=0``, the layout before compact
        entries, parse to the same blob: a cache warmed then keeps
        serving."""
        spec = ScenarioSpec(
            kind="crash", r=1, t=1, trials=2, protocol="crash-flood"
        )
        executor = SweepExecutor(cache=cache)
        clean = executor.run([spec])
        (entry,) = list(cache.entry_paths())
        blob = json.loads(entry.read_bytes())
        entry.write_text(json.dumps(blob, sort_keys=True, indent=0))
        key = unit_cache_key(spec, 0, (0, 1))
        assert cache.get(key) == clean.rows[0]
        warm = executor.run([spec])
        assert warm.stats.cache_hits == 1
        assert warm.rows == clean.rows


def _race_put(args):
    """Worker for the concurrent-writer race (module-level: fork/pickle)."""
    root, key, rows, barrier = args
    cache = ResultCache(root)
    barrier.wait()  # line both writers up on the same key
    cache.put(key, rows)


class TestConcurrentWriters:
    @settings(max_examples=5, deadline=None)
    @given(
        rows=st.lists(
            st.dictionaries(
                st.sampled_from(["achieved", "rounds", "messages"]),
                st.integers(min_value=0, max_value=99),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_racing_writers_leave_a_serial_byte_identical_file(
        self, tmp_path_factory, rows
    ):
        """Two processes racing ``put`` on one key must leave exactly
        the file a serial write would have left, byte for byte."""
        base = tmp_path_factory.mktemp("race")
        key = content_key({"rows": rows})
        serial = ResultCache(base / "serial")
        expected = serial.put(key, rows).read_bytes()

        racy = ResultCache(base / "racy")
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_race_put, args=((racy.root, key, rows, barrier),)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        assert racy.path_for(key).read_bytes() == expected
        assert racy.get(key) == rows


class TestBypass:
    def test_cacheless_executor_writes_nothing(self, tmp_path):
        spec = ScenarioSpec(
            kind="crash", r=1, t=1, trials=2, protocol="crash-flood"
        )
        result = SweepExecutor(cache=None).run([spec])
        assert result.stats.cache_enabled is False
        assert result.stats.cache_hits == 0
        assert list(tmp_path.iterdir()) == []

    def test_cli_no_cache_bypasses(self, tmp_path, monkeypatch, capsys):
        """``repro sweep --no-cache`` must neither read nor write the
        cache directory."""
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        args = [
            "sweep", "crash", "--r", "1", "--budgets", "0", "--trials", "1",
            "--cache-dir", str(cache_dir),
        ]
        assert main(args + ["--no-cache"]) == 0
        assert not cache_dir.exists()
        assert main(args) == 0  # cached run populates it
        assert cache_dir.exists()
        assert len(list(cache_dir.rglob("*.json"))) == 1
        before = {p: p.read_bytes() for p in cache_dir.rglob("*.json")}
        assert main(args + ["--no-cache"]) == 0
        after = {p: p.read_bytes() for p in cache_dir.rglob("*.json")}
        assert before == after

    def test_cli_resume_requires_cache(self, capsys):
        from repro.cli import main

        code = main(
            ["sweep", "crash", "--r", "1", "--budgets", "0",
             "--trials", "1", "--no-cache", "--resume"]
        )
        assert code == 2
        assert "--no-cache" in capsys.readouterr().err
