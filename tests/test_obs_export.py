"""Tests for repro.obs.export: deterministic JSONL and metrics summaries.

Pins the export layer's reproducibility contract: a fixed-seed scenario
emits byte-identical JSONL on every run (golden hash), the summary is
JSON-exact (survives a round trip unchanged), and metrics collected under
the parallel sweep executor equal the serial ones row for row.
"""

import hashlib
import json

import pytest

from repro.exec import SweepExecutor, unit_cache_key
from repro.exec.specs import ScenarioSpec
from repro.experiments.scenarios import byzantine_broadcast_scenario
from repro.obs import (
    OBS_SCHEMA_VERSION,
    JsonlRecorder,
    RunMetrics,
    canonical_json,
    metrics_summary,
    validate_event,
    validate_jsonl,
)

#: the golden scenario: fixed-seed Byzantine broadcast, r = t = 1
GOLDEN_KWARGS = dict(r=1, t=1, seed=7, placement="random")
GOLDEN_EVENTS = 643
GOLDEN_JSONL_SHA256 = (
    "4cbcceb64eadd604dba7a70aa309a104a6bd6073ae9ebfa5f211a617e4104c0c"
)
GOLDEN_SUMMARY_SHA256 = (
    "28d7bdcb4ea15955210689f86872b7bc85fe1ea2a02b23b47638d56dc3efd4cb"
)


def record_golden_run(record_deliveries=False):
    """One observed run of the golden scenario."""
    sc = byzantine_broadcast_scenario(**GOLDEN_KWARGS)
    recorder = JsonlRecorder(record_deliveries=record_deliveries)
    metrics = RunMetrics(source=sc.source)
    outcome = sc.run(observers=(recorder, metrics))
    return recorder, metrics, outcome


class TestGoldenJsonl:
    def test_exact_bytes(self):
        recorder, _, _ = record_golden_run()
        text = recorder.dumps()
        assert len(recorder.events) == GOLDEN_EVENTS
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_JSONL_SHA256

    def test_two_runs_byte_identical(self):
        a, _, _ = record_golden_run()
        b, _, _ = record_golden_run()
        assert a.dumps() == b.dumps()

    def test_header_and_trailer(self):
        recorder, _, outcome = record_golden_run()
        head = json.loads(recorder.lines()[0])
        tail = json.loads(recorder.lines()[-1])
        assert head["kind"] == "run_start"
        assert head["schema"] == OBS_SCHEMA_VERSION
        assert head["nodes"] == 49
        assert tail["kind"] == "run_end"
        assert tail["rounds"] == outcome.rounds
        assert tail["transmissions"] == outcome.messages
        assert tail["quiescent"] is True

    def test_round_end_carries_per_round_tx(self):
        recorder, metrics, _ = record_golden_run()
        per_round = {
            e["round"]: e["transmissions"]
            for e in recorder.events
            if e["kind"] == "round_end"
        }
        assert per_round == {
            r: metrics.tx_by_round.get(r, 0) for r in per_round
        }
        assert sum(per_round.values()) == metrics.transmissions

    def test_validates_against_schema(self):
        recorder, _, _ = record_golden_run()
        assert validate_jsonl(recorder.dumps()) == GOLDEN_EVENTS

    def test_deliveries_off_by_default(self):
        recorder, _, _ = record_golden_run()
        assert not any(e["kind"] == "deliver" for e in recorder.events)

    def test_deliveries_recorded_when_enabled(self):
        recorder, metrics, _ = record_golden_run(record_deliveries=True)
        delivers = [e for e in recorder.events if e["kind"] == "deliver"]
        assert len(delivers) == metrics.deliveries
        validate_jsonl(recorder.dumps())

    def test_dump_writes_file(self, tmp_path):
        recorder, _, _ = record_golden_run()
        path = tmp_path / "trace.jsonl"
        count = recorder.dump(path)
        assert count == GOLDEN_EVENTS
        assert path.read_text(encoding="utf-8") == recorder.dumps()


class TestValidate:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            validate_event({"kind": "teleport"})

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="missing keys"):
            validate_event({"kind": "tx", "round": 0})

    def test_header_must_open_document(self):
        with pytest.raises(ValueError, match="run_start header"):
            validate_jsonl('{"kind":"round_start","round":0}\n')

    def test_schema_version_checked(self):
        bad = canonical_json(
            {"kind": "run_start", "schema": 999, "nodes": 1, "topology": "T"}
        )
        with pytest.raises(ValueError, match="unsupported"):
            validate_jsonl(bad + "\n")

    def test_invalid_json_line(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_jsonl("{nope}\n")

    def test_empty_document(self):
        with pytest.raises(ValueError, match="empty"):
            validate_jsonl("")


class TestMetricsSummary:
    def test_json_round_trip_exact(self):
        _, metrics, _ = record_golden_run()
        summary = metrics_summary(metrics)
        assert json.loads(json.dumps(summary)) == summary
        assert summary == metrics.summary()

    def test_golden_summary_hash(self):
        _, metrics, _ = record_golden_run()
        digest = hashlib.sha256(
            canonical_json(metrics_summary(metrics)).encode("utf-8")
        ).hexdigest()
        assert digest == GOLDEN_SUMMARY_SHA256

    def test_shape(self):
        _, metrics, _ = record_golden_run()
        summary = metrics_summary(metrics)
        assert summary["schema"] == OBS_SCHEMA_VERSION
        assert summary["source"] == [0, 0]
        assert summary["transmissions"] == metrics.transmissions
        assert summary["commits"] == len(metrics.commit_round)
        latency = summary["commit_latency"]
        assert latency["min"] <= latency["mean"] <= latency["max"]
        assert sum(n for _, n in latency["histogram"]) == summary["commits"]
        wave = summary["delivery_wavefront_by_round"]
        assert [r for r, _ in wave] == sorted(r for r, _ in wave)
        assert summary["tx_per_node"]["total"] == summary["transmissions"]
        assert summary["rx_per_node"]["total"] == summary["deliveries"]

    def test_empty_metrics_summary(self):
        summary = metrics_summary(RunMetrics())
        assert json.loads(json.dumps(summary)) == summary
        assert summary["commit_latency"]["min"] is None
        assert summary["tx_per_node"] == {
            "nodes": 0, "total": 0, "max": 0, "mean": 0.0, "argmax": None
        }


class TestSweepMetrics:
    SPEC = ScenarioSpec(
        kind="byzantine", r=1, t=1, trials=6, collect_metrics=True
    )

    def test_serial_and_parallel_rows_identical(self):
        serial = SweepExecutor(workers=1).run([self.SPEC], root_seed=7)
        parallel = SweepExecutor(workers=4).run([self.SPEC], root_seed=7)
        assert serial.rows == parallel.rows
        for row in serial.rows[0]:
            summary = row["metrics"]
            assert summary["schema"] == OBS_SCHEMA_VERSION
            assert summary["transmissions"] == row["messages"]
            assert json.loads(json.dumps(summary)) == summary

    def test_metrics_do_not_change_the_simulation(self):
        bare_spec = ScenarioSpec(kind="byzantine", r=1, t=1, trials=6)
        bare = SweepExecutor(workers=1).run([bare_spec], root_seed=7)
        with_metrics = SweepExecutor(workers=1).run([self.SPEC], root_seed=7)
        # collect_metrics adds observation-only keys ("metrics" and the
        # wrong-commit count the adversary objective reads); everything
        # the simulation itself produced must be untouched
        stripped = [
            {
                k: v
                for k, v in row.items()
                if k not in ("metrics", "wrong_commits")
            }
            for row in with_metrics.rows[0]
        ]
        assert stripped == bare.rows[0]

    def test_collect_metrics_excluded_from_scenario_key(self):
        bare_spec = ScenarioSpec(kind="byzantine", r=1, t=1, trials=6)
        assert bare_spec.scenario_key() == self.SPEC.scenario_key()
        # ...but the work-unit cache key must differ (row shapes differ)
        assert unit_cache_key(bare_spec, 7, (0, 1)) != unit_cache_key(
            self.SPEC, 7, (0, 1)
        )
