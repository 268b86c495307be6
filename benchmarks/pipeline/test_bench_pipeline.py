"""Self-test of the pipeline benchmark on shrunk workloads.

Run with ``python -m pytest benchmarks/pipeline -q``.  Each workload's
table is cut to its first two cells and two repetitions, then run
through the real child: one timed and one traced rep per workload (plus
the warm workload's fill), and ``run.py`` in both trace modes.
"""

from __future__ import annotations

import copy
import json

import pytest

import bench
import harness
import run
from tracing import layer_metrics, read_trace

BENCHMARK = harness.load_benchmark()
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def shrunk(tmp_path_factory):
    """Patch ``harness.table_path`` to two-cell, two-repetition tables."""
    tables = tmp_path_factory.mktemp("tables")
    original = harness.table_path
    for name in NAMES:
        table = json.loads(original(name).read_text())
        table["factors"] = {k: v[:2] for k, v in table["factors"].items()}
        table["repetitions"] = 2
        (tables / f"{name}.json").write_text(json.dumps(table))
    patch = pytest.MonkeyPatch()
    patch.setattr(harness, "table_path", lambda name: tables / f"{name}.json")
    patch.setattr(harness, "DEFAULT_OUT", tmp_path_factory.mktemp("out"))
    harness.prepare()
    yield
    patch.undo()


@pytest.fixture(scope="module")
def runs(shrunk):
    return bench.run_all(NAMES, 0, 1, harness.DEFAULT_OUT)


@pytest.fixture(scope="module")
def results(runs):
    return bench.collate(BENCHMARK, runs, 0, 1)


def test_every_metric_is_emitted_with_its_unit(results):
    for metric in BENCHMARK["end_to_end"]:
        assert results["units"][metric["name"]] == metric["unit"]
    for name in NAMES:
        doc = results["workloads"][name]
        assert doc["failed"] == 0, doc["violations"]
        for metric in results["units"]:
            assert doc["metrics"][metric]["n"] >= 1, (name, metric)
        for metric in BENCHMARK["per_layer"]:
            assert metric["name"] in doc["layers"], (name, metric["name"])
        assert all(speed > 0 for speed in doc["host"]["speed"]), name


@pytest.mark.parametrize("trace", [0, 1])
def test_run_py_prints_one_json_result_line(shrunk, capsys, trace):
    code = run.main(["--workload", "rerun-warm", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 1 + run.MIN_REPS + trace
    family = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in family}


def test_every_wrap_target_resolves(results):
    for name in NAMES:
        assert results["workloads"][name]["missing"] == [], name


def test_layers_record_calls_where_the_map_expects_them(results):
    for entry in harness.LAYER_MAP:
        for name in entry["on"]:
            layers = results["workloads"][name]["layers"]
            for metric in entry["layers"]:
                # a recorded span always has a positive duration
                assert layers[metric] > 0, (entry["work"], name, metric)


def test_trace_accounted_counts_only_named_layers(results):
    for name in NAMES:
        assert 0 < results["workloads"][name]["layers"]["trace.accounted"] < 1
    _, spans = read_trace(str(harness.DEFAULT_OUT / "trace-sweep-default-ref.jsonl"))
    report = {"runs": [], "stats": {"units_total": 0}}
    full = layer_metrics(spans, report)["trace.accounted"]
    # as if build_scenario's wrap target had gone missing
    for span in spans:
        if span["name"] == "build":
            span["name"] = "unwrapped"
    assert layer_metrics(spans, report)["trace.accounted"] < full - 0.1


def test_tampered_digest_lands_in_failed_frac(runs):
    tampered = copy.deepcopy(runs)
    tampered["sweep-default-ref"][2]["digest"] = "0" * 64
    results = bench.collate(BENCHMARK, tampered, 0, 1)
    doc = results["workloads"]["sweep-default-ref"]
    assert doc["failed"] == 1
    assert doc["metrics"]["failed_frac"]["median"] == pytest.approx(1 / 2)
    assert any("digest" in m for m in doc["violations"])
    # the fastpath workload must reproduce the reference rows too
    tampered["sweep-default-ref"][1][0]["digest"] = "0" * 64
    tampered["sweep-default-ref"][2]["digest"] = "0" * 64
    results = bench.collate(BENCHMARK, tampered, 0, 1)
    assert results["workloads"]["sweep-default-fast"]["failed"] == 2
