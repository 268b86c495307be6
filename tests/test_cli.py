"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.protocol == "bv-two-hop"
        assert args.r == 2 and args.t == 4

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--protocol", "gossip"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "byzantine"])
        assert args.r == 1 and args.trials == 8 and args.workers == 1
        assert not args.no_cache and not args.resume

    def test_sweep_requires_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "quantum"])

    @pytest.mark.parametrize("command", ["serve", "worker"])
    def test_serving_tier_is_gone(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter that imports ``repro.cli`` has
    loaded ``module``."""
    env = dict(os.environ)
    src_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    )
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH", "")) if p
    )
    program = f"import sys, repro.cli\nprint({module!r} in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout == "True\n"


class TestStartup:
    def test_import_leaves_multiprocessing_unloaded(self):
        """Only a sweep on more than one worker needs a pool, so a fresh
        interpreter that imports the CLI has not loaded
        ``multiprocessing``."""
        assert not _loaded_by_cli_import("multiprocessing")

    def test_import_leaves_numpy_unloaded(self):
        """Only the fastpath engine needs numpy, and it is imported when
        a fastpath scenario first runs: its import costs tens of
        milliseconds, which every command would pay at start-up."""
        assert not _loaded_by_cli_import("numpy")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "EXP-THM1" in out
        assert "Table I" in out

    def test_thresholds(self, capsys):
        assert main(["thresholds", "--radii", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "byz_linf_max_t" in out

    def test_run_analytic_experiment(self, capsys):
        assert main(["run", "EXP-F1_3", "--radii", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "partition_ok" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "EXP-UNKNOWN"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_end_to_end_json_report(self, capsys, tmp_path):
        """A tiny sweep writes a JSON report with points + exec stats,
        and an identical rerun is served entirely from the cache."""
        import json

        report = tmp_path / "report.json"
        args = [
            "sweep", "crash", "--r", "1", "--budgets", "0", "1",
            "--trials", "2", "--cache-dir", str(tmp_path / "cache"),
            "--json", str(report),
        ]
        assert main(args) == 0
        first = json.loads(report.read_text())
        assert [p["t"] for p in first["points"]] == [0, 1]
        assert first["stats"]["cache_misses"] == first["stats"]["units_total"]
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2/2 work units already checkpointed" in out
        second = json.loads(report.read_text())
        assert second["points"] == first["points"]
        assert second["stats"]["cache_hits"] == second["stats"]["units_total"]
        assert second["stats"]["cache_misses"] == 0

    def test_crash_sweep_runs_the_named_protocol(self, tmp_path):
        """``--protocol`` is honoured for crash sweeps too: a CPA crash
        sweep computes different cells than the crash-flood default."""
        import json

        def points(*extra):
            report = tmp_path / "report.json"
            assert main([
                "sweep", "crash", "--r", "1", "--budgets", "2",
                "--trials", "2", "--no-cache", "--json", str(report),
                *extra,
            ]) == 0
            return json.loads(report.read_text())

        flood = points()
        cpa = points("--protocol", "cpa")
        assert (flood["protocol"], cpa["protocol"]) == ("crash-flood", "cpa")
        assert flood["points"] != cpa["points"]

    def test_runtable_refuses_unknown_scenario_kwargs(
        self, capsys, tmp_path
    ):
        """An unknown builder keyword is a configuration error (status
        2) at ``--expand-only``, not a traceback mid-run."""
        import json

        table = tmp_path / "table.json"
        table.write_text(json.dumps({
            "base": {
                "kind": "crash", "r": 1, "t": 1, "protocol": "crash-flood",
                "placement": "random",
                "scenario_kwargs": {"channel": "lossy"},
            },
        }))
        for extra in (["--expand-only"], ["--no-cache"]):
            assert main(["runtable", str(table), *extra]) == 2
            assert "'channel'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario_kwargs, named",
        [
            ("abc", "base.scenario_kwargs"),
            ({"torus_side": 7.5}, "'torus_side'"),
            ({"staggered_max_round": -1}, "'staggered_max_round'"),
        ],
        ids=["not-an-object", "fractional-side", "negative-round"],
    )
    def test_runtable_refuses_bad_scenario_kwargs_values(
        self, capsys, tmp_path, scenario_kwargs, named
    ):
        """A ``scenario_kwargs`` that is not an object, or an integer
        keyword with a value the builder cannot take, is a
        configuration error (status 2) at ``--expand-only``."""
        import json

        table = tmp_path / "table.json"
        table.write_text(json.dumps({
            "base": {
                "kind": "crash", "r": 1, "t": 1, "protocol": "crash-flood",
                "placement": "random", "scenario_kwargs": scenario_kwargs,
            },
        }))
        assert main(["runtable", str(table), "--expand-only"]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario_kwargs, named",
        [
            ({"locality_filter": "no"}, "'locality_filter' must be a bool"),
            ({"max_relays": 4}, "max_relays must be in 1..3, got 4"),
            ({"max_relays": 0}, "max_relays must be in 1..3, got 0"),
        ],
        ids=["string-switch", "too-many-relays", "no-relays"],
    )
    def test_runtable_refuses_bad_protocol_keywords(
        self, capsys, tmp_path, scenario_kwargs, named
    ):
        """A protocol keyword's value is checked at ``--expand-only``
        (status 2): a ``bool`` keyword takes only a ``bool``, and the
        protocol constructor's range check runs before any cell."""
        import json

        table = tmp_path / "table.json"
        table.write_text(json.dumps({
            "base": {
                "kind": "byzantine", "r": 1, "t": 1,
                "protocol": "bv-indirect", "strategy": "liar",
                "placement": "random", "scenario_kwargs": scenario_kwargs,
            },
        }))
        assert main(["runtable", str(table), "--expand-only"]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert repr(next(iter(scenario_kwargs.values()))) in err

    def test_sweep_has_no_channel_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "crash", "--channel", "lossy", "--budgets", "0",
                "--trials", "1", "--no-cache",
            ])
        assert exc.value.code == 2
        assert "--channel" in capsys.readouterr().err

    def test_sweep_refuses_fastpath_byzantine_by_name(self, capsys):
        code = main([
            "sweep", "byzantine", "--r", "1", "--budgets", "0",
            "--trials", "1", "--engine", "fastpath", "--no-cache",
        ])
        assert code == 2
        assert "no Byzantine-capable fastpath kernel" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, reason",
        [
            # the default Byzantine protocol is bv-two-hop
            ((), "protocol 'bv-two-hop' has no Byzantine-capable fastpath"),
            (
                ("--protocol", "cpa", "--byz-strategy", "noise"),
                "Byzantine strategy 'noise' runs arbitrary node code",
            ),
        ],
    )
    def test_adversary_refuses_fastpath_byzantine_through_the_spec(
        self, capsys, extra, reason
    ):
        code = main([
            "adversary", "byzantine", "--r", "1", "--t", "1",
            "--budget", "1", "--engine", "fastpath", "--no-cache", *extra,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith('repro adversary: engine="fastpath" cannot')
        assert reason in err

    def test_demo_safe_run_exit_zero(self, capsys):
        code = main(
            [
                "demo",
                "--r",
                "1",
                "--t",
                "1",
                "--protocol",
                "cpa",
                "--strategy",
                "liar",
                "--map",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved" in out
        assert "S" in out  # the map was printed


class TestTraceParser:
    def test_defaults(self):
        args = build_parser().parse_args(["trace", "byzantine"])
        assert args.kind == "byzantine"
        assert args.r == 2 and args.t == 2 and args.seed == 0
        assert args.strategy == "fabricator"
        assert args.placement == "random"
        assert args.jsonl is None and args.summary is None
        assert not args.deliveries and not args.profile

    def test_requires_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "quantum"])


class TestTraceCommand:
    ARGS = ["trace", "byzantine", "--r", "1", "--t", "1", "--seed", "7"]

    def test_prints_tables(self, capsys):
        assert main(list(self.ARGS)) == 0
        out = capsys.readouterr().out
        assert "outcome" in out
        assert "wave front from source (0, 0)" in out
        assert "commit latency" in out

    def test_jsonl_byte_identical_across_runs(self, tmp_path, capsys):
        """The acceptance bar: same seed, two invocations, exact bytes."""
        paths = [tmp_path / n for n in ("a.jsonl", "b.jsonl")]
        summaries = [tmp_path / n for n in ("a.json", "b.json")]
        for jsonl, summary in zip(paths, summaries):
            assert (
                main(
                    list(self.ARGS)
                    + ["--jsonl", str(jsonl), "--summary", str(summary)]
                )
                == 0
            )
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert summaries[0].read_bytes() == summaries[1].read_bytes()

    def test_jsonl_validates(self, tmp_path, capsys):
        from repro.obs import OBS_SCHEMA_VERSION, validate_jsonl

        jsonl = tmp_path / "t.jsonl"
        summary = tmp_path / "t.json"
        assert (
            main(
                list(self.ARGS)
                + ["--jsonl", str(jsonl), "--summary", str(summary)]
            )
            == 0
        )
        capsys.readouterr()
        count = validate_jsonl(jsonl.read_text(encoding="utf-8"))
        assert count > 0
        import json

        data = json.loads(summary.read_text(encoding="utf-8"))
        assert data["schema"] == OBS_SCHEMA_VERSION
        assert data["transmissions"] > 0 and data["commits"] > 0

    def test_profile_table(self, capsys):
        assert main(list(self.ARGS) + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine phase profile" in out
        assert "transmit" in out

    def test_crash_kind(self, capsys):
        assert (
            main(["trace", "crash", "--r", "1", "--t", "1", "--seed", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "crashes=" in out
