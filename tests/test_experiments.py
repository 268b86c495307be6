"""Tests for repro.experiments: scenarios, registry, report rendering."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import REGISTRY, all_experiments, get_experiment
from repro.experiments.report import format_table
from repro.experiments.scenarios import (
    BroadcastScenario,
    byzantine_broadcast_scenario,
    crash_broadcast_scenario,
    mixed_broadcast_scenario,
    recommended_torus,
    strip_torus,
)
from repro.faults.byzantine import SilentByzantine
from repro.grid.torus import Torus


class TestTorusHelpers:
    def test_recommended_sides(self):
        assert recommended_torus(1).width == 7
        assert recommended_torus(2).width == 13
        assert recommended_torus(3).width == 19
        assert recommended_torus(2, slack=4).width == 17

    def test_strip_torus_fits_construction(self):
        for r in (1, 2, 3):
            t = strip_torus(r)
            from repro.faults.constructions import torus_crash_partition

            torus_crash_partition(t)  # must not raise

    def test_metric_passthrough(self):
        assert recommended_torus(2, metric="l2").metric.name == "l2"


class TestBroadcastScenario:
    def test_faulty_and_correct_partition(self):
        torus = recommended_torus(1)
        sc = BroadcastScenario(
            topology=torus,
            protocol="cpa",
            t=1,
            byzantine_processes={(3, 3): SilentByzantine()},
            crash_round={(2, 2): 0},
        )
        assert sc.faulty_nodes == {(3, 3), (2, 2)}
        assert (3, 3) not in sc.correct_nodes
        assert len(sc.correct_nodes) == 49 - 2

    def test_overlapping_fault_roles_rejected(self):
        torus = recommended_torus(1)
        with pytest.raises(ConfigurationError, match="both"):
            BroadcastScenario(
                topology=torus,
                protocol="cpa",
                t=1,
                byzantine_processes={(3, 3): SilentByzantine()},
                crash_round={(3, 3): 0},
            )

    def test_faulty_source_rejected(self):
        torus = recommended_torus(1)
        with pytest.raises(ConfigurationError, match="source"):
            BroadcastScenario(
                topology=torus,
                protocol="cpa",
                t=1,
                byzantine_processes={(0, 0): SilentByzantine()},
            )

    def test_noncanonical_coordinates(self):
        torus = recommended_torus(1)
        sc = BroadcastScenario(
            topology=torus,
            protocol="cpa",
            t=1,
            byzantine_processes={(-1, -1): SilentByzantine()},
        )
        assert (6, 6) in sc.faulty_nodes

    def test_built_fault_maps_are_read_only(self):
        """run() trusts the canonical maps that __post_init__ built, so
        a built scenario refuses edits to them; dataclasses.replace
        builds a changed scenario, canonicalized again."""
        sc = crash_broadcast_scenario(r=1, t=1, placement="random", seed=0)
        assert (1, 0) not in sc.crash_round
        with pytest.raises(TypeError):
            sc.crash_round[(8, 0)] = 0
        with pytest.raises(TypeError):
            del sc.crash_round[next(iter(sc.crash_round))]
        assert sc.run().achieved
        changed = dataclasses.replace(
            sc, crash_round={**sc.crash_round, (8, 0): 0}
        )
        assert changed.crash_round[(1, 0)] == 0
        assert (1, 0) not in changed.run().correct_nodes
        byz = byzantine_broadcast_scenario(r=1, t=1, protocol="cpa")
        with pytest.raises(TypeError):
            byz.byzantine_processes[(8, 0)] = SilentByzantine()
        with pytest.raises(TypeError):
            del byz.byzantine_processes[next(iter(byz.byzantine_processes))]

    def test_run_returns_graded_outcome(self):
        sc = byzantine_broadcast_scenario(r=1, t=1, protocol="cpa")
        out = sc.run()
        assert out.correct_nodes == frozenset(sc.correct_nodes)
        assert isinstance(out.achieved, bool)


class TestScenarioBuilders:
    def test_strip_placement_respects_budget_when_enforced(self):
        sc = byzantine_broadcast_scenario(r=2, t=3, strategy="silent")
        sc.validate()  # trimmed to t=3

    def test_unknown_placement(self):
        with pytest.raises(ConfigurationError, match="placement"):
            byzantine_broadcast_scenario(r=1, t=1, placement="spiral")
        with pytest.raises(ConfigurationError, match="placement"):
            crash_broadcast_scenario(r=1, t=1, placement="spiral")

    def test_random_placement_deterministic_per_seed(self):
        a = byzantine_broadcast_scenario(r=1, t=1, placement="random", seed=4)
        b = byzantine_broadcast_scenario(r=1, t=1, placement="random", seed=4)
        assert a.faulty_nodes == b.faulty_nodes

    def test_protocol_kwargs_passthrough(self):
        sc = byzantine_broadcast_scenario(
            r=1, t=1, protocol="bv-indirect", max_relays=2
        )
        out = sc.run()
        assert out.achieved

    @pytest.mark.parametrize(
        "builder",
        [
            byzantine_broadcast_scenario,
            crash_broadcast_scenario,
            mixed_broadcast_scenario,
        ],
    )
    def test_explicit_torus_must_match_r_and_metric(self, builder):
        wrong_r = Torus.square(13, 1)
        with pytest.raises(ConfigurationError, match="r=1.*r=2"):
            builder(r=2, t=1, placement="random", torus=wrong_r, seed=3)
        linf = Torus.square(13, 2)
        with pytest.raises(ConfigurationError, match="'linf'.*'l2'"):
            builder(r=2, t=1, placement="random", metric="l2", torus=linf)
        # metrics compare by name, so an alias of the torus's metric fits
        sc = builder(
            r=2, t=1, placement="random", metric="chebyshev", torus=linf
        )
        assert sc.topology is linf

    def test_crash_staggered(self):
        sc = crash_broadcast_scenario(r=1, t=2, staggered_max_round=3)
        assert any(v > 0 for v in sc.crash_round.values()) or sc.crash_round


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        """Every figure (1-19) and Table I of the paper maps to an
        experiment."""
        refs = " ".join(e.paper_ref for e in all_experiments())
        for artifact in (
            "Table I",
            "Figures 1-3",
            "Figures 4-6",
            "Figure 7",
            "Figure 8",
            "Figures 9-10",
            "Figures 11-12",
            "Figure 13",
            "Figures 14-19",
        ):
            assert artifact in refs, artifact

    def test_all_theorems_covered(self):
        refs = " ".join(e.paper_ref for e in all_experiments())
        for thm in ("Theorem 1", "Theorems 4-5", "Theorem 6"):
            assert thm in refs

    def test_lookup(self):
        exp = get_experiment("EXP-T1")
        assert exp.paper_ref == "Table I"
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("EXP-NOPE")

    def test_registry_consistent(self):
        assert set(REGISTRY) == {e.exp_id for e in all_experiments()}

    def test_quick_runners_execute(self):
        """Smoke-run the cheap analytic experiments end to end."""
        rows = get_experiment("EXP-F1_3").run(radii=(1, 2))
        assert all(row["match"] for row in rows)
        rows = get_experiment("EXP-T1").run(radii=(2, 3))
        assert all(row["match"] for row in rows)
        rows = get_experiment("EXP-F14_19").run(radii=(2, 3))
        assert all(row["holds"] for row in rows)
        rows = get_experiment("EXP-THRESH").run(radii=(1, 2))
        assert len(rows) == 2

    def test_wave_runner(self):
        rows = get_experiment("EXP-WAVE").run(r=1)
        assert rows[0]["distance"] == 0
        assert all(row["nodes"] >= 1 for row in rows)

    def test_section_x_runner(self):
        rows = get_experiment("EXP-SECX").run(r=1)
        regimes = {row["regime"] for row in rows}
        assert "spoofing allowed" in regimes
        assert any(not row["safe"] for row in rows)  # the spoofing row

    def test_boundary_runner(self):
        rows = get_experiment("EXP-BOUNDARY").run(
            radii=(1,), side=9, trials=2
        )
        assert rows[0]["corner_cut_bounded"] < rows[0]["interior_cut_torus"]


class TestReport:
    def test_format_basic(self):
        out = format_table(
            [{"a": 1, "b": True}, {"a": 2.5, "b": False}], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "yes" in out and "no" in out
        assert "2.5" in out

    def test_column_order(self):
        out = format_table([{"z": 1, "a": 2}], columns=["a", "z"])
        header = out.splitlines()[0]
        assert header.index("a") < header.index("z")

    def test_missing_cells(self):
        out = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "3" in out

    def test_empty(self):
        assert "(no rows)" in format_table([], title="X")

    def test_float_trimming(self):
        out = format_table([{"v": 2.000}])
        assert "2" in out and "2.000" not in out
