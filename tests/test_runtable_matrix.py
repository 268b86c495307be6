"""Cross-topology conformance matrix, driven by the run-table harness.

Every registered protocol is exercised at every (metric, topology) cell
of the scenario-axis grid -- L-infinity and L2, torus and bounded grid
-- and must satisfy the *grading invariants* that hold regardless of
which axis levels are active:

- **safety**: below the protocol's fault budget no correct node ever
  commits a wrong value (crash faults cannot lie, so crash cells are
  trivially safe; Byzantine cells face a lying adversary);
- **agreement**: correct nodes that commit, commit the same value;
- **determinism**: re-executing the identical table reproduces every
  trial row byte-for-byte.

Liveness is deliberately *not* asserted off the (linf, torus) axis: the
paper's achievability theorems are L-infinity torus results, and e.g.
random placements on a bounded L2 grid can legitimately block the wave
(boundary nodes have truncated neighborhoods).  The matrix grades what
must hold everywhere, and the golden pins at the bottom freeze one
empirical L2 threshold so the open-constants behavior cannot drift
silently.
"""

import json

import pytest

from repro.core.thresholds import byzantine_linf_max_t, crash_linf_max_t
from repro.exec import (
    RunTable,
    ScenarioSpec,
    derive_seed,
    execute_runtable,
    run_trial,
)
from repro.experiments.scenarios import (
    byzantine_broadcast_scenario,
    crash_broadcast_scenario,
)
from repro.protocols.registry import protocol_names

ALL_PROTOCOLS = sorted(protocol_names())
BYZANTINE_SAFE = [p for p in ALL_PROTOCOLS if p != "crash-flood"]

METRICS = ("linf", "l2")
TOPOLOGIES = ("torus", "bounded")


def _matrix_tables():
    """The conformance grid as two run tables (one per fault kind).

    Byzantine-tolerant protocols face a lying adversary at the r=1
    L-infinity budget; crash-flood runs under crash faults at its own
    budget.  Together the expansions cover all five registry protocols
    at every (metric, topology) cell.
    """
    byz = RunTable(
        name="conformance-byzantine",
        factors=(
            ("protocol", tuple(BYZANTINE_SAFE)),
            ("metric", METRICS),
            ("topology", TOPOLOGIES),
        ),
        base=(
            ("kind", "byzantine"),
            ("r", 1),
            ("t", byzantine_linf_max_t(1)),
            ("strategy", "liar"),
            ("placement", "random"),
            ("max_rounds", 60),
        ),
        repetitions=2,
    )
    crash = RunTable(
        name="conformance-crash",
        factors=(
            ("metric", METRICS),
            ("topology", TOPOLOGIES),
        ),
        base=(
            ("kind", "crash"),
            ("r", 1),
            ("t", crash_linf_max_t(1)),
            ("protocol", "crash-flood"),
            ("placement", "random"),
            ("max_rounds", 60),
        ),
        repetitions=2,
    )
    return byz, crash


class TestConformanceMatrix:
    def test_covers_all_protocols_and_cells(self):
        byz, crash = _matrix_tables()
        units = byz.expand() + crash.expand()
        covered = {
            (
                dict(u.levels).get("protocol", "crash-flood"),
                dict(u.levels)["metric"],
                dict(u.levels)["topology"],
            )
            for u in units
        }
        assert covered == {
            (p, m, topo)
            for p in ALL_PROTOCOLS
            for m in METRICS
            for topo in TOPOLOGIES
        }

    def test_no_wrong_commits_below_budget(self):
        """Safety holds at every cell: liars never induce a wrong commit
        in a correct node, on either metric and either topology."""
        for table in _matrix_tables():
            result = execute_runtable(table, root_seed=0)
            for unit, rows in zip(result.units, result.rows):
                for row in rows:
                    assert row["safe"], (unit.run_id, row)

    def test_rerun_is_byte_identical(self):
        """The determinism contract survives the new axes: identical
        tables expand to identical specs and replay identical rows."""
        byz, _ = _matrix_tables()
        first = execute_runtable(byz, root_seed=0)
        second = execute_runtable(byz, root_seed=0)
        assert json.dumps(first.rows, sort_keys=True) == json.dumps(
            second.rows, sort_keys=True
        )
        assert [u.run_id for u in first.units] == [
            u.run_id for u in second.units
        ]


class TestAgreement:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("protocol", BYZANTINE_SAFE)
    def test_byzantine_correct_committers_agree(
        self, protocol, metric, topology
    ):
        sc = byzantine_broadcast_scenario(
            r=1,
            t=byzantine_linf_max_t(1),
            protocol=protocol,
            strategy="liar",
            placement="random",
            metric=metric,
            topology_kind=topology,
            seed=3,
            max_rounds=60,
        )
        out = sc.run()
        committed = {
            value
            for node, value in out.result.committed().items()
            if node not in sc.faulty_nodes
        }
        assert committed <= {sc.value}, (protocol, metric, topology)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("metric", METRICS)
    def test_crash_correct_committers_agree(self, metric, topology):
        sc = crash_broadcast_scenario(
            r=1,
            t=crash_linf_max_t(1),
            placement="random",
            metric=metric,
            topology_kind=topology,
            seed=3,
            max_rounds=60,
        )
        out = sc.run()
        committed = {
            value
            for node, value in out.result.committed().items()
            if node not in sc.faulty_nodes
        }
        assert committed <= {sc.value}, (metric, topology)


# -- golden pins: the empirical L2 strip threshold at r=1 --------------------
#
# The open L2 constants mean there is no theorem to pin against, so we
# pin the *measured* flip instead: the crash strip construction under
# the Euclidean metric at r=1 (root seed 5) achieves broadcast up to
# t=2 and is blocked from t=3 on.  Exact trial rows, frozen; any engine,
# seeding, or key change that moves L2 behavior breaks these loudly.

L2_STRIP_GOLDEN = {
    2: {
        "achieved": True,
        "safe": True,
        "live": True,
        "undecided": 0,
        "rounds": 2,
        "messages": 109,
        "faults": 13,
    },
    3: {
        "achieved": False,
        "safe": True,
        "live": False,
        "undecided": 66,
        "rounds": 2,
        "messages": 34,
        "faults": 22,
    },
    4: {
        "achieved": False,
        "safe": True,
        "live": False,
        "undecided": 66,
        "rounds": 2,
        "messages": 34,
        "faults": 22,
    },
}


class TestL2GoldenPins:
    @pytest.mark.parametrize("t", sorted(L2_STRIP_GOLDEN))
    def test_l2_strip_exact_row(self, t):
        spec = ScenarioSpec(
            kind="crash",
            r=1,
            t=t,
            protocol="crash-flood",
            placement="strip",
            metric="l2",
            trials=1,
        )
        seed = derive_seed(5, spec.scenario_key(), 0)
        assert run_trial(spec, seed) == L2_STRIP_GOLDEN[t]

    def test_flip_is_between_t2_and_t3(self):
        assert L2_STRIP_GOLDEN[2]["achieved"]
        assert not L2_STRIP_GOLDEN[3]["achieved"]
        assert not L2_STRIP_GOLDEN[4]["achieved"]


# -- run-table properties (hypothesis) ---------------------------------------

from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.exec import RunTable as _RunTable  # noqa: E402

from .strategies import run_tables  # noqa: E402

_PROP = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRunTableProperties:
    @_PROP
    @given(table=run_tables())
    def test_expansion_deterministic(self, table):
        """Two expansions of one table are the same object list -- same
        run ids, same scenario keys, same order (no hash-order leaks)."""
        first = table.expand()
        second = table.expand()
        assert [u.run_id for u in first] == [u.run_id for u in second]
        assert [u.spec.scenario_key() for u in first] == [
            u.spec.scenario_key() for u in second
        ]

    @_PROP
    @given(table=run_tables())
    def test_expansion_duplicate_free(self, table):
        units = table.expand()
        keys = [u.spec.scenario_key() for u in units]
        assert len(set(keys)) == len(keys) == table.num_runs()
        run_ids = [u.run_id for u in units]
        assert len(set(run_ids)) == len(run_ids)

    @_PROP
    @given(table=run_tables())
    def test_json_round_trip_preserves_expansion(self, table):
        """``from_dict(as_dict())`` is the identity, down to every
        expanded cell's scenario key."""
        clone = _RunTable.from_dict(
            json.loads(json.dumps(table.as_dict()))
        )
        assert clone == table
        assert [u.spec.scenario_key() for u in clone.expand()] == [
            u.spec.scenario_key() for u in table.expand()
        ]

    @_PROP
    @given(table=run_tables())
    def test_spec_key_round_trip(self, table):
        """Every expanded spec survives its own dict round-trip with an
        identical scenario key (the seed-derivation identity)."""
        for unit in table.expand():
            clone = ScenarioSpec.from_dict(unit.spec.as_dict())
            assert clone.scenario_key() == unit.spec.scenario_key()
            assert clone == unit.spec


# -- removed scenario levels --------------------------------------------------

from repro.errors import ConfigurationError  # noqa: E402
from repro.exec import load_runtable  # noqa: E402


class TestRemovedLevels:
    """A table written for a removed scenario level (the spec-level
    ``channel`` axis, the ``rgg`` topology) fails by name, so it can
    never run silently as the ideal channel or the torus."""

    @pytest.mark.parametrize(
        "base, factors, message",
        [
            ({}, {"channel": ["ideal", "lossy"]}, "unknown factor 'channel'"),
            ({"channel": "jammed"}, {}, "unknown base field 'channel'"),
            ({"topology": "rgg"}, {}, "unknown topology kind 'rgg'"),
        ],
        ids=["channel-factor", "channel-base", "rgg-topology"],
    )
    def test_stale_table_is_refused(self, tmp_path, base, factors, message):
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({
            "base": dict(
                kind="crash", r=1, protocol="crash-flood",
                placement="random", **base,
            ),
            "factors": dict(t=[1], **factors),
        }))
        with pytest.raises(ConfigurationError, match=message):
            load_runtable(str(path)).expand()


# -- scenario_kwargs keys -----------------------------------------------------


def _kwargs_table(kind, protocol, scenario_kwargs):
    return RunTable.from_dict({
        "base": {
            "kind": kind, "r": 1, "protocol": protocol,
            "placement": "random", "scenario_kwargs": scenario_kwargs,
        },
        "factors": {"t": [0, 1]},
    })


class TestScenarioKwargs:
    """``scenario_kwargs`` reaches the scenario builder (and, for a
    Byzantine scenario, the protocol constructor), so an unknown key
    fails at expansion, by name, instead of mid-run."""

    @pytest.mark.parametrize(
        "kind, protocol, key",
        [
            ("crash", "crash-flood", "channel"),
            ("byzantine", "bv-two-hop", "channel"),
            ("byzantine", "bv-two-hop", "max_relays"),
            ("crash", "crash-flood", "seed"),
        ],
        ids=["crash", "byzantine", "protocol-lacks-it", "set-by-the-spec"],
    )
    def test_unknown_key_fails_at_expand(self, kind, protocol, key):
        table = _kwargs_table(kind, protocol, {key: 2})
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            table.expand()

    @pytest.mark.parametrize(
        "kind, protocol, scenario_kwargs",
        [
            ("crash", "crash-flood", {"torus_side": 100}),
            ("crash", "crash-flood", {"staggered_max_round": 3}),
            ("byzantine", "bv-indirect", {"max_relays": 2}),
        ],
        ids=["torus-side", "staggered", "max-relays"],
    )
    def test_builder_and_protocol_keywords_expand(
        self, kind, protocol, scenario_kwargs
    ):
        table = _kwargs_table(kind, protocol, scenario_kwargs)
        for unit in table.expand():
            assert dict(unit.spec.scenario_kwargs) == scenario_kwargs

    def test_protocol_keyword_runs(self):
        """A key that expands also builds and runs: the
        ``bv-indirect`` constructor takes ``max_relays``."""
        (unit, _) = _kwargs_table(
            "byzantine", "bv-indirect", {"max_relays": 2}
        ).expand()
        row = run_trial(unit.spec, 5)
        assert row["safe"] and row["achieved"]
