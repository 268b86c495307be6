"""Cross-engine differential tests: reference vs fastpath.

The fastpath array kernels (:mod:`repro.radio.fastpath`) promise
*byte-identical* observable output to the reference event engine -- same
``metrics_summary`` JSON, same per-node commit map, same trace counters,
same grading facts.  Every compared point runs four times: observed by two
``RunMetrics`` (a per-source and a global view) and plain, with no
observer -- the path of every sweep row without metrics, on which the
fastpath skips its ``RunMetrics`` statistics -- on both engines; the
plain runs must match the observed ones.  This suite enforces that
contract three ways:

1. a deterministic bulk sweep over 200+ randomized points spanning all
   three kernel protocols, both placements, all three metrics, message
   budgets, round caps, and staggered crashes
   (``tests/strategies.sample_points``), plus sweeps over
   fixed-strategy Byzantine CPA points within the budget
   (``tests/strategies.sample_byz_points``) and over it, where correct
   nodes commit wrong values (``sample_overbudget_points``);
2. shrinking hypothesis properties over the same spaces
   (``tests/strategies.diff_points`` / ``byz_diff_points``) that
   minimize any divergence to a small reportable scenario;
3. golden pins at the crash threshold boundary t-1 / t / t+1 and at the
   CPA Theorem 6 boundary (``cpa_linf_max_t``), asserted as literal
   constants against *both* backends -- so a simultaneous drift of the
   two engines (which the differential pairs cannot see) still fails.

Plus regression pins for the awkward edges both backends must agree on:
zero-round runs, all-relays-dead-from-start, message budgets that trip
mid-frame (``result.rounds`` pinned on both), the budget and round-cap
boundaries of the propagation kernel's prefix cuts under crash and
Byzantine faults, and a crash that lands after its node has heard the
flood.
"""

from __future__ import annotations

from typing import Any, Dict

import pytest
from hypothesis import given, settings

from repro.core.thresholds import cpa_linf_max_t, crash_linf_max_t
from repro.errors import ConfigurationError
from repro.experiments.scenarios import (
    BroadcastScenario,
    byzantine_broadcast_scenario,
    crash_broadcast_scenario,
)
from repro.grid.torus import Torus
from repro.obs.export import canonical_json
from repro.obs.metrics import RunMetrics
from repro.radio.fastpath import HAVE_NUMPY
from tests.strategies import (
    byz_diff_points,
    diff_points,
    make_byz_point,
    make_point,
    sample_byz_points,
    sample_overbudget_points,
    sample_points,
)

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="fastpath engine needs numpy"
)

#: bulk sweep size -- acceptance floor is 200 randomized points
N_BULK_POINTS = 220

#: Byzantine bulk sweep size (4 fixed strategies, even split)
N_BYZ_POINTS = 120

#: over-budget CPA sweep size (3 value-fault strategies, even split)
N_OVERBUDGET_POINTS = 200


def _build(point: Dict[str, Any], engine: str):
    """Scenario for ``point`` on ``engine``.

    Both protocols run under *crash* faults (the crash builder accepts a
    ``protocol`` override): crash faults are in-model for bv-two-hop --
    strictly weaker than Byzantine ones -- and are the fault class the
    fastpath kernels implement.
    """
    sc = crash_broadcast_scenario(
        r=point["r"],
        t=point["t"],
        placement=point["placement"],
        metric=point["metric"],
        seed=point["seed"],
        torus_side=point["side"],
        staggered_max_round=point["staggered_max_round"],
        max_rounds=point["max_rounds"],
        protocol=point["protocol"],
        engine=engine,
    )
    sc.max_messages = point["max_messages"]
    return sc


def _build_byz(point: Dict[str, Any], engine: str):
    """Byzantine CPA scenario for ``point`` on ``engine``.

    The builder has no ``max_messages`` parameter (it is a scenario
    field, not a protocol knob), so the budget is assigned after
    construction, exactly like :func:`_build` does for crash points.
    """
    sc = byzantine_broadcast_scenario(
        r=point["r"],
        t=point["t"],
        protocol="cpa",
        strategy=point["strategy"],
        placement=point["placement"],
        metric=point["metric"],
        seed=point["seed"],
        torus_side=point["side"],
        max_rounds=point["max_rounds"],
        faults=point["faults"],
        enforce_budget=point["enforce_budget"],
        engine=engine,
    )
    sc.max_messages = point["max_messages"]
    return sc


def _run_facts(out) -> Dict[str, Any]:
    """What a graded run shows with or without an observer."""
    result = out.result
    processes = result.processes
    return {
        "committed": {
            str(node): proc.committed_value()
            for node, proc in sorted(processes.items())
        },
        "undecided": sorted(
            str(node)
            for node, proc in processes.items()
            if not proc.is_decided()
        ),
        "grade": {
            "achieved": out.achieved,
            "rounds": result.rounds,
            "quiescent": result.quiescent,
            "hit_round_limit": result.hit_round_limit,
            "hit_message_limit": result.hit_message_limit,
        },
        # the graded lists, in their order: what a sweep row counts
        "outcome": {
            "undecided": out.undecided,
            "wrong_commits": list(out.wrong_commits.items()),
            "correct_nodes": sorted(out.correct_nodes),
            "rounds": out.rounds,
            "messages": out.messages,
        },
        "trace": result.trace.summary(),
        "tx_by_node": result.trace.tx_by_node,
        "tx_by_round": result.trace.tx_by_round,
    }


def observe(point: Dict[str, Any], engine: str, builder=None) -> Dict[str, Any]:
    """Everything observable about one run, in comparable form."""
    sc = (builder or _build)(point, engine)
    per_source = RunMetrics(source=sc.source)
    global_view = RunMetrics(source=None)
    out = sc.run(observers=[per_source, global_view])
    return {
        "metrics_source": canonical_json(per_source.summary()),
        "metrics_global": canonical_json(global_view.summary()),
        **_run_facts(out),
    }


def observe_plain(
    point: Dict[str, Any], engine: str, builder=None
) -> Dict[str, Any]:
    """The same run without an observer: the path of every sweep row
    without metrics (the fastpath then skips its ``RunMetrics``
    statistics)."""
    return _run_facts((builder or _build)(point, engine).run())


def assert_engines_agree(
    point: Dict[str, Any], builder=None
) -> Dict[str, Any]:
    """Run ``point`` on both backends, observed and plain, and diff
    every observable: across engines, and plain against observed."""
    ref = observe(point, "reference", builder)
    runs = {
        "fastpath": observe(point, "fastpath", builder),
        "plain reference": observe_plain(point, "reference", builder),
        "plain fastpath": observe_plain(point, "fastpath", builder),
    }
    for name, got in runs.items():
        for key in got:
            assert ref[key] == got[key], (
                f"{name} diverges from reference on {key!r} at point "
                f"{point!r}\nreference: {ref[key]!r}\n{name}: {got[key]!r}"
            )
    return ref


# -- 1. deterministic bulk sweep ------------------------------------------


def test_differential_bulk_sweep():
    """200+ fixed randomized points, byte-equal on every observable.

    The point list is fully determined by ``sample_points`` (seeded),
    so a failure here reproduces with a single point in isolation.
    """
    points = sample_points(N_BULK_POINTS, seed=0)
    protocols = {p["protocol"] for p in points}
    assert protocols == {"crash-flood", "bv-two-hop", "cpa"}
    for point in points:
        assert_engines_agree(point)


def test_differential_byzantine_bulk_sweep():
    """Fixed-strategy Byzantine CPA points, byte-equal on every
    observable -- wrong commits, fabricator junk floods, and budget
    trips included."""
    points = sample_byz_points(N_BYZ_POINTS, seed=0)
    strategies = {p["strategy"] for p in points}
    assert strategies == {"silent", "liar", "duplicitous", "fabricator"}
    for point in points:
        assert_engines_agree(point, builder=_build_byz)


def test_differential_overbudget_sweep():
    """CPA under more faults than its budget, byte-equal on every
    observable.  Untrimmed strips and dense explicit placements let
    liars, duplicitous nodes and fabricators win ``t + 1``-matching
    tallies, so correct nodes commit the wrong value, and budgets and
    round caps cut those runs; at least a quarter of the points must
    show a wrong commit, or the sweep pins nothing of it."""
    points = sample_overbudget_points(N_OVERBUDGET_POINTS, seed=0)
    wrong = 0
    for point in points:
        obs = assert_engines_agree(point, builder=_build_byz)
        # the scenario value is 1; Byzantine processes report None
        wrong += any(v not in (None, 1) for v in obs["committed"].values())
    assert wrong >= len(points) // 4, wrong


# -- 2. shrinking property -----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(point=diff_points())
def test_differential_property(point):
    assert_engines_agree(point)


@settings(max_examples=40, deadline=None)
@given(point=byz_diff_points())
def test_differential_byzantine_property(point):
    assert_engines_agree(point, builder=_build_byz)


# -- 3. golden pins at the crash threshold boundary ----------------------

# Literal expectations at t in {thr-1, thr, thr+1} for r=1 strip
# placement around thr = crash_linf_max_t(1).  Pinned constants, not a
# pair comparison: if both engines drift together, this still fails.
# Regenerate by running this module directly (python -m tests.<module>
# prints the observed rows on mismatch).
GOLDEN_R = 1
GOLDEN_THR = crash_linf_max_t(GOLDEN_R)  # = 2 for r=1
GOLDEN = {
    # t: (achieved, rounds, quiescent, undecided_count, committed_count)
    GOLDEN_THR - 1: (True, 4, True, 6, 75),
    GOLDEN_THR: (True, 4, True, 11, 70),
    GOLDEN_THR + 1: (False, 3, True, 54, 27),
}


def _golden_point(t: int) -> Dict[str, Any]:
    return make_point(
        protocol="crash-flood",
        r=GOLDEN_R,
        side=9,
        t=t,
        seed=5,
        placement="strip",
        max_rounds=200,
    )


@pytest.mark.parametrize("t", sorted(GOLDEN))
def test_golden_threshold_boundary(t):
    expected = GOLDEN[t]
    for engine in ("reference", "fastpath"):
        obs = observe(_golden_point(t), engine)
        got = (
            obs["grade"]["achieved"],
            obs["grade"]["rounds"],
            obs["grade"]["quiescent"],
            len(obs["undecided"]),
            sum(1 for v in obs["committed"].values() if v is not None),
        )
        assert got == expected, (
            f"{engine} drifted from golden pin at t={t}: "
            f"got {got}, expected {expected}"
        )


# Literal expectations at the CPA Theorem 6 boundary: thr = floor(2r^2/3)
# (cpa_linf_max_t), the largest budget the paper certifies for CPA.  Same
# double-drift rationale as the crash pins; the liar strip placement
# exercises the Byzantine value-fault kernel, so these constants also pin
# the compiled message plans on both backends.  Theorem 6 guarantees
# success only up to thr -- the t = thr+1 row is an empirical pin (this
# particular strip does not defeat CPA), not a sharpness claim.
GOLDEN_CPA_R = 2
GOLDEN_CPA_THR = cpa_linf_max_t(GOLDEN_CPA_R)  # = 2 for r=2
GOLDEN_CPA = {
    # t: (achieved, rounds, quiescent, undecided_count, committed_count)
    GOLDEN_CPA_THR - 1: (True, 2, True, 4, 192),
    GOLDEN_CPA_THR: (True, 3, True, 10, 186),
    GOLDEN_CPA_THR + 1: (True, 3, True, 14, 182),
}


def _golden_cpa_point(t: int) -> Dict[str, Any]:
    return make_byz_point(
        strategy="liar",
        r=GOLDEN_CPA_R,
        side=14,
        t=t,
        seed=5,
        placement="strip",
        max_rounds=200,
    )


@pytest.mark.parametrize("t", sorted(GOLDEN_CPA))
def test_golden_cpa_theorem6_boundary(t):
    expected = GOLDEN_CPA[t]
    for engine in ("reference", "fastpath"):
        obs = observe(_golden_cpa_point(t), engine, builder=_build_byz)
        got = (
            obs["grade"]["achieved"],
            obs["grade"]["rounds"],
            obs["grade"]["quiescent"],
            len(obs["undecided"]),
            sum(1 for v in obs["committed"].values() if v is not None),
        )
        assert got == expected, (
            f"{engine} drifted from golden CPA pin at t={t}: "
            f"got {got}, expected {expected}"
        )


# -- 4. edge-case pins on both backends ----------------------------------


@pytest.mark.parametrize("engine", ("reference", "fastpath"))
def test_zero_round_run_rejected(engine):
    """``max_rounds=0`` is a configuration error -- and both backends
    must reject it with the *same* message (rejection parity)."""
    point = make_point(
        protocol="crash-flood", r=1, side=5, t=1, seed=3, max_rounds=0
    )
    with pytest.raises(
        ConfigurationError, match=r"max_rounds must be >= 1, got 0"
    ):
        observe(point, engine)


@pytest.mark.parametrize("protocol", ("crash-flood", "cpa", "bv-two-hop"))
@pytest.mark.parametrize("engine", ("reference", "fastpath"))
def test_negative_crash_round_rejected(engine, protocol):
    """A crash round below 0 is a configuration error on both backends,
    with the same message (rejection parity)."""
    scenario = BroadcastScenario(
        topology=Torus.square(5, 1),
        protocol=protocol,
        t=1,
        crash_round={(2, 2): -1},
        engine=engine,
    )
    with pytest.raises(
        ConfigurationError, match=r"crash round for \(2, 2\) must be >= 0"
    ):
        scenario.run()


@pytest.mark.parametrize("engine", ("reference", "fastpath"))
def test_single_round_run(engine):
    """``max_rounds=1``: one TDMA frame.  Slots run sequentially inside
    the frame, so the flood wave crosses the whole fault-free 7x7 torus
    within it -- everyone commits and relays, yet the round limit still
    trips before quiescence.  Both backends must pin the exact same
    frame accounting."""
    point = make_point(
        protocol="crash-flood", r=1, side=7, t=0, seed=3, max_rounds=1
    )
    obs = observe(point, engine)
    assert obs["grade"]["rounds"] == 1
    assert obs["grade"]["hit_round_limit"]
    assert not obs["grade"]["quiescent"]
    assert obs["grade"]["achieved"]
    assert obs["undecided"] == []
    # 49 relays once each + the source's extra confirmation transmission
    assert obs["trace"]["transmissions"] == 50
    assert obs["trace"]["deliveries"] == 400


@pytest.mark.parametrize("engine", ("reference", "fastpath"))
def test_all_relays_dead_from_start(engine):
    """Every non-source node crashed at round 0: the source transmits
    into a dead network and the run goes quiescent with only the source
    committed."""
    side, r = 5, 1
    faults = [
        (x, y) for x in range(side) for y in range(side) if (x, y) != (0, 0)
    ]
    sc = crash_broadcast_scenario(
        r=r, t=len(faults), placement="explicit", faults=faults,
        enforce_budget=False, torus_side=side, engine=engine,
    )
    metrics = RunMetrics(source=sc.source)
    out = sc.run(observers=[metrics])
    # vacuously achieved: the source is the only correct node and it
    # commits its own value; liveness quantifies over correct nodes
    assert out.achieved
    assert out.result.quiescent
    committed = [
        n for n, p in out.result.processes.items()
        if p.committed_value() is not None
    ]
    assert committed == [sc.source]
    # the source still talks; nobody alive hears it
    summary = metrics.summary()
    assert summary["transmissions"] > 0
    assert summary["deliveries"] == 0


@pytest.mark.parametrize("engine", ("reference", "fastpath"))
def test_budget_trips_mid_frame(engine):
    """A message budget smaller than one frame's demand must stop the
    run *inside* that frame, and ``result.rounds`` must count the
    partially-executed round identically on both backends."""
    point = make_point(
        protocol="crash-flood", r=2, side=10, t=0, seed=11,
        max_messages=3, max_rounds=50,
    )
    obs = observe(point, engine)
    assert obs["grade"]["hit_message_limit"]
    assert obs["grade"]["rounds"] == 1
    assert obs["trace"]["transmissions"] <= 3


# The kernels read every run off its messages in (time, node) order and
# cut that order at the round cap and the message budget; these pins sit
# on each cut's boundary.  An int case is a crash-flood point on a torus
# of that side: 13 is not divisible by 2r+1 = 5 (one node per TDMA
# slot), 10 is (the coloring schedule).  The CPA cases run on the r=1
# strip of a 12x12 torus, whose node (3, 3) shares the source's slot
# and transmits right after it: a two-COMMITTED burst when duplicitous,
# a COMMITTED and its junk burst when a fabricator, one COMMITTED when
# a liar.  The fabricator run also ends on a junk burst of reactions.
# At t = 8, CPA needs t + 1 = 9 matching announcements, more than the
# 8-node ball holds, so only SRC commits.
BOUNDARY_SIDES = (13, 10)
_CPA_BOUNDARY = {
    "cpa-duplicitous": ("duplicitous", 2),
    "cpa-fabricator": ("fabricator", 2),
    "cpa-t-beyond-ball": ("liar", 8),
}
BOUNDARY_CASES = BOUNDARY_SIDES + tuple(_CPA_BOUNDARY)


def _boundary_point(side: int, **overrides: Any) -> Dict[str, Any]:
    point = make_point(protocol="crash-flood", r=2, side=side, t=2, seed=7)
    point.update(overrides)
    return point


def _boundary_run(case, **overrides: Any) -> Dict[str, Any]:
    """Boundary ``case`` with ``overrides``, observed on both engines."""
    if case in _CPA_BOUNDARY:
        strategy, t = _CPA_BOUNDARY[case]
        point = make_byz_point(
            strategy=strategy, r=1, side=12, t=t, seed=7, placement="strip"
        )
        point.update(overrides)
        return assert_engines_agree(point, builder=_build_byz)
    return assert_engines_agree(_boundary_point(case, **overrides))


@pytest.mark.parametrize("case", BOUNDARY_CASES)
@pytest.mark.parametrize("budget", (0, 1, 2, 3))
def test_budget_inside_the_first_frame(case, budget):
    """Budgets 0-3 stop in round 0: 0 before the source's burst, 1
    between its SRC and COMMITTED messages (the source's ball still
    hears SRC and commits), 2 right after it, 3 after one more message:
    a relay under crash faults; on the CPA strips, inside the
    duplicitous burst, before the fabricator's junk or after the
    liar's announcement."""
    obs = _boundary_run(case, max_messages=budget)
    assert obs["grade"]["hit_message_limit"]
    assert obs["grade"]["rounds"] == 1
    assert obs["trace"]["transmissions"] == budget
    committed = sum(1 for v in obs["committed"].values() if v is not None)
    assert (committed == 1) == (budget == 0)


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_budget_at_and_one_below_the_run_total(case):
    """A budget equal to the unconstrained total never trips (the check
    runs before a send); one less trips on the very last message, in
    the last transmitting round."""
    free = _boundary_run(case)
    assert free["grade"]["quiescent"]
    total = free["trace"]["transmissions"]
    assert _boundary_run(case, max_messages=total) == free
    short = _boundary_run(case, max_messages=total - 1)
    assert short["grade"]["hit_message_limit"]
    assert short["grade"]["rounds"] == free["grade"]["rounds"] - 1
    assert short["trace"]["transmissions"] == total - 1


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_round_cap_at_the_last_transmitting_round(case):
    """A quiescent run takes (last transmitting round) + 2 rounds.  A cap
    of last + 1 lets every transmission happen yet trips the round
    limit; last + 2 leaves room for the silent round, so the run is
    unchanged.  A cap of last drops the last round, and with it the
    fabricator reactions pending for it."""
    free = _boundary_run(case)
    rounds = free["grade"]["rounds"]
    capped = _boundary_run(case, max_rounds=rounds - 1)
    assert capped["grade"]["hit_round_limit"]
    assert not capped["grade"]["quiescent"]
    assert capped["grade"]["rounds"] == rounds - 1
    assert capped["committed"] == free["committed"]
    assert capped["trace"]["transmissions"] == free["trace"]["transmissions"]
    assert _boundary_run(case, max_rounds=rounds) == free
    if rounds > 2:  # a cap of 0 rounds is refused
        cut = _boundary_run(case, max_rounds=rounds - 2)
        assert cut["grade"]["hit_round_limit"]
        assert cut["grade"]["rounds"] == rounds - 2
        assert cut["trace"]["transmissions"] < free["trace"]["transmissions"]


def test_cpa_commits_only_on_src_when_t_plus_1_exceeds_the_ball():
    """With t + 1 above the ball size no tally can commit: the source
    and the eight correct nodes of its ball hear SRC, nobody else
    commits, and the liars next to them change nothing."""
    free = _boundary_run("cpa-t-beyond-ball")
    committed = [v for v in free["committed"].values() if v is not None]
    assert committed == [1] * 9


#: a faulty node in the source's ball that crashes in round 1, next to a
#: dead-from-start one that delays part of the flood: on both boundary
#: tori it hears the source's burst and relays in round 0, and its ball
#: still transmits in round 1, when it is dead
LATE_CRASH = {(0, 1): 0, (0, 2): 1}


def _build_late_crash(point: Dict[str, Any], engine: str):
    sc = crash_broadcast_scenario(
        r=point["r"], t=2, placement="explicit", faults=sorted(LATE_CRASH),
        torus_side=point["side"], max_rounds=point["max_rounds"],
        engine=engine,
    )
    sc.crash_round.update(LATE_CRASH)
    return sc


@pytest.mark.parametrize("side", BOUNDARY_SIDES)
def test_late_crash_counts_receptions_before_the_crash(side):
    """A crashing node is a live receiver until its crash round.  The
    run is otherwise the dead-from-start run (faulty nodes never relay),
    so the late crash adds exactly its own receptions to deliveries."""
    point = _boundary_point(side)
    assert_engines_agree(point, builder=_build_late_crash)
    node = (0, 2)
    for engine in ("reference", "fastpath"):
        late = RunMetrics(source=None)
        _build_late_crash(point, engine).run(observers=[late])
        dead = RunMetrics(source=None)
        sc = _build_late_crash(point, engine)
        sc.crash_round[node] = 0
        sc.run(observers=[dead])
        heard = late.rx_by_node.get(node, 0)
        assert heard >= 2, (engine, heard)  # at least the source's burst
        assert node not in dead.rx_by_node
        assert late.deliveries == dead.deliveries + heard, engine
        assert late.crashes == dead.crashes == 2


# -- 5. scenario-axis guardrails ------------------------------------------
#
# The topology factor and channel imperfections are reference-engine-only;
# the metric factor is fully vectorized.  Both halves of that contract
# need tests: unsupported levels must raise a *named* error at every layer
# (never silently fall back to the torus/ideal kernels), and supported
# levels must demonstrably flow into the kernels (never silently collapse
# to L-infinity).


class TestAxisGuardrails:
    def test_spec_rejects_fastpath_off_torus(self):
        """ScenarioSpec gates at construction: the spec cannot even be
        built, so no cache key or seed stream ever exists for it."""
        from repro.exec import ScenarioSpec

        with pytest.raises(
            ConfigurationError,
            match=r'engine="fastpath" cannot run this scenario: .*torus '
            r"topology factor, got topology='bounded'",
        ):
            ScenarioSpec(
                kind="crash", r=1, t=1, protocol="crash-flood",
                engine="fastpath", topology="bounded",
            )

    def test_scenario_rejects_fastpath_off_torus(self):
        """The engine-level gate (rejection parity with the spec layer):
        a hand-built bounded-grid scenario pointed at the fastpath
        engine raises the same named error family at run time."""
        sc = crash_broadcast_scenario(
            r=1, t=1, placement="random", seed=3,
            topology_kind="bounded", engine="fastpath",
        )
        with pytest.raises(
            ConfigurationError,
            match=r'engine="fastpath" cannot run this scenario: .*only '
            r"Torus topologies, got BoundedGrid",
        ):
            sc.run()

    def test_scenario_rejects_fastpath_nonideal_channel(self):
        from repro.radio.channel import ChannelImperfections

        sc = crash_broadcast_scenario(
            r=1, t=1, placement="random", seed=3, engine="fastpath"
        )
        sc.channel = ChannelImperfections(loss_rate=0.2, tx_copies=6, seed=3)
        with pytest.raises(
            ConfigurationError,
            match=r'engine="fastpath" cannot run this scenario: channel '
            r"imperfections require the reference engine",
        ):
            sc.run()

    def test_spec_rejects_fastpath_unkernelled_protocol(self):
        from repro.exec import ScenarioSpec

        with pytest.raises(
            ConfigurationError,
            match=r'engine="fastpath" cannot run this scenario: protocol '
            r"'bv-indirect' has no fastpath kernel \(supported:",
        ):
            ScenarioSpec(
                kind="crash", r=1, t=1, protocol="bv-indirect",
                engine="fastpath",
            )

    def test_spec_rejects_fastpath_byzantine_off_cpa(self):
        """Byzantine faults have a fastpath kernel only for CPA; a
        bv-two-hop Byzantine spec must refuse at construction."""
        from repro.exec import ScenarioSpec

        with pytest.raises(
            ConfigurationError,
            match=r"protocol 'bv-two-hop' has no Byzantine-capable "
            r"fastpath kernel \(supported:",
        ):
            ScenarioSpec(
                kind="byzantine", r=1, t=1, protocol="bv-two-hop",
                engine="fastpath",
            )

    def test_spec_rejects_fastpath_arbitrary_code_strategy(self):
        """``noise`` Byzantine nodes run arbitrary per-round code; no
        compiled message plan can reproduce them, so the spec refuses."""
        from repro.exec import ScenarioSpec

        with pytest.raises(
            ConfigurationError,
            match=r"Byzantine strategy 'noise' runs arbitrary node code "
            r"\(no fixed-strategy kernel",
        ):
            ScenarioSpec(
                kind="byzantine", r=1, t=1, protocol="cpa",
                strategy="noise", engine="fastpath",
            )

    def test_spec_rejects_nonpositive_max_rounds(self):
        """Same guard -- and the same message -- the engines raise at
        run time, so a bad spec dies before minting a cache key."""
        from repro.exec import ScenarioSpec

        with pytest.raises(
            ConfigurationError, match=r"max_rounds must be >= 1, got 0"
        ):
            ScenarioSpec(
                kind="crash", r=1, t=1, protocol="crash-flood",
                max_rounds=0,
            )

    def test_scenario_rejects_fastpath_byzantine_off_cpa(self):
        """Run-time parity for the Byzantine-protocol gate: the same
        named reason the spec layer raises at construction."""
        sc = byzantine_broadcast_scenario(
            r=1, t=1, protocol="bv-two-hop", strategy="liar",
            placement="random", seed=3, engine="fastpath",
        )
        with pytest.raises(
            ConfigurationError,
            match=r'engine="fastpath" cannot run this scenario: protocol '
            r"'bv-two-hop' has no Byzantine-capable fastpath kernel",
        ):
            sc.run()

    def test_scenario_rejects_fastpath_arbitrary_code_strategy(self):
        sc = byzantine_broadcast_scenario(
            r=1, t=1, protocol="cpa", strategy="noise",
            placement="random", seed=3, engine="fastpath",
        )
        with pytest.raises(
            ConfigurationError,
            match=r"Byzantine strategy 'noise' runs arbitrary node code "
            r"\(no fixed-strategy kernel",
        ):
            sc.run()

    def test_metric_is_never_silently_linf(self):
        """The complementary proof: the fastpath kernels honour the L2
        metric.  At a point where L2 and L-infinity observably diverge,
        fastpath-l2 must differ from fastpath-linf (no silent fallback)
        and agree byte-for-byte with reference-l2 (correct semantics)."""
        l2_point = make_point(
            protocol="crash-flood", r=2, side=14, t=2, seed=0,
            placement="strip", max_rounds=60,
            metric="l2",
        )
        linf_point = dict(l2_point, metric="linf")
        fast_l2 = observe(l2_point, "fastpath")
        fast_linf = observe(linf_point, "fastpath")
        assert fast_l2["committed"] != fast_linf["committed"], (
            "fastpath ignored the metric axis: l2 and linf runs are "
            "indistinguishable at a point where they must diverge"
        )
        assert_engines_agree(l2_point)
