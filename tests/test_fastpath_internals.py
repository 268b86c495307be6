"""Unit tests for the fastpath engine's internal data structures.

The differential suite (``tests/test_fastpath_differential.py``) pins
the *observable* equivalence contract; this module pins the internal
building blocks directly, so a bug in one of them fails with a local,
named assertion instead of a whole-run byte diff:

- :func:`~repro.radio.fastpath.stats.fill_stats` -- the one statistics
  pass every kernel hands its message order to, on hand-built orders,
  observed and not;
- the runner's fault masks and grading from masks
  (:meth:`FastSimulationResult.failing_nodes` against the base class's
  walk over the processes), a NaN source value included;
- the lattice memo behind :func:`~repro.radio.fastpath.runner.get_lattice`;
- the :class:`~repro.radio.fastpath.lattice.Lattice` vectorized TDMA
  construction vs :func:`repro.grid.tdma.make_schedule` -- same slots,
  same order, same members;
- both branches of :meth:`Lattice.balls_of` -- the lazy ``nbr_idx``
  table small tori gather from, and the on-the-fly ball stencil above
  the table cap.
"""

from __future__ import annotations

from itertools import compress

import pytest

from repro.grid.tdma import make_schedule
from repro.grid.torus import Torus
from repro.radio.fastpath import HAVE_NUMPY

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="fastpath engine needs numpy"
)


# -- vectorized TDMA vs make_schedule -------------------------------------


@pytest.mark.parametrize(
    "w,h,r",
    [
        (3, 3, 1),    # minimal coloring torus
        (9, 9, 1),    # coloring
        (9, 6, 1),    # coloring, non-square
        (10, 10, 1),  # sequential (10 % 3 != 0)
        (5, 5, 2),    # minimal torus for r=2, sequential
        (10, 10, 2),  # coloring (k=5)
        (10, 15, 2),  # coloring, non-square
        (12, 10, 2),  # sequential (12 % 5 != 0)
        (7, 7, 3),    # coloring (k=7)
    ],
)
def test_lattice_schedule_matches_make_schedule(w, h, r):
    """The lattice's argsort/split construction must reproduce
    ``make_schedule`` exactly: same slot count, same slot order, same
    members in the same (sorted-coordinate) order."""
    from repro.radio.fastpath.lattice import Lattice

    topology = Torus(w, h, r)
    lattice = Lattice(topology)
    schedule = make_schedule(topology)

    assert len(lattice.slot_groups) == len(schedule.slots)
    for group, slot_nodes in zip(lattice.slot_groups, schedule.slots):
        assert [lattice.coords_all[i] for i in group] == list(slot_nodes)
    for node in topology.nodes():
        assert int(lattice.slot_of[lattice.flat(node)]) == (
            schedule.slot_of(node)
        )


# -- ball stencil vs neighbor table ---------------------------------------


@pytest.mark.parametrize("metric", ("linf", "l1", "l2"))
@pytest.mark.parametrize("w,h,r", [(5, 5, 1), (7, 9, 2), (5, 6, 2)])
def test_stencil_matches_neighbor_table(w, h, r, metric):
    """``balls_of`` computes exactly ``nbr_idx[idxs]`` -- same receiver
    sets in the same (metric offset) order -- on the table branch and on
    the stencil branch that skips the O(N*K) table."""
    import numpy as np

    from repro.radio.fastpath.lattice import Lattice

    lattice = Lattice(Torus(w, h, r, metric=metric))
    idxs = np.arange(lattice.num_nodes)
    # per-point oracle, independent of the shared stencil tables
    want = np.array(
        [
            [((x + dx) % w) * h + (y + dy) % h for dx, dy in lattice.offsets]
            for x in range(w)
            for y in range(h)
        ]
    )
    assert (lattice.nbr_idx == want).all()
    assert (lattice.balls_of(idxs) == want).all()
    # the on-the-fly branch large tori take (no table) agrees too
    lattice._use_table = False
    assert (lattice.balls_of(idxs) == want).all()
    coords = lattice.coords_all
    for i in (0, lattice.num_nodes // 2, lattice.num_nodes - 1):
        # the stencil order is the topology's neighbor order
        assert [coords[j] for j in lattice.balls_of([i])[0]] == [
            lattice.topology.canonical(nb)
            for nb in lattice.topology.neighbors(coords[i])
        ]


# -- the statistics pass on hand-built message orders --------------------

#: 6x6 torus, r=1 linf: 8-node balls (the sender excluded), 9 slots;
#: node (x, y) fires in slot (x % 3) * 3 + y % 3
_SLOTS = 9
_NEVER = 2**62


def _fill(messages, commits=(), rounds=1, crash=None, sources=(),
          observed=True):
    """Run the pass on ``messages`` -- ``(sender, round, slot)`` triples in
    transmission order -- and ``commits`` -- ``(node, round)`` pairs --
    on the 6x6 torus; returns the stats, the lattice and the trackers
    (``None`` for an unobserved run)."""
    import numpy as np

    from repro.radio.fastpath.lattice import Lattice
    from repro.radio.fastpath.stats import (
        KernelStats,
        SourceTracker,
        fill_stats,
    )

    lattice = Lattice(Torus(6, 6, 1))
    crash_rounds = np.full(lattice.num_nodes, _NEVER, dtype=np.int64)
    for node, rnd in (crash or {}).items():
        crash_rounds[lattice.flat(node)] = rnd
    trackers = [SourceTracker(s, lattice.distance_from(s)) for s in sources]
    if not observed:
        trackers = None
    stats = fill_stats(
        KernelStats(rounds=rounds),
        lattice,
        senders=[lattice.flat(node) for node, _, _ in messages],
        times=[rnd * _SLOTS + slot for _, rnd, slot in messages],
        commit_idx=[lattice.flat(node) for node, _ in commits],
        commit_rounds=[rnd for _, rnd in commits],
        crash_rounds=crash_rounds,
        trackers=trackers,
    )
    return stats, lattice, trackers


class TestFillStats:
    def test_receiver_reached_in_two_slots_counts_twice(self):
        """(0, 1) and (1, 0) lie in the balls of both (0, 0) (slot 0)
        and (1, 1) (slot 4): each reception counts, so they read 2."""
        stats, _, _ = _fill([((0, 0), 0, 0), ((1, 1), 0, 4)])
        assert stats.rx_by_node[(0, 1)] == 2
        assert stats.rx_by_node[(1, 0)] == 2
        assert stats.rx_by_node[(1, 1)] == 1  # hears (0, 0) only
        assert stats.rx_by_node[(0, 0)] == 1  # hears (1, 1) only
        assert sum(stats.rx_by_node.values()) == 16
        assert stats.deliveries_by_round == {0: 16}
        assert stats.obs_deliveries == 16
        assert stats.tx_by_round == {0: 2}
        assert stats.tx_by_node == {(0, 0): 1, (1, 1): 1}

    def test_crashed_receiver_drops_out_of_live_deliveries_only(self):
        """A receiver dead by a round hears nothing in it, but the
        message still counts its full fan-out; a node crashing at round
        1 still hears round 0."""
        stats, _, _ = _fill(
            [((0, 0), 0, 0), ((0, 0), 1, 0)],
            rounds=2,
            crash={(0, 1): 0, (1, 0): 1},
        )
        assert stats.transmissions == 2
        assert stats.fanout_deliveries == 16
        assert stats.deliveries_by_round == {0: 7, 1: 6}
        assert stats.obs_deliveries == 13
        assert (0, 1) not in stats.rx_by_node
        assert stats.rx_by_node[(1, 0)] == 1
        assert stats.rx_by_node[(1, 1)] == 2
        assert stats.crashes == 2

    def test_crash_counted_only_once_its_round_runs(self):
        stats, _, _ = _fill(
            [((0, 0), 0, 0)], rounds=1, crash={(0, 1): 0, (1, 0): 1}
        )
        assert stats.crashes == 1

    def test_budget_cut_last_round_gets_its_snapshot(self):
        """A budget that trips on the first message of round 2 leaves
        that round executed but silent: it has no counters, yet its
        snapshot repeats the cumulative radii of round 1.  The source's
        SRC + COMMITTED burst repeats its sender."""
        stats, _, (tr,) = _fill(
            [((0, 0), 0, 0), ((0, 0), 0, 0), ((2, 2), 1, 8)],
            commits=[((0, 0), -1), ((1, 1), 0), ((2, 2), 0)],
            rounds=3,
            sources=[(0, 0)],
        )
        assert stats.tx_by_node[(0, 0)] == 2
        assert stats.tx_by_round == {0: 2, 1: 1}
        assert stats.deliveries_by_round == {0: 16, 1: 8}
        assert tr.delivery_wavefront == {0: 1.0, 1: 3.0, 2: 3.0}
        assert tr.commit_wavefront == {0: 2.0, 1: 2.0, 2: 2.0}

    def test_round_minus_one_commits_widen_round_zero_front(self):
        """``on_start`` commits (round -1) have no snapshot of their own;
        they widen the commit front that round 0's snapshot records."""
        stats, _, (tr,) = _fill(
            [((0, 0), 0, 0)],
            commits=[((0, 0), -1), ((3, 3), -1), ((1, 1), 0)],
            sources=[(0, 0)],
        )
        assert tr.commit_wavefront == {0: 3.0}
        assert stats.commits_by_round == {-1: 2, 0: 1}
        assert stats.commit_round == {(0, 0): -1, (3, 3): -1, (1, 1): 0}

    def test_empty_order(self):
        stats, _, (tr,) = _fill(
            [], rounds=1, crash={(2, 2): 0}, sources=[(0, 0)]
        )
        assert (stats.transmissions, stats.fanout_deliveries) == (0, 0)
        assert stats.obs_deliveries == 0
        assert stats.tx_by_node == stats.rx_by_node == {}
        assert stats.tx_by_round == stats.deliveries_by_round == {}
        assert stats.commit_round == stats.commits_by_round == {}
        assert stats.crashes == 1
        assert tr.commit_wavefront == tr.delivery_wavefront == {0: 0.0}

    def test_order_within_a_round_is_free(self):
        """Sums and cumulative maxima: permuting messages and commits
        inside their rounds changes no counter and no snapshot."""
        messages = [((0, 0), 0, 0), ((1, 1), 0, 4), ((3, 3), 1, 0)]
        commits = [((0, 0), -1), ((1, 1), 0), ((2, 2), 0), ((4, 4), 1)]
        a, _, (ta,) = _fill(messages, commits, rounds=2, sources=[(0, 0)])
        b, _, (tb,) = _fill(
            [messages[1], messages[0], messages[2]],
            [commits[0], commits[2], commits[1], commits[3]],
            rounds=2,
            sources=[(0, 0)],
        )
        assert a == b
        assert ta.commit_wavefront == tb.commit_wavefront
        assert ta.delivery_wavefront == tb.delivery_wavefront

    def test_unobserved_run_fills_only_the_trace_counters(self):
        """Without a ``RunMetrics`` observer the pass fills what the
        ``Trace`` reads, equal to an observed run's, and leaves every
        ``RunMetrics`` field empty."""
        from repro.radio.fastpath.stats import KernelStats

        args = (
            [((0, 0), 0, 0), ((0, 0), 0, 0), ((1, 1), 0, 4), ((3, 3), 1, 0)],
            [((0, 0), -1), ((1, 1), 0), ((3, 3), 0)],
        )
        seen, _, _ = _fill(*args, rounds=3, crash={(0, 1): 1})
        plain, _, none = _fill(*args, rounds=3, crash={(0, 1): 1},
                               observed=False)
        assert none is None
        trace_fields = ("rounds", "transmissions", "fanout_deliveries",
                        "crashes", "tx_by_node", "tx_by_round")
        for name in trace_fields:
            assert getattr(plain, name) == getattr(seen, name), name
        assert plain.tx_by_round == {0: 3, 1: 1}
        assert plain.crashes == 1
        empty = KernelStats(rounds=3)
        for name in ("obs_deliveries", "deliveries_by_round", "rx_by_node",
                     "commit_round", "commits_by_round"):
            assert getattr(plain, name) == getattr(empty, name), name
            assert getattr(seen, name) != getattr(empty, name), name


# -- fault masks and grading from masks -----------------------------------


def _masks(**scenario):
    from repro.experiments.scenarios import BroadcastScenario
    from repro.radio.fastpath.runner import _fault_masks, get_lattice

    sc = BroadcastScenario(
        topology=Torus(7, 5, 1), protocol="cpa", t=1, **scenario
    )
    return _fault_masks(get_lattice(sc.topology), sc)


class TestFaultMasks:
    def test_no_faults(self):
        correct, crash_rounds = _masks()
        assert correct.all() and correct.size == 35
        assert (crash_rounds == _NEVER).all()

    def test_byzantine_and_crashing_nodes(self):
        """Both kinds leave the correct mask; only crashing nodes get a
        crash round (the scenario reduces (9, -1) to (2, 4))."""
        from repro.faults.byzantine import make_byzantine

        correct, crash_rounds = _masks(
            byzantine_processes={
                (6, 4): make_byzantine("silent", 1, (0, 0)),
                (9, -1): make_byzantine("silent", 1, (0, 0)),
            },
            crash_round={(1, 1): 0, (3, 2): 4},
        )
        flat = {(6, 4): 34, (2, 4): 14, (1, 1): 6, (3, 2): 17}
        assert sorted((~correct).nonzero()[0].tolist()) == sorted(
            flat.values()
        )
        assert {
            i: r for i, r in enumerate(crash_rounds.tolist()) if r != _NEVER
        } == {6: 0, 17: 4}


class TestGradingFromMasks:
    """``FastSimulationResult.failing_nodes`` answers what the base
    class's walk over the processes answers."""

    def _both(self, result, value, correct):
        from repro.radio.engine import SimulationResult

        walked = SimulationResult.failing_nodes(result, value, correct)
        assert result.failing_nodes(value, correct) == walked
        return walked

    def _result(self, value, wrong=None):
        import numpy as np

        from repro.radio.fastpath.result import (
            FastSimulationResult,
            build_processes,
        )
        from repro.radio.trace import Trace

        nodes = [(x, y) for x in range(3) for y in range(3)]
        correct = np.array([1, 1, 1, 0, 1, 1, 1, 1, 0], dtype=bool)
        committed = np.array([1, 0, 1, 0, 1, 1, 1, 0, 0], dtype=bool)
        wrong = wrong or {}
        result = FastSimulationResult(
            rounds=1, quiescent=True, hit_round_limit=False,
            hit_message_limit=False, trace=Trace(),
            processes=build_processes(nodes, committed.tolist(), value, wrong),
            nodes=nodes, correct_mask=correct, committed_mask=committed,
            wrong_values=wrong,
        )
        return result, set(compress(nodes, correct.tolist()))

    def test_undecided_nodes_fail(self):
        result, correct = self._result(1)
        assert self._both(result, 1, correct) == [(0, 1), (2, 1)]

    def test_wrong_values_merge_in_node_order(self):
        result, correct = self._result(1, wrong={(2, 0): 7, (0, 2): 0})
        assert self._both(result, 1, correct) == [
            (0, 1), (0, 2), (2, 0), (2, 1)
        ]

    def test_a_value_equal_to_the_source_value_passes(self):
        """The kernels bucket values by dict equality; ``True == 1``."""
        result, correct = self._result(1, wrong={(2, 0): True})
        assert self._both(result, 1, correct) == [(0, 1), (2, 1)]

    def test_nan_source_value_fails_every_correct_node(self):
        nan = float("nan")
        result, correct = self._result(nan)
        assert self._both(result, nan, correct) == sorted(correct)

    def test_another_correct_set_gets_the_walk(self):
        """A set other than the mask's grades as the base class would."""
        result, correct = self._result(1, wrong={(2, 0): 7})
        fewer = correct - {(0, 1)}
        assert self._both(result, 1, fewer) == [(2, 0), (2, 1)]
        more = correct | {(1, 0)}
        assert self._both(result, 1, more) == [(0, 1), (1, 0), (2, 0), (2, 1)]


@pytest.mark.parametrize("protocol", ["crash-flood", "cpa", "bv-two-hop"])
def test_nan_source_value_grades_the_same_on_both_engines(protocol):
    """A source value unequal to itself, passed as
    ``scenario_kwargs.value``: every committed correct node holds a
    value ``!=`` the source's, so it counts as a wrong commit, with and
    without metrics, on both engines."""
    from repro.exec import ScenarioSpec, run_trial

    for metrics in (False, True):
        rows = [
            run_trial(
                ScenarioSpec(
                    kind="crash", r=1, t=1, protocol=protocol,
                    placement="random", engine=engine,
                    collect_metrics=metrics,
                    scenario_kwargs=(("value", float("nan")),),
                ),
                11,
            )
            for engine in ("reference", "fastpath")
        ]
        assert rows[0] == rows[1]
        assert not rows[0]["safe"] and not rows[0]["achieved"]
    assert rows[0]["wrong_commits"] > 0


# -- the lattice memo -----------------------------------------------------


class TestLatticeMemo:
    def test_equal_tori_share_one_lattice(self):
        from repro.radio.fastpath.runner import _lattice, get_lattice

        a = get_lattice(Torus(9, 6, 1))
        assert get_lattice(Torus(9, 6, 1)) is a
        assert get_lattice(Torus(9, 6, 1, metric="l1")) is not a
        assert _lattice.cache_info().maxsize == 4

    def test_non_torus_refused(self):
        from repro.errors import ConfigurationError
        from repro.grid.bounded import BoundedGrid
        from repro.radio.fastpath.runner import get_lattice

        with pytest.raises(ConfigurationError, match="only Torus"):
            get_lattice(BoundedGrid(9, 9, 1))
