"""Tests for repro.radio.node, repro.radio.trace and repro.radio.run."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.grid.bounded import BoundedGrid
from repro.grid.torus import Torus
from repro.radio.engine import Engine
from repro.radio.messages import Envelope
from repro.radio.node import Context, FunctionProcess, NodeProcess, SilentProcess
from repro.radio.run import grade_outcome, run_broadcast
from repro.radio.trace import Trace


class Committer(NodeProcess):
    """Commits to a fixed value at start; used to exercise grading."""

    def __init__(self, value=None):
        self.value = value

    def committed_value(self):
        return self.value


class TestNodeProcess:
    def test_default_hooks_are_noops(self):
        p = NodeProcess()
        t = Torus.square(5, 1)
        ctx = Engine(t, {}).context_of((0, 0))
        p.on_start(ctx)
        p.on_receive(ctx, Envelope((1, 1), "x", 0, 0, 0))
        p.on_round(ctx)
        p.on_round_end(ctx)
        assert p.committed_value() is None
        assert not p.is_decided()

    def test_function_process_dispatch(self):
        calls = []
        p = FunctionProcess(
            on_start=lambda ctx: calls.append("start"),
            on_receive=lambda ctx, env: calls.append("recv"),
            on_round=lambda ctx: calls.append("round"),
        )
        t = Torus.square(5, 1)
        ctx = Engine(t, {}).context_of((0, 0))
        p.on_start(ctx)
        p.on_receive(ctx, Envelope((1, 1), "x", 0, 0, 0))
        p.on_round(ctx)
        assert calls == ["start", "recv", "round"]

    def test_silent_process(self):
        assert SilentProcess().committed_value() is None

    def test_context_properties(self):
        t = Torus.square(7, 2, metric="l2")
        eng = Engine(t, {})
        ctx = eng.context_of((3, 3))
        assert ctx.r == 2
        assert ctx.metric_name == "l2"
        assert ctx.pending == 0
        ctx.broadcast("x")
        assert ctx.pending == 1


#: any integer coordinate: negative, past the side, or canonical
_coords = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


class TestContextLocalize:
    """``Context.localize`` does the shortest-wrapped-delta arithmetic
    inline; it must equal ``node + Torus.toroidal_delta(node, other)``."""

    @given(
        st.integers(1, 3),
        st.integers(0, 5),
        st.integers(0, 5),
        _coords,
        _coords,
    )
    def test_equals_node_plus_toroidal_delta(
        self, r, extra_w, extra_h, node, other
    ):
        # sides from 2r+1 up: odd, even and non-square tori
        torus = Torus(2 * r + 1 + extra_w, 2 * r + 1 + extra_h, r)
        ctx = Engine(torus, {}).context_of(node)
        home = torus.canonical(node)
        assert ctx.node == home
        dx, dy = torus.toroidal_delta(home, other)
        assert ctx.localize(other) == (home[0] + dx, home[1] + dy)

    @given(st.integers(1, 2), _coords)
    def test_identity_on_a_bounded_grid(self, r, other):
        ctx = Engine(BoundedGrid(6, 5, r), {}).context_of((2, 3))
        assert ctx.localize(other) == other


class TestTrace:
    def test_counters(self):
        tr = Trace()
        env = Envelope((0, 0), "m", 0, 0, 0)
        tr.on_transmission(env, 8)
        tr.on_transmission(Envelope((0, 0), "m2", 1, 0, 1), 8)
        tr.on_transmission(Envelope((1, 1), "m3", 2, 1, 0), 8)
        tr.on_round_end(1)
        assert tr.transmissions == 3
        assert tr.deliveries == 24
        assert tr.transmissions_of((0, 0)) == 2
        assert tr.transmissions_of((9, 9)) == 0
        assert tr.busiest_round() == (0, 2)
        assert tr.summary()["transmitting_nodes"] == 2

    def test_busiest_round_empty(self):
        assert Trace().busiest_round() == (-1, 0)

    def test_event_recording_toggle(self):
        tr = Trace(record_events=True)
        tr.on_transmission(Envelope((0, 0), "m", 0, 0, 0), 4)
        tr.on_crash((1, 1), 2)
        kinds = [e.kind for e in tr.events]
        assert kinds == ["tx", "crash"]
        tr2 = Trace(record_events=False)
        tr2.on_transmission(Envelope((0, 0), "m", 0, 0, 0), 4)
        assert tr2.events == []


class TestGrading:
    def _result(self, processes):
        t = Torus.square(5, 1)
        return Engine(t, processes).run()

    def test_all_correct_committed(self):
        t = Torus.square(5, 1)
        procs = {n: Committer(1) for n in t.nodes()}
        res = Engine(t, procs).run()
        outcome = grade_outcome(res, 1, set(t.nodes()))
        assert outcome.achieved and outcome.safe and outcome.live
        assert outcome.summary()["undecided"] == 0

    def test_wrong_commit_breaks_safety(self):
        t = Torus.square(5, 1)
        procs = {n: Committer(1) for n in t.nodes()}
        procs[(2, 2)] = Committer(0)
        res = Engine(t, procs).run()
        outcome = grade_outcome(res, 1, set(t.nodes()))
        assert not outcome.safe
        assert outcome.wrong_commits == {(2, 2): 0}
        assert not outcome.achieved

    def test_undecided_breaks_liveness(self):
        t = Torus.square(5, 1)
        procs = {n: Committer(1) for n in t.nodes()}
        procs[(2, 2)] = Committer(None)
        res = Engine(t, procs).run()
        outcome = grade_outcome(res, 1, set(t.nodes()))
        assert outcome.safe and not outcome.live
        assert outcome.undecided == [(2, 2)]

    def test_faulty_nodes_excluded_from_grading(self):
        t = Torus.square(5, 1)
        procs = {n: Committer(1) for n in t.nodes()}
        procs[(2, 2)] = Committer(0)  # faulty liar
        res = Engine(t, procs).run()
        correct = set(t.nodes()) - {(2, 2)}
        outcome = grade_outcome(res, 1, correct)
        assert outcome.achieved

    def test_run_broadcast_rejects_correct_crasher(self):
        t = Torus.square(5, 1)
        with pytest.raises(ValueError, match="both correct and crashing"):
            run_broadcast(
                t,
                {},
                1,
                {(0, 0)},
                crash_round={(0, 0): 0},
            )

    def test_outcome_metrics(self):
        t = Torus.square(5, 1)

        class Announce(Committer):
            def on_start(self, ctx):
                ctx.broadcast("v")

        outcome = run_broadcast(
            t, {(0, 0): Announce(1)}, 1, {(0, 0)}
        )
        assert outcome.messages == 1
        assert outcome.rounds >= 1


class TestFunctionProcessRoundEndHook:
    def test_on_round_end_dispatch(self):
        calls = []
        p = FunctionProcess(
            on_round=lambda ctx: calls.append("round"),
            on_round_end=lambda ctx: calls.append("round_end"),
        )
        t = Torus.square(5, 1)
        ctx = Engine(t, {}).context_of((0, 0))
        p.on_round(ctx)
        p.on_round_end(ctx)
        assert calls == ["round", "round_end"]

    def test_on_round_end_default_noop(self):
        p = FunctionProcess(on_round=lambda ctx: None)
        t = Torus.square(5, 1)
        p.on_round_end(Engine(t, {}).context_of((0, 0)))

    def test_engine_fires_on_round_end_after_transmissions(self):
        """on_round_end sees the frame's receptions (immediate delivery)."""
        t = Torus.square(5, 1)
        log = []
        heard = []
        sender = FunctionProcess(on_start=lambda ctx: ctx.broadcast("m"))
        listener = FunctionProcess(
            on_receive=lambda ctx, env: heard.append(env.payload),
            on_round_end=lambda ctx: log.append(list(heard)),
        )
        Engine(t, {(1, 1): sender, (1, 2): listener}).run()
        assert log[0] == ["m"]


class TestTraceCrashCounting:
    def test_summary_counts_crashes(self):
        tr = Trace()
        tr.on_crash((1, 1), 2)
        tr.on_crash((2, 2), 0)
        assert tr.crashes == 2
        assert tr.summary()["crashes"] == 2

    def test_crash_counted_without_event_recording(self):
        tr = Trace(record_events=False)
        tr.on_crash((1, 1), 0)
        assert tr.crashes == 1
        assert tr.events == []

    def test_dead_from_start_announced_once(self):
        """A node dead from round 0 is skipped both in _start and in round
        0's frame; the trace must still count its crash exactly once."""
        t = Torus.square(5, 1)
        sender = FunctionProcess(on_start=lambda ctx: ctx.broadcast("x"))
        res = Engine(
            t, {(1, 1): sender}, crash_round={(2, 2): 0}
        ).run()
        assert res.trace.crashes == 1
        assert res.trace.summary()["crashes"] == 1

    def test_mid_run_crash_counted_once(self):
        t = Torus.square(5, 1)

        class Chatter(NodeProcess):
            def on_round(self, ctx):
                ctx.broadcast(ctx.round)

        res = Engine(
            t,
            {(0, 0): Chatter()},
            crash_round={(3, 3): 2},
            max_rounds=6,
        ).run()
        assert res.trace.crashes == 1


class TestTraceEdges:
    def test_empty_trace_summary(self):
        # a trace that saw no events: zero aggregates, sentinel busiest
        trace = Trace()
        assert trace.summary() == {
            "rounds": 0,
            "transmissions": 0,
            "deliveries": 0,
            "transmitting_nodes": 0,
            "crashes": 0,
        }
        assert trace.busiest_round() == (-1, 0)
        assert trace.transmissions_of((0, 0)) == 0

    def test_trace_of_silent_network(self):
        # every process silent: rounds advance to quiescence detection,
        # but no transmissions or deliveries are ever logged
        t = Torus.square(3, 1)
        procs = {n: SilentProcess() for n in t.nodes()}
        res = Engine(t, procs, max_rounds=5).run()
        assert res.quiescent
        assert res.trace.transmissions == 0
        assert res.trace.deliveries == 0
        assert res.trace.summary()["transmitting_nodes"] == 0
