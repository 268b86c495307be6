"""Tests for repro.radio.engine: the paper's channel model invariants.

The properties under test are the ones every proof in the paper leans on:
reliable local broadcast (atomic full-neighborhood delivery), per-sender
FIFO ordering, unforgeable sender identity, deterministic TDMA execution,
and clean crash-stop semantics.
"""

import gc
import hashlib
import weakref

import pytest

from repro.errors import ConfigurationError
from repro.grid.factory import make_topology
from repro.grid.tdma import TDMASchedule, make_schedule, sequential_schedule
from repro.grid.torus import Torus
from repro.obs import JsonlRecorder
from repro.protocols.registry import correct_process_map
from repro.radio import engine as engine_module
from repro.radio.channel import ChannelImperfections
from repro.radio.engine import Engine
from repro.radio.node import Context, FunctionProcess, NodeProcess, SilentProcess


def collector(log, name):
    """A process recording (round, sender, payload) of everything heard."""

    def recv(ctx, env):
        log.append((name, env.sender, env.payload, env.seq))

    return FunctionProcess(on_receive=recv)


class Broadcaster(NodeProcess):
    def __init__(self, payloads):
        self.payloads = list(payloads)

    def on_start(self, ctx):
        for p in self.payloads:
            ctx.broadcast(p)


def recorded_flood(topology=None, rekey=None, **engine_kwargs):
    """A crash-flood run recorded with deliveries: ``(sha256 of the
    JSONL, event count)``.  The topology defaults to a 7x7, r=1 torus;
    ``rekey`` maps each process key to the key the engine is given.  The
    fastpath refuses the engine options these pins cover, so no
    differential test guards them."""
    topology = topology or Torus.square(7, 1)
    processes = correct_process_map(
        topology, "crash-flood", 0, (0, 0), 1, set(topology.nodes())
    )
    if rekey is not None:
        processes = {rekey(node): proc for node, proc in processes.items()}
    recorder = JsonlRecorder(record_deliveries=True)
    Engine(topology, processes, observers=(recorder,), **engine_kwargs).run()
    text = recorder.dumps()
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(recorder.events)


class TestDelivery:
    def test_atomic_full_neighborhood_delivery(self):
        t = Torus.square(7, 2)
        log = []
        procs = {(3, 3): Broadcaster(["hello"])}
        for nb in t.neighbors((3, 3)):
            procs[nb] = collector(log, nb)
        Engine(t, procs).run()
        receivers = {entry[0] for entry in log}
        assert receivers == set(t.neighbors((3, 3)))
        assert all(entry[2] == "hello" for entry in log)

    def test_sender_not_self_delivered(self):
        t = Torus.square(5, 1)
        log = []
        procs = {(0, 0): Broadcaster(["x"]), (2, 2): collector(log, (2, 2))}
        # (2,2) is NOT a neighbor of (0,0) on this torus with r=1
        Engine(t, procs).run()
        assert log == []

    def test_sender_identity_stamped(self):
        t = Torus.square(5, 1)
        log = []
        procs = {(1, 1): Broadcaster(["m"]), (1, 2): collector(log, "sink")}
        Engine(t, procs).run()
        assert log[0][1] == (1, 1)


class TestOrdering:
    def test_per_sender_fifo(self):
        t = Torus.square(5, 1)
        log = []
        procs = {
            (1, 1): Broadcaster(["a", "b", "c"]),
            (1, 2): collector(log, "sink"),
        }
        Engine(t, procs).run()
        assert [e[2] for e in log] == ["a", "b", "c"]

    def test_global_seq_total_order(self):
        """All receivers observe any one sender's messages at increasing
        global sequence numbers, and two receivers agree on the order."""
        t = Torus.square(5, 1)
        log1, log2 = [], []
        procs = {
            (1, 1): Broadcaster(["a", "b"]),
            (1, 2): collector(log1, "s1"),
            (2, 1): collector(log2, "s2"),
        }
        Engine(t, procs).run()
        assert [e[2] for e in log1] == [e[2] for e in log2] == ["a", "b"]
        assert [e[3] for e in log1] == [e[3] for e in log2]

    def test_determinism(self):
        def run_once():
            t = Torus.square(5, 1)
            log = []
            procs = {
                (0, 0): Broadcaster(["x"]),
                (4, 4): Broadcaster(["y"]),
                (0, 1): collector(log, "sink"),
            }
            res = Engine(t, procs).run()
            return [(e[1], e[2]) for e in log], res.trace.transmissions

        assert run_once() == run_once()


class TestRelaying:
    def test_multi_hop_relay_takes_rounds(self):
        """A relay chain advances at most one frame per unheard hop, and
        the engine counts rounds correctly."""
        t = Torus.square(9, 1)

        def make_relay(name):
            done = []

            def recv(ctx, env):
                if not done:
                    done.append(True)
                    ctx.broadcast(env.payload)

            return FunctionProcess(on_receive=recv)

        procs = {(0, 0): Broadcaster(["w"])}
        for x in range(1, 5):
            procs[(x, 0)] = make_relay(x)
        res = Engine(t, procs).run()
        assert res.quiescent
        assert res.trace.transmissions == 5  # source + 4 relays


class TestCrashSemantics:
    def test_dead_from_start_never_transmits(self):
        t = Torus.square(5, 1)
        log = []
        procs = {(1, 1): Broadcaster(["m"]), (1, 2): collector(log, "s")}
        res = Engine(t, procs, crash_round={(1, 1): 0}).run()
        assert log == []
        assert res.trace.transmissions == 0

    def test_crashed_receiver_does_not_process(self):
        t = Torus.square(5, 1)
        log = []
        procs = {(1, 1): Broadcaster(["m"]), (1, 2): collector(log, "s")}
        Engine(t, procs, crash_round={(1, 2): 0}).run()
        assert log == []

    def test_crash_mid_run_stops_future_relay(self):
        t = Torus.square(9, 1)

        def relay(ctx, env):
            ctx.broadcast(env.payload)

        log = []
        procs = {
            (0, 0): Broadcaster(["m"]),
            (1, 0): FunctionProcess(on_receive=relay),
            (2, 0): collector(log, "far"),
        }
        # (1,0) receives in round 0 but crashes at round 1, before its
        # next transmission opportunity... its slot in round 0 already
        # passed (sequential order (0,0) < (1,0))? No: row-major order puts
        # (0,0) first, so (1,0) CAN relay within round 0. Crash at round 0
        # instead: it never acts at all.
        Engine(t, procs, crash_round={(1, 0): 0}).run()
        assert log == []

    def test_negative_crash_round_rejected(self):
        t = Torus.square(5, 1)
        with pytest.raises(ConfigurationError):
            Engine(t, {}, crash_round={(0, 0): -1})

    def test_crash_clears_outbox(self):
        """Messages queued but not yet transmitted die with the node."""
        t = Torus.square(5, 1)
        log = []

        class QueueThenDie(NodeProcess):
            def on_round(self, ctx):
                if ctx.round == 0:
                    ctx.broadcast("never")

        procs = {(4, 4): QueueThenDie(), (4, 3): collector(log, "s")}
        # Slot order: (4,4) is the last node; it queues in round 0 and
        # transmits in round 0 normally. Crash at round 0 prevents even
        # queueing. Use round 0 crash:
        Engine(t, procs, crash_round={(4, 4): 0}).run()
        assert log == []


class TestLimits:
    def test_round_limit_stop(self):
        t = Torus.square(5, 1)

        class Chatter(NodeProcess):
            def on_round(self, ctx):
                ctx.broadcast(ctx.round)

        res = Engine(t, {(0, 0): Chatter()}, max_rounds=5).run()
        assert res.hit_round_limit
        assert not res.quiescent
        assert res.rounds == 5

    def test_message_limit(self):
        t = Torus.square(5, 1)
        res = Engine(
            t, {(0, 0): Broadcaster(list(range(100)))}, max_messages=10
        ).run()
        assert res.hit_message_limit
        assert res.trace.transmissions == 10

    @pytest.mark.parametrize("copies", [1, 3])
    def test_message_limit_counts_every_copy(self, copies):
        """Each on-air copy is a transmission, so the budget stops the
        run mid-payload rather than after the payload's last copy."""
        res = Engine(
            Torus.square(7, 1),
            {(0, 0): Broadcaster(list(range(5)))},
            channel=ChannelImperfections(tx_copies=copies),
            max_messages=4,
        ).run()
        assert res.hit_message_limit
        assert res.trace.transmissions == 4

    def test_message_limit_golden_jsonl(self):
        """A one-copy budget stop mid-frame of round 0."""
        assert recorded_flood(max_messages=12) == (
            "ef5bba92452a80d5bc408027bc1c1bb10dfb24552baac4c2b829b6f8a1649f9e",
            139,
        )

    def test_bad_max_rounds(self):
        with pytest.raises(ConfigurationError):
            Engine(Torus.square(5, 1), {}, max_rounds=0)

    def test_bad_idle_rounds(self):
        with pytest.raises(ConfigurationError):
            Engine(Torus.square(5, 1), {}, quiescent_after_idle_rounds=0)

    def test_idle_rounds_keep_timers_alive(self):
        """A process that schedules a future-round transmission survives
        the gap when the idle threshold allows it."""
        t = Torus.square(5, 1)
        log = []

        class LateSender(NodeProcess):
            def on_round(self, ctx):
                if ctx.round == 3:
                    ctx.broadcast("late")

        procs = {
            (1, 1): LateSender(),
            (1, 2): FunctionProcess(
                on_receive=lambda ctx, env: log.append(env.payload)
            ),
        }
        # default threshold (1 idle round): stops before round 3
        Engine(t, procs, max_rounds=10).run()
        assert log == []
        log.clear()
        procs = {
            (1, 1): LateSender(),
            (1, 2): FunctionProcess(
                on_receive=lambda ctx, env: log.append(env.payload)
            ),
        }
        Engine(t, procs, max_rounds=10, quiescent_after_idle_rounds=5).run()
        assert log == ["late"]


class TestEndOfRoundDelivery:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="delivery"):
            Engine(Torus.square(5, 1), {}, delivery="eventually")

    def test_reception_delayed_one_round(self):
        t = Torus.square(5, 1)
        log = []
        procs = {
            (1, 1): Broadcaster(["m"]),
            (1, 2): FunctionProcess(
                on_receive=lambda ctx, env: log.append(ctx.round)
            ),
        }
        Engine(t, procs, delivery="end-of-round").run()
        assert log == [1]  # transmitted round 0, processed round 1

    def test_relay_advances_one_hop_per_round(self):
        """Under synchronous delivery a k-hop relay chain takes k rounds."""
        t = Torus.square(11, 1)

        def make_relay():
            done = []

            def recv(ctx, env):
                if not done:
                    done.append(True)
                    ctx.broadcast(env.payload)

            return FunctionProcess(on_receive=recv)

        arrival = []
        procs = {(0, 0): Broadcaster(["w"])}
        for x in range(1, 4):
            procs[(x, 0)] = make_relay()
        procs[(4, 0)] = FunctionProcess(
            on_receive=lambda ctx, env: arrival.append(ctx.round)
        )
        res = Engine(t, procs, delivery="end-of-round").run()
        assert res.quiescent
        assert arrival and arrival[0] == 4  # 4 hops -> round 4

    def test_atomicity_preserved(self):
        t = Torus.square(5, 1)
        logs = {}
        procs = {(2, 2): Broadcaster(["a", "b"])}
        for nb in t.neighbors((2, 2)):
            logs[nb] = []
            procs[nb] = FunctionProcess(
                on_receive=lambda ctx, env, log=logs[nb]: log.append(
                    env.payload
                )
            )
        Engine(t, procs, delivery="end-of-round").run()
        assert all(log == ["a", "b"] for log in logs.values())

    def test_quiescence_waits_for_pending(self):
        """A run must not end with undelivered receptions in flight."""
        t = Torus.square(5, 1)
        log = []
        procs = {
            (1, 1): Broadcaster(["m"]),
            (1, 2): FunctionProcess(
                on_receive=lambda ctx, env: log.append(env.payload)
            ),
        }
        res = Engine(t, procs, delivery="end-of-round").run()
        assert res.quiescent
        assert log == ["m"]

    def test_golden_jsonl_with_staggered_crashes(self):
        crash_round = {(2, 2): 0, (3, 1): 1, (1, 3): 2}
        assert recorded_flood(
            delivery="end-of-round", crash_round=crash_round
        ) == (
            "2add18c4f8179c1b2da5217029185daf102b2f746b4e4c77284cbfc966cbda58",
            466,
        )


class TestConfiguration:
    def test_missing_processes_default_silent(self):
        t = Torus.square(5, 1)
        res = Engine(t, {}).run()
        assert res.quiescent
        assert res.trace.transmissions == 0

    def test_noncanonical_process_keys(self):
        t = Torus.square(5, 1)
        log = []
        procs = {(5, 5): Broadcaster(["m"]), (0, 1): collector(log, "s")}
        Engine(t, procs).run()  # (5,5) wraps to (0,0), neighbor of (0,1)
        assert [e[2] for e in log] == ["m"]

    def test_halted_node_stops_receiving(self):
        t = Torus.square(5, 1)
        log = []

        class OneShot(NodeProcess):
            def on_receive(self, ctx, env):
                log.append(env.payload)
                ctx.halt()

        procs = {(1, 1): Broadcaster(["a", "b"]), (1, 2): OneShot()}
        Engine(t, procs).run()
        assert log == ["a"]

    def test_halt_still_flushes_outbox(self):
        t = Torus.square(5, 1)
        log = []

        class AnnounceAndHalt(NodeProcess):
            def on_start(self, ctx):
                ctx.broadcast("bye")
                ctx.halt()

        procs = {(1, 1): AnnounceAndHalt(), (1, 2): collector(log, "s")}
        Engine(t, procs).run()
        assert [e[2] for e in log] == ["bye"]

    def test_context_localize(self):
        t = Torus.square(7, 2)
        eng = Engine(t, {})
        ctx = eng.context_of((0, 0))
        assert ctx.localize((6, 6)) == (-1, -1)
        assert ctx.localize((3, 3)) == (3, 3)

    def test_result_committed_empty_for_plain_processes(self):
        t = Torus.square(5, 1)
        res = Engine(t, {(0, 0): Broadcaster(["z"])}).run()
        assert res.committed() == {}
        assert res.decided_nodes() == []
        assert len(res.undecided_nodes()) == 25


class TestRegressionFixes:
    """Regression pins for engine bugs fixed alongside the observer layer."""

    def test_falsy_process_not_replaced_by_silent(self):
        """A process whose class defines a falsy __bool__/__len__ is still
        a real process; only a missing (None) entry means SilentProcess."""
        t = Torus.square(5, 1)

        class FalsyProcess(NodeProcess):
            def __bool__(self):
                return False

        class EmptyProcess(NodeProcess):
            def __len__(self):
                return 0

        falsy, empty = FalsyProcess(), EmptyProcess()
        eng = Engine(t, {(0, 0): falsy, (1, 1): empty})
        assert eng.processes[(0, 0)] is falsy
        assert eng.processes[(1, 1)] is empty
        assert isinstance(eng.processes[(2, 2)], SilentProcess)

    def test_falsy_process_still_runs(self):
        t = Torus.square(5, 1)
        log = []

        class FalsyBroadcaster(NodeProcess):
            def __bool__(self):
                return False

            def on_start(self, ctx):
                ctx.broadcast("present")

        procs = {
            (1, 1): FalsyBroadcaster(),
            (1, 2): collector(log, "sink"),
        }
        Engine(t, procs).run()
        assert [e[2] for e in log] == ["present"]

    def test_message_budget_stop_accounts_partial_round(self):
        """A round truncated mid-frame by the message budget still counts:
        result.rounds and engine.round agree, and the trace saw the
        round end."""
        t = Torus.square(5, 1)
        eng = Engine(
            t, {(0, 0): Broadcaster(list(range(100)))}, max_messages=10
        )
        res = eng.run()
        assert res.hit_message_limit
        assert res.rounds == eng.round + 1 == 1
        assert res.trace.rounds == 1

    def test_message_budget_stop_in_later_round(self):
        t = Torus.square(5, 1)

        class Chatter(NodeProcess):
            def on_round(self, ctx):
                ctx.broadcast(ctx.round)

        eng = Engine(t, {(0, 0): Chatter()}, max_messages=3)
        res = eng.run()
        assert res.hit_message_limit
        # one tx per round: budget trips while draining round 3's outbox
        assert res.rounds == eng.round + 1 == res.trace.rounds == 4

    def test_finished_engine_is_freed_without_the_cyclic_collector(self):
        """Contexts reach the engine's state through a shared ``World``,
        not the engine, so no Engine <-> Context cycle keeps a finished
        trial alive until the cyclic GC runs; the result's processes
        still answer afterwards."""
        t = Torus.square(7, 1)
        procs = correct_process_map(
            t, "bv-two-hop", 1, (0, 0), 1, set(t.nodes())
        )
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            eng = Engine(t, procs)
            ctx = eng.context_of((3, 3))
            res = eng.run()
            alive = weakref.ref(eng)
            del eng
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()
        assert all(p.committed_value() == 1 for p in res.processes.values())
        assert ctx.round == res.rounds - 1  # a context outlives its engine


class TestMalformedInputs:
    """Inputs the engine used to accept and then trip over (or silently
    keep): each is a named error at construction."""

    def test_none_process_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\(1, 1\)"):
            Engine(
                Torus.square(7, 1),
                {(0, 0): Broadcaster(["m"]), (1, 1): None},
            )

    def test_crash_round_for_non_node_rejected(self):
        grid = make_topology("bounded", 9, 1, "linf")
        with pytest.raises(ConfigurationError, match=r"\(50, 50\)"):
            Engine(grid, {}, crash_round={(50, 50): 0})

    def test_schedule_naming_non_node_rejected(self):
        t = Torus.square(7, 1)
        schedule = TDMASchedule(
            sequential_schedule(t).slots + (((99, 99),),)
        )
        with pytest.raises(ConfigurationError, match=r"\(99, 99\)"):
            Engine(t, {}, schedule=schedule)


class TestWiring:
    """The trial-invariant wiring: shared per torus shape under the
    default schedule, built per engine everywhere else, and in the
    neighbor-map and schedule orders the runs depend on."""

    def test_equal_tori_share_one_wiring(self):
        a = Engine(Torus.square(13, 2), {})
        b = Engine(Torus.square(13, 2), {})
        assert a._wiring is b._wiring
        assert a.schedule is b.schedule

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (Torus.square(7, 1), make_schedule(Torus.square(7, 1))),
            lambda: (make_topology("bounded", 9, 1), None),
        ],
        ids=["caller-schedule", "bounded"],
    )
    def test_other_engines_build_their_own(self, make):
        topology, schedule = make()
        a = Engine(topology, {}, schedule=schedule)
        b = Engine(topology, {}, schedule=schedule)
        assert a._wiring is not b._wiring

    def test_memo_holds_at_most_four_shapes(self):
        assert engine_module._torus_wiring.cache_info().maxsize == 4
        for side in (7, 8, 9, 10, 11):
            Engine(Torus.square(side, 1), {})
        assert engine_module._torus_wiring.cache_info().currsize <= 4

    @pytest.mark.parametrize(
        "topology",
        [
            Torus.square(13, 2),
            Torus(9, 11, 1, "l1"),
            Torus.square(10, 2),
            make_topology("bounded", 9, 2),
        ],
        ids=repr,
    )
    def test_orders_follow_neighbor_map_and_schedule(self, topology):
        wiring = Engine(topology, {})._wiring
        nodes = wiring.nodes
        neighbors = topology.neighbor_map()
        assert nodes == list(neighbors)
        assert [
            tuple(nodes[j] for j in ball) for ball in wiring.receivers
        ] == list(neighbors.values())
        assert tuple(
            tuple(nodes[j] for j in group) for group in wiring.slots
        ) == wiring.schedule.slots == make_schedule(topology).slots

    def test_memo_keeps_no_trial_object(self, monkeypatch):
        """With the cyclic collector off, a finished engine's processes
        and contexts die with it: the shared wiring holds none of them."""

        class WeakContext(Context):
            __slots__ = ("__weakref__",)

        monkeypatch.setattr(engine_module, "Context", WeakContext)
        t = Torus.square(7, 1)
        procs = correct_process_map(
            t, "crash-flood", 0, (0, 0), 1, set(t.nodes())
        )
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            eng = Engine(t, procs)
            eng.run()
            proc = weakref.ref(eng.processes[(3, 3)])
            ctx = weakref.ref(eng.context_of((3, 3)))
            del eng, procs
            assert proc() is None
            assert ctx() is None
        finally:
            if was_enabled:
                gc.enable()


class TestWiringGoldenJsonl:
    """Engine paths no other JSONL pin covers; computed before the
    engine moved to flat wiring and unchanged by it."""

    def test_bounded_grid(self):
        assert recorded_flood(make_topology("bounded", 9, 1)) == (
            "95cc61f8f03062d76931407c5c4e6fc0d3265f16e93f86309414f6928af1eb48",
            716,
        )

    def test_coloring_schedule_with_multi_node_slots(self):
        torus = Torus.square(10, 2)
        assert make_schedule(torus).name == "coloring(k=5)"
        assert recorded_flood(torus) == (
            "0f27d3c99b6f22dc27f477386de3bde7479ba6fffcf54bb25f175377c66b4c88",
            2633,
        )

    def test_caller_supplied_schedule(self):
        torus = Torus.square(7, 1)
        backwards = TDMASchedule(
            tuple((node,) for node in sorted(torus.nodes(), reverse=True))
        )
        assert recorded_flood(torus, schedule=backwards) == (
            "56a8f2798dea9c2b1e271c9beb0e6eba566363f8c2e6cd0a8da4ea8a8529bc56",
            507,
        )

    def test_non_canonical_process_keys(self):
        assert recorded_flood(
            Torus.square(13, 2), rekey=lambda p: (p[0] + 13, p[1] - 26)
        ) == (
            "677362c9fc925a9d80757de4813a9b084f129cc0de16f57d2f90d7af8878ee5a",
            4425,
        )
