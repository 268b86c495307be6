"""Tests for Section X made executable: ChannelImperfections, spoofing,
jamming, loss, and retransmission (repro.radio.channel / .resilience,
repro.faults.channel_attacks)."""

import hashlib

import pytest

from repro.errors import ConfigurationError, ProtocolViolationError, SpoofingError
from repro.experiments.scenarios import crash_broadcast_scenario, recommended_torus
from repro.faults.channel_attacks import (
    NeighborFramer,
    RoundJammer,
    SourceImpersonator,
)
from repro.grid.torus import Torus
from repro.obs import JsonlRecorder
from repro.protocols.registry import correct_process_map
from repro.radio.channel import PERFECT_CHANNEL, ChannelImperfections
from repro.radio.engine import Engine
from repro.radio.node import FunctionProcess, NodeProcess
from repro.radio.resilience import RetransmittingProcess
from repro.radio.run import run_broadcast


class Broadcaster(NodeProcess):
    def __init__(self, payloads):
        self.payloads = list(payloads)

    def on_start(self, ctx):
        for p in self.payloads:
            ctx.broadcast(p)


def collector(log):
    return FunctionProcess(on_receive=lambda ctx, env: log.append(env))


def jsonl_pin(recorder):
    """``(sha256 of the JSONL, event count)`` of a recorded run."""
    text = recorder.dumps()
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(recorder.events)


class TestChannelConfig:
    def test_defaults_are_perfect(self):
        assert PERFECT_CHANNEL.is_perfect
        assert ChannelImperfections().is_perfect

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelImperfections(loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            ChannelImperfections(loss_rate=-0.1)
        with pytest.raises(ConfigurationError):
            ChannelImperfections(tx_copies=0)
        with pytest.raises(ConfigurationError):
            ChannelImperfections(max_jam_rounds_per_node=-1)

    def test_imperfect_flags(self):
        assert not ChannelImperfections(allow_spoofing=True).is_perfect
        assert not ChannelImperfections(loss_rate=0.5).is_perfect
        assert not ChannelImperfections(tx_copies=3).is_perfect


class TestSpoofingEnforcement:
    def test_spoofing_rejected_on_perfect_channel(self):
        """The engine enforces the no-spoofing assumption."""
        t = Torus.square(5, 1)
        eng = Engine(t, {(0, 0): SourceImpersonator(0, source=(2, 2))})
        with pytest.raises(SpoofingError, match="forbids address spoofing"):
            eng.run()

    def test_spoofed_sender_stamped_when_allowed(self):
        t = Torus.square(5, 1)
        log = []
        eng = Engine(
            t,
            {
                (1, 1): SourceImpersonator(0, source=(4, 4)),
                (1, 2): collector(log),
            },
            channel=ChannelImperfections(allow_spoofing=True),
        )
        eng.run()
        assert log and log[0].sender == (4, 4)  # the forged identity

    def test_source_impersonation_breaks_safety(self):
        """Section X: with spoofing, ONE Byzantine node defeats reliable
        broadcast (CPA's direct-source rule is poisoned)."""
        torus = recommended_torus(1)
        attacker = (3, 3)  # far from the true source (0,0)
        correct = set(torus.nodes()) - {attacker}
        processes = correct_process_map(torus, "cpa", 1, (0, 0), 1, correct)
        processes[attacker] = SourceImpersonator(0, source=(0, 0))
        out = run_broadcast(
            torus,
            processes,
            1,
            correct,
            channel=ChannelImperfections(allow_spoofing=True),
        )
        assert not out.safe
        assert out.wrong_commits  # neighbors of the impersonator got 0

    def test_neighbor_framer_breaks_cpa(self):
        torus = recommended_torus(1)
        attacker = (3, 3)
        correct = set(torus.nodes()) - {attacker}
        processes = correct_process_map(torus, "cpa", 1, (0, 0), 1, correct)
        processes[attacker] = NeighborFramer(0)
        out = run_broadcast(
            torus,
            processes,
            1,
            correct,
            channel=ChannelImperfections(allow_spoofing=True),
        )
        assert not out.safe

    def test_same_attacks_harmless_without_spoofing_permission(self):
        """On the enforced channel the attack cannot even be expressed."""
        torus = recommended_torus(1)
        attacker = (3, 3)
        correct = set(torus.nodes()) - {attacker}
        processes = correct_process_map(torus, "cpa", 1, (0, 0), 1, correct)
        processes[attacker] = NeighborFramer(0)
        with pytest.raises(SpoofingError):
            run_broadcast(torus, processes, 1, correct)


class TestJamming:
    def test_jam_rejected_on_perfect_channel(self):
        t = Torus.square(5, 1)
        eng = Engine(t, {(0, 0): RoundJammer()}, max_rounds=2)
        with pytest.raises(ProtocolViolationError, match="forbids deliberate"):
            eng.run()

    def test_jam_blocks_neighborhood(self):
        t = Torus.square(7, 1)
        log = []
        eng = Engine(
            t,
            {
                (0, 0): Broadcaster(["m"]),
                (1, 1): collector(log),  # neighbor of both sender & jammer
                (1, 0): RoundJammer(),
            },
            channel=ChannelImperfections(allow_jamming=True),
            max_rounds=3,
        )
        eng.run()
        assert log == []  # (1,1) is within the jammer's radius

    def test_jam_does_not_reach_far_nodes(self):
        t = Torus.square(9, 1)
        log = []
        eng = Engine(
            t,
            {
                (5, 5): Broadcaster(["m"]),
                (5, 6): collector(log),
                (0, 0): RoundJammer(),  # far away
            },
            channel=ChannelImperfections(allow_jamming=True),
            max_rounds=3,
        )
        eng.run()
        assert [e.payload for e in log] == ["m"]

    def test_single_unbounded_jammer_blocks_broadcast(self):
        """One jamming fault defeats crash-flood: its neighbors never
        receive anything (the Section X impossibility)."""
        torus = recommended_torus(1)
        jammer = (3, 3)
        correct = set(torus.nodes()) - {jammer}
        processes = correct_process_map(
            torus, "crash-flood", 0, (0, 0), 1, correct
        )
        processes[jammer] = RoundJammer()
        out = run_broadcast(
            torus,
            processes,
            1,
            correct,
            channel=ChannelImperfections(allow_jamming=True),
            max_rounds=30,
        )
        assert not out.live
        assert set(out.undecided) == set(torus.neighbors(jammer))

    def test_jam_budget_enforced(self):
        t = Torus.square(7, 1)
        jammer = RoundJammer()
        eng = Engine(
            t,
            {(0, 0): jammer, (3, 3): Broadcaster(["x"])},
            channel=ChannelImperfections(
                allow_jamming=True, max_jam_rounds_per_node=2
            ),
            max_rounds=6,
        )
        eng.run()
        assert jammer.jams_effective == 2

    def test_budgeted_jammers_golden_jsonl(self):
        """Two budgeted jammers, one of which crashes mid-run, among
        retransmitting crash-flood nodes with staggered crashes, on a
        lossy channel.  The fastpath refuses jamming, so this pin is the
        only guard of the reference engine's receiver filter order: a
        jammed receiver never draws from the loss RNG."""
        torus = Torus.square(7, 1)
        jammers = [(3, 3), (5, 5)]
        crash_round = {(1, 4): 0, (2, 5): 1, (5, 5): 2, (4, 1): 3}
        correct = set(torus.nodes()) - set(jammers) - set(crash_round)
        processes = {
            node: RetransmittingProcess(proc, repeats=3)
            for node, proc in correct_process_map(
                torus, "crash-flood", 0, (0, 0), 1, correct
            ).items()
        }
        for jammer in jammers:
            processes[jammer] = RoundJammer()
        recorder = JsonlRecorder(record_deliveries=True)
        Engine(
            torus,
            processes,
            crash_round=crash_round,
            channel=ChannelImperfections(
                allow_jamming=True,
                max_jam_rounds_per_node=2,
                loss_rate=0.2,
                seed=5,
            ),
            max_rounds=40,
            observers=(recorder,),
        ).run()
        assert jsonl_pin(recorder) == (
            "07a714ca64be12fd2ec53713241f4d569f5f7e71139e28d4b697ada60d467a54",
            896,
        )

    def test_bounded_jamming_plus_retransmission_recovers(self):
        """Section X's positive claim: bounded collisions are beaten by
        retransmitting more times than the jam budget."""
        torus = recommended_torus(1)
        jammer = (3, 3)
        budget = 2
        correct = set(torus.nodes()) - {jammer}
        processes = {
            node: RetransmittingProcess(proc, repeats=budget + 2)
            for node, proc in correct_process_map(
                torus, "crash-flood", 0, (0, 0), 1, correct
            ).items()
        }
        processes[jammer] = RoundJammer()
        out = run_broadcast(
            torus,
            processes,
            1,
            correct,
            channel=ChannelImperfections(
                allow_jamming=True, max_jam_rounds_per_node=budget
            ),
            max_rounds=60,
        )
        assert out.achieved, out.summary()


class TestLossAndRetransmission:
    def test_loss_drops_deliveries(self):
        t = Torus.square(5, 1)
        log = []
        eng = Engine(
            t,
            {(1, 1): Broadcaster(list(range(200))), (1, 2): collector(log)},
            channel=ChannelImperfections(loss_rate=0.5, seed=1),
        )
        eng.run()
        assert 40 < len(log) < 160  # ~100 expected of 200

    def test_loss_deterministic_by_seed(self):
        def run(seed):
            t = Torus.square(5, 1)
            log = []
            eng = Engine(
                t,
                {(1, 1): Broadcaster(list(range(50))), (1, 2): collector(log)},
                channel=ChannelImperfections(loss_rate=0.3, seed=seed),
            )
            eng.run()
            return [e.payload for e in log]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_lossy_scenario_golden_jsonl(self):
        """Pins which receivers draw from the loss RNG, and in what
        order: live ones only, per copy, in neighbor order."""
        sc = crash_broadcast_scenario(r=1, t=1, placement="random", seed=11)
        sc.channel = ChannelImperfections(loss_rate=0.2, tx_copies=6, seed=11)
        recorder = JsonlRecorder(record_deliveries=True)
        sc.run(observers=(recorder,))
        assert jsonl_pin(recorder) == (
            "a4488c3825c474aef92c92039e6751a53af384d903f0ed29547ec52ed61c6819",
            1920,
        )

    def test_lossy_run_with_dead_receivers(self):
        """Crash-flood on a lossy channel, two copies per payload, with
        dead receivers among halted ones: the loss RNG is drawn for
        every live, unjammed receiver, halted or not, so an observed and
        an unobserved run draw alike.  Pinned before the engine kept
        one dead-or-halted mask."""
        torus = Torus.square(7, 1)
        crash_round = {(1, 4): 0, (2, 5): 1, (5, 5): 1, (4, 1): 1}

        def run(observers=()):
            return Engine(
                torus,
                correct_process_map(
                    torus, "crash-flood", 0, (0, 0), 1, set(torus.nodes())
                ),
                crash_round=crash_round,
                channel=ChannelImperfections(
                    loss_rate=0.3, tx_copies=2, seed=9
                ),
                observers=observers,
            ).run()

        recorder = JsonlRecorder(record_deliveries=True)
        observed = run((recorder,))
        plain = run()
        assert jsonl_pin(recorder) == (
            "5d3392efe07f64aae12b05c8053ee3cde416ab794581eae3e9b38b03567ed6d2",
            694,
        )
        for res in (plain, observed):
            assert res.trace.summary() == {
                "rounds": 2,
                "transmissions": 98,
                "deliveries": 784,
                "transmitting_nodes": 48,
                "crashes": 4,
            }
        assert plain.committed() == observed.committed()
        assert list(plain.trace.tx_by_node) == list(observed.trace.tx_by_node)

    def test_tx_copies_multiply_transmissions(self):
        t = Torus.square(5, 1)
        eng = Engine(
            t,
            {(1, 1): Broadcaster(["a", "b"])},
            channel=ChannelImperfections(tx_copies=3),
        )
        res = eng.run()
        assert res.trace.transmissions == 6

    def test_copies_beat_loss_for_broadcast(self):
        """The probabilistic local-broadcast primitive: enough copies make
        a lossy run behave like the reliable one."""
        torus = recommended_torus(1)
        correct = set(torus.nodes())
        processes = correct_process_map(
            torus, "bv-two-hop", 0, (0, 0), 1, correct
        )
        out = run_broadcast(
            torus,
            processes,
            1,
            correct,
            channel=ChannelImperfections(loss_rate=0.2, tx_copies=8, seed=3),
            max_rounds=100,
        )
        assert out.achieved

    def test_lossy_single_copy_can_fail(self):
        """With heavy loss and no redundancy, the reliable-local-broadcast
        assumption is gone and liveness generally fails."""
        torus = recommended_torus(1)
        correct = set(torus.nodes())
        processes = correct_process_map(torus, "cpa", 1, (0, 0), 1, correct)
        out = run_broadcast(
            torus,
            processes,
            1,
            correct,
            channel=ChannelImperfections(loss_rate=0.9, seed=0),
            max_rounds=50,
        )
        assert not out.live
        assert out.safe  # safety is loss-immune (missing info only)


class TestAttackEdgeCases:
    """Schedule and boundary corner cases for the attack strategies."""

    def test_zero_round_jam_schedule_is_harmless(self):
        """An empty attack schedule (``rounds_to_jam=0``) never fires:
        the broadcast completes exactly as if the node were correct."""
        torus = recommended_torus(1)
        node = (3, 3)
        jammer = RoundJammer(rounds_to_jam=0)
        correct = set(torus.nodes()) - {node}
        processes = correct_process_map(
            torus, "crash-flood", 0, (0, 0), 1, correct
        )
        processes[node] = jammer
        out = run_broadcast(
            torus,
            processes,
            1,
            correct,
            channel=ChannelImperfections(allow_jamming=True),
            max_rounds=60,
        )
        assert out.achieved, out.summary()
        assert jammer.jams_effective == 0

    def test_attack_from_crashed_node_never_fires(self):
        """A spoofing attacker crash-stopped at round 0 emits nothing:
        the Byzantine fault degrades to a plain crash and safety holds."""
        torus = recommended_torus(1)
        attacker = (3, 3)
        correct = set(torus.nodes()) - {attacker}
        processes = correct_process_map(torus, "cpa", 1, (0, 0), 1, correct)
        processes[attacker] = SourceImpersonator(0, source=(0, 0))
        out = run_broadcast(
            torus,
            processes,
            1,
            correct,
            crash_round={attacker: 0},
            channel=ChannelImperfections(allow_spoofing=True),
            max_rounds=60,
        )
        assert out.safe
        assert not out.wrong_commits

    def test_framer_forged_senders_wrap_on_torus(self):
        """A framer on the torus boundary forges sender coordinates that
        canonicalize onto the grid -- no off-grid identities leak."""
        t = Torus.square(7, 1)
        log = []
        eng = Engine(
            t,
            {(0, 0): NeighborFramer("bad"), (1, 0): collector(log)},
            channel=ChannelImperfections(allow_spoofing=True),
            max_rounds=3,
        )
        eng.run()
        senders = {e.sender for e in log}
        assert senders <= set(t.nodes())
        assert (6, 6) in senders  # forged (-1, -1), wrapped
        assert len(senders) == 8  # one identity per L-inf r=1 offset


class TestRetransmittingProcess:
    def test_repeats_validation(self):
        with pytest.raises(ConfigurationError):
            RetransmittingProcess(NodeProcess(), repeats=0)

    def test_repeats_across_rounds(self):
        t = Torus.square(5, 1)
        log = []
        inner = Broadcaster(["hello"])
        eng = Engine(
            t,
            {
                (1, 1): RetransmittingProcess(inner, repeats=3),
                (1, 2): collector(log),
            },
            max_rounds=10,
        )
        eng.run()
        assert [e.payload for e in log] == ["hello"] * 3
        rounds = [e.round for e in log]
        # a start-time broadcast may share its first repeat's frame, but
        # the copies must span at least two distinct rounds
        assert len(set(rounds)) >= 2

    def test_halt_deferred_until_repeats_flushed(self):
        t = Torus.square(5, 1)
        log = []

        class AnnounceAndHalt(NodeProcess):
            def on_start(self, ctx):
                ctx.broadcast("bye")
                ctx.halt()

        eng = Engine(
            t,
            {
                (1, 1): RetransmittingProcess(AnnounceAndHalt(), repeats=3),
                (1, 2): collector(log),
            },
            max_rounds=10,
        )
        eng.run()
        assert [e.payload for e in log] == ["bye"] * 3

    def test_committed_value_delegates(self):
        from repro.protocols.cpa import CPAProtocol

        inner = CPAProtocol(0, (0, 0), source_value=7)
        wrapped = RetransmittingProcess(inner, repeats=2)
        assert wrapped.committed_value() is None
        t = Torus.square(5, 1)
        eng = Engine(t, {(0, 0): wrapped})
        eng.run()
        assert wrapped.committed_value() == 7
