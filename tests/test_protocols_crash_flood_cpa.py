"""Tests for CrashFloodProtocol and CPAProtocol."""

import pytest

from repro.core.thresholds import (
    cpa_best_known_max_t,
    crash_linf_max_t,
    crash_linf_threshold,
    koo_impossibility_bound,
)
from repro.errors import ConfigurationError
from repro.experiments.scenarios import (
    byzantine_broadcast_scenario,
    crash_broadcast_scenario,
    recommended_torus,
)
from repro.grid.torus import Torus
from repro.obs.metrics import EngineObserver
from repro.protocols.base import CommittedMsg, SourceMsg
from repro.protocols.cpa import CPAProtocol
from repro.protocols.crash_flood import CrashFloodProtocol
from repro.protocols.registry import correct_process_map
from repro.radio.engine import Engine
from repro.radio.run import run_broadcast


def fault_free_run(protocol, r=1, value=1):
    torus = recommended_torus(r)
    correct = set(torus.nodes())
    processes = correct_process_map(torus, protocol, 0, (0, 0), value, correct)
    return run_broadcast(torus, processes, value, correct)


class TestCrashFlood:
    def test_fault_free_broadcast(self):
        out = fault_free_run("crash-flood")
        assert out.achieved
        # each node transmits at most twice (source msg + committed)
        assert out.messages <= 2 * len(out.correct_nodes)

    def test_commit_on_first_value(self):
        out = fault_free_run("crash-flood", value="payload")
        committed = out.result.committed()
        assert all(v == "payload" for v in committed.values())

    def test_below_threshold_succeeds(self):
        for r in (1, 2):
            sc = crash_broadcast_scenario(r=r, t=crash_linf_max_t(r))
            sc.validate()
            assert sc.run().achieved

    def test_at_threshold_partitions(self):
        for r in (1, 2):
            sc = crash_broadcast_scenario(
                r=r, t=crash_linf_threshold(r), enforce_budget=False
            )
            sc.validate()
            out = sc.run()
            assert out.safe and not out.live

    def test_staggered_crashes_never_worse_than_dead(self):
        """A node that crashes later only helps: staggered crash runs
        reach at least the dead-from-start coverage."""
        r = 1
        dead = crash_broadcast_scenario(
            r=r, t=crash_linf_threshold(r), enforce_budget=False
        ).run()
        for seed in range(3):
            stag = crash_broadcast_scenario(
                r=r,
                t=crash_linf_threshold(r),
                enforce_budget=False,
                staggered_max_round=3,
                seed=seed,
            ).run()
            assert len(stag.undecided) <= len(dead.undecided)

    def test_random_placements_always_succeed_below_threshold(self):
        for seed in range(3):
            sc = crash_broadcast_scenario(
                r=1, t=crash_linf_max_t(1), placement="random", seed=seed
            )
            sc.validate()
            assert sc.run().achieved

    def test_crash_flood_is_byzantine_unsafe(self):
        """One liar defeats commit-on-first-receipt: wrong commits appear.

        This is why Section VII's protocol is crash-stop only."""
        sc = byzantine_broadcast_scenario(
            r=1,
            t=1,
            protocol="crash-flood",
            strategy="liar",
            placement="random",
        )
        out = sc.run()
        assert not out.safe


class TestCPA:
    def test_fault_free_broadcast(self):
        assert fault_free_run("cpa").achieved

    def test_source_neighbors_commit_directly(self):
        torus = recommended_torus(1)
        correct = set(torus.nodes())
        processes = correct_process_map(torus, "cpa", 2, (0, 0), 1, correct)
        out = run_broadcast(torus, processes, 1, correct)
        # with t=2 > best known for r=1 CPA may stall... but source
        # neighbors must still commit (direct hearing).
        committed = out.result.committed()
        for nb in torus.neighbors((0, 0)):
            assert committed.get(nb) == 1

    def test_duplicity_first_announcement_wins(self):
        """A duplicitous announcer is counted once, with its first value."""
        sc = byzantine_broadcast_scenario(
            r=1, t=1, protocol="cpa", strategy="duplicitous"
        )
        sc.validate()
        out = sc.run()
        assert out.safe

    def test_duplicity_is_detected_by_all_neighbors(self):
        """Section V: 'if it were to attempt sending contradicting
        messages ... its duplicity would stand detected' -- by every
        neighbor that was still listening."""
        sc = byzantine_broadcast_scenario(
            r=1, t=1, protocol="bv-two-hop", strategy="duplicitous"
        )
        sc.validate()
        out = sc.run()
        liars = sc.faulty_nodes
        detections = 0
        for node, proc in out.result.processes.items():
            if node in liars:
                continue
            flagged = getattr(proc, "detected_duplicity", set())
            for f in flagged:
                canon = sc.topology.canonical(f)
                assert canon in liars  # no false accusations
                detections += 1
        assert detections > 0  # somebody caught each visible liar

    def test_safe_under_liar_even_above_threshold(self):
        sc = byzantine_broadcast_scenario(
            r=1,
            t=koo_impossibility_bound(1),
            protocol="cpa",
            strategy="liar",
        )
        sc.validate()
        out = sc.run()
        assert out.safe  # never a wrong commit, even when liveness dies

    def test_succeeds_at_best_known_bound(self):
        for r in (1, 2):
            t = cpa_best_known_max_t(r)
            for strategy in ("silent", "liar"):
                sc = byzantine_broadcast_scenario(
                    r=r, t=t, protocol="cpa", strategy=strategy
                )
                sc.validate()
                assert sc.run().achieved, (r, t, strategy)

    def test_blocked_at_impossibility_bound(self):
        for r in (1, 2):
            sc = byzantine_broadcast_scenario(
                r=r,
                t=koo_impossibility_bound(r),
                protocol="cpa",
                strategy="silent",
            )
            sc.validate()
            out = sc.run()
            assert out.safe and not out.live

    def test_negative_t_rejected(self):
        with pytest.raises(ConfigurationError):
            CPAProtocol(-1, (0, 0))

    def test_source_without_value_rejected(self):
        torus = Torus.square(7, 1)
        proc = CPAProtocol(1, (0, 0))  # no source_value
        from repro.radio.engine import Engine

        eng = Engine(torus, {(0, 0): proc})
        with pytest.raises(ConfigurationError, match="no source_value"):
            eng.run()

    def test_ignores_heard_messages(self):
        """CPA is the *simple* protocol: HEARD reports must not count."""
        from repro.protocols.base import HeardMsg
        from repro.radio.messages import Envelope
        from repro.radio.engine import Engine

        torus = Torus.square(7, 1)
        proc = CPAProtocol(0, (3, 3))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        env = Envelope((0, 1), HeardMsg(origin=(1, 1), value=1), 0, 0, 0)
        proc.on_receive(ctx, env)
        assert proc.committed_value() is None

    def test_commit_needs_t_plus_one_distinct_neighbors(self):
        from repro.radio.messages import Envelope
        from repro.radio.engine import Engine

        torus = Torus.square(7, 1)
        proc = CPAProtocol(1, (3, 3))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        env1 = Envelope((0, 1), CommittedMsg(1), 0, 0, 0)
        proc.on_receive(ctx, env1)
        assert proc.committed_value() is None  # one announcement: not enough
        proc.on_receive(ctx, env1)  # duplicate sender: still not enough
        assert proc.committed_value() is None
        env2 = Envelope((1, 0), CommittedMsg(1), 1, 0, 0)
        proc.on_receive(ctx, env2)
        assert proc.committed_value() == 1

    def test_mixed_values_tally_separately(self):
        from repro.radio.messages import Envelope
        from repro.radio.engine import Engine

        torus = Torus.square(7, 1)
        proc = CPAProtocol(1, (3, 3))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        proc.on_receive(ctx, Envelope((0, 1), CommittedMsg(0), 0, 0, 0))
        proc.on_receive(ctx, Envelope((1, 0), CommittedMsg(1), 1, 0, 0))
        assert proc.committed_value() is None
        proc.on_receive(ctx, Envelope((1, 1), CommittedMsg(1), 2, 0, 0))
        assert proc.committed_value() == 1

    def test_fake_source_msg_ignored(self):
        from repro.radio.messages import Envelope
        from repro.radio.engine import Engine

        torus = Torus.square(7, 1)
        proc = CPAProtocol(1, (3, 3))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        proc.on_receive(ctx, Envelope((0, 1), SourceMsg(0), 0, 0, 0))
        assert proc.committed_value() is None


class _StartLog(EngineObserver):
    """Who sent a SourceMsg, and who committed during ``on_start``."""

    def __init__(self):
        self.source_senders = set()
        self.start_commits = []

    def on_transmission(self, env, receivers):
        if isinstance(env.payload, SourceMsg):
            self.source_senders.add(env.sender)

    def on_commit(self, node, round_, value):
        if round_ == -1:
            self.start_commits.append(node)


@pytest.mark.parametrize("cls, t", [(CrashFloodProtocol, 0), (CPAProtocol, 1)])
def test_source_named_across_the_wrap(cls, t):
    """Processes told the source as (W, 0), which names (0, 0) on a
    W-torus, find the source at (0, 0) alone: only it queues SourceMsg
    and commits in ``on_start``, and every node then commits.  Built
    directly, since correct_process_map canonicalizes the source."""
    width = 7
    torus = Torus.square(width, 1)
    processes = {
        node: cls(
            t,
            (width, 0),
            source_value=1 if node == (0, 0) else None,
            metric=torus.metric,
        )
        for node in torus.nodes()
    }
    log = _StartLog()
    result = Engine(torus, processes, observers=(log,)).run()
    assert log.source_senders == {(0, 0)}
    assert log.start_commits == [(0, 0)]
    assert result.committed() == dict.fromkeys(torus.nodes(), 1)
