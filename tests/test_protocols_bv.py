"""Tests for the two Bhandari-Vaidya protocols (Sections VI and VI-B)."""

import hashlib

import pytest

from repro.core.thresholds import byzantine_linf_max_t, koo_impossibility_bound
from repro.errors import ConfigurationError
from repro.experiments.scenarios import (
    byzantine_broadcast_scenario,
    recommended_torus,
)
from repro.grid.torus import Torus
from repro.protocols.base import CommittedMsg, HeardMsg
from repro.protocols.bv_indirect import BVIndirectProtocol
from repro.protocols.bv_two_hop import BVTwoHopProtocol
from repro.protocols.registry import correct_process_map
from repro.radio.engine import Engine
from repro.radio.messages import Envelope
from repro.radio.run import run_broadcast


def fault_free_run(protocol, r=1, t=1, **kwargs):
    torus = recommended_torus(r)
    correct = set(torus.nodes())
    processes = correct_process_map(
        torus, protocol, t, (0, 0), 1, correct, **kwargs
    )
    return run_broadcast(torus, processes, 1, correct, max_rounds=100)


class TestTwoHopBasics:
    def test_fault_free_broadcast(self):
        out = fault_free_run("bv-two-hop")
        assert out.achieved

    def test_fault_free_r2(self):
        out = fault_free_run("bv-two-hop", r=2, t=4)
        assert out.achieved

    def test_exact_threshold_below(self):
        for r in (1, 2):
            for strategy in ("silent", "liar", "fabricator"):
                sc = byzantine_broadcast_scenario(
                    r=r,
                    t=byzantine_linf_max_t(r),
                    protocol="bv-two-hop",
                    strategy=strategy,
                )
                sc.validate()
                out = sc.run()
                assert out.achieved, (r, strategy, out.summary())

    def test_exact_threshold_at(self):
        """At Koo's bound the half-density strip blocks liveness for every
        strategy, and safety always holds."""
        for r in (1, 2):
            for strategy in ("silent", "fabricator"):
                sc = byzantine_broadcast_scenario(
                    r=r,
                    t=koo_impossibility_bound(r),
                    protocol="bv-two-hop",
                    strategy=strategy,
                )
                sc.validate()
                out = sc.run()
                assert out.safe, (r, strategy)
                assert not out.live, (r, strategy)

    def test_random_placements_below_threshold(self):
        for seed in range(3):
            sc = byzantine_broadcast_scenario(
                r=1,
                t=1,
                protocol="bv-two-hop",
                strategy="fabricator",
                placement="random",
                seed=seed,
            )
            sc.validate()
            assert sc.run().achieved


class TestTwoHopCommitRule:
    def _ctx_proc(self, t=1, r=1):
        torus = Torus.square(7, r)
        proc = BVTwoHopProtocol(t, (3, 3))
        eng = Engine(torus, {(0, 0): proc})
        return eng.context_of((0, 0)), proc

    def test_direct_chains_commit(self):
        ctx, proc = self._ctx_proc(t=1)
        proc.on_receive(ctx, Envelope((0, 1), CommittedMsg(1), 0, 0, 0))
        proc.on_receive(ctx, Envelope((1, 0), CommittedMsg(1), 1, 0, 0))
        proc.on_round_end(ctx)
        assert proc.committed_value() == 1

    def test_indirect_chain_counts(self):
        ctx, proc = self._ctx_proc(t=1)
        # direct: (0,1) committed 1; indirect: (1,0) reports (2,0)
        proc.on_receive(ctx, Envelope((0, 1), CommittedMsg(1), 0, 0, 0))
        proc.on_receive(
            ctx,
            Envelope((1, 0), HeardMsg(origin=(2, 0), value=1), 1, 0, 0),
        )
        proc.on_round_end(ctx)
        assert proc.committed_value() == 1

    def test_overlapping_chains_do_not_count_twice(self):
        """Two chains sharing the reporter pack as one."""
        ctx, proc = self._ctx_proc(t=1)
        proc.on_receive(
            ctx, Envelope((1, 0), HeardMsg(origin=(2, 0), value=1), 0, 0, 0)
        )
        proc.on_receive(
            ctx, Envelope((1, 0), HeardMsg(origin=(2, 1), value=1), 1, 0, 0)
        )
        proc.on_round_end(ctx)
        assert proc.committed_value() is None

    def test_same_origin_two_reporters_conflict(self):
        """Chains {N,m1} and {N,m2} share N: only one packs; commit needs
        a second disjoint chain."""
        ctx, proc = self._ctx_proc(t=1)
        proc.on_receive(
            ctx, Envelope((1, 0), HeardMsg(origin=(2, 0), value=1), 0, 0, 0)
        )
        proc.on_receive(
            ctx, Envelope((1, 1), HeardMsg(origin=(2, 0), value=1), 1, 0, 0)
        )
        proc.on_round_end(ctx)
        assert proc.committed_value() is None

    def test_implausible_report_discarded(self):
        """Reporter too far from claimed origin: geometric validation."""
        ctx, proc = self._ctx_proc(t=0)
        proc.on_receive(
            ctx, Envelope((1, 0), HeardMsg(origin=(3, 0), value=1), 0, 0, 0)
        )
        proc.on_round_end(ctx)
        assert proc.committed_value() is None

    def test_chains_must_fit_single_neighborhood(self):
        """Two disjoint chains on opposite sides of the node cannot be
        covered by one neighborhood: no commit."""
        ctx, proc = self._ctx_proc(t=1, r=1)
        # (0,0) local frame: chain A at (2,0)+(1,0); chain B at (-2,0)+(-1,0)
        # ((-2,0) wraps to (5,0) canonically)
        proc.on_receive(
            ctx, Envelope((1, 0), HeardMsg(origin=(2, 0), value=1), 0, 0, 0)
        )
        proc.on_receive(
            ctx, Envelope((6, 0), HeardMsg(origin=(5, 0), value=1), 1, 0, 0)
        )
        proc.on_round_end(ctx)
        assert proc.committed_value() is None

    def test_first_report_per_reporter_origin_wins(self):
        ctx, proc = self._ctx_proc(t=1)
        proc.on_receive(
            ctx, Envelope((1, 0), HeardMsg(origin=(2, 0), value=0), 0, 0, 0)
        )
        # same reporter, same origin, flipped value: ignored
        proc.on_receive(
            ctx, Envelope((1, 0), HeardMsg(origin=(2, 0), value=1), 1, 0, 0)
        )
        proc.on_receive(
            ctx, Envelope((0, 1), CommittedMsg(1), 2, 0, 0)
        )
        proc.on_receive(
            ctx, Envelope((1, 1), CommittedMsg(1), 3, 0, 0)
        )
        proc.on_round_end(ctx)
        assert proc.committed_value() == 1  # two direct chains for value 1

    def test_reports_relayed_for_others_even_after_commit(self):
        """A committed node must still emit HEARD for fresh announcements."""
        torus = recommended_torus(1)
        proc = BVTwoHopProtocol(0, (3, 3))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        proc.on_receive(ctx, Envelope((0, 1), CommittedMsg(1), 0, 0, 0))
        proc.on_round_end(ctx)
        assert proc.committed_value() == 1
        pending_before = ctx.pending
        proc.on_receive(ctx, Envelope((1, 0), CommittedMsg(1), 1, 0, 0))
        assert ctx.pending == pending_before + 1  # queued a HeardMsg


class TestIndirectProtocol:
    def test_fault_free_broadcast(self):
        out = fault_free_run("bv-indirect")
        assert out.achieved

    def test_threshold_below_r1(self):
        for strategy in ("silent", "liar", "fabricator"):
            sc = byzantine_broadcast_scenario(
                r=1,
                t=byzantine_linf_max_t(1),
                protocol="bv-indirect",
                strategy=strategy,
            )
            sc.validate()
            assert sc.run().achieved, strategy

    def test_threshold_at_r1(self):
        sc = byzantine_broadcast_scenario(
            r=1,
            t=koo_impossibility_bound(1),
            protocol="bv-indirect",
            strategy="silent",
        )
        sc.validate()
        out = sc.run()
        assert out.safe and not out.live

    def test_max_relays_validation(self):
        with pytest.raises(ConfigurationError):
            BVIndirectProtocol(1, (0, 0), max_relays=4)
        with pytest.raises(ConfigurationError):
            BVIndirectProtocol(1, (0, 0), max_relays=0)

    def test_deep_report_ignored(self):
        torus = Torus.square(9, 1)
        proc = BVIndirectProtocol(0, (4, 4), max_relays=1)
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        deep = HeardMsg(origin=(3, 0), value=1, relays=((2, 0),))
        proc.on_receive(ctx, Envelope((1, 0), deep, 0, 0, 0))
        proc.on_round_end(ctx)
        assert proc.committed_value() is None

    def test_two_relay_determination(self):
        """t=0: a single plausible 2-relay path determines the origin and
        commits.  Origin must be within 2r of the evaluator (any farther
        and no single neighborhood can contain both endpoints)."""
        torus = Torus.square(9, 1)
        proc = BVIndirectProtocol(0, (4, 4))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        msg = HeardMsg(origin=(2, 0), value=1, relays=((1, 1),))
        proc.on_receive(ctx, Envelope((1, 0), msg, 0, 0, 0))
        proc.on_round_end(ctx)
        assert proc.committed_value() == 1

    def test_origin_beyond_2r_unusable(self):
        """A report whose origin is farther than 2r can never satisfy the
        single-neighborhood determination rule; it is filtered."""
        torus = Torus.square(9, 1)
        proc = BVIndirectProtocol(0, (4, 4))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        msg = HeardMsg(origin=(3, 0), value=1, relays=((2, 0),))
        proc.on_receive(ctx, Envelope((1, 0), msg, 0, 0, 0))
        proc.on_round_end(ctx)
        assert proc.committed_value() is None

    def test_implausible_relay_chain_discarded(self):
        torus = Torus.square(9, 1)
        proc = BVIndirectProtocol(0, (4, 4))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        # (2,0) -> (3,3) gap: not adjacent
        msg = HeardMsg(origin=(3, 3), value=1, relays=((2, 0),))
        proc.on_receive(ctx, Envelope((1, 0), msg, 0, 0, 0))
        proc.on_round_end(ctx)
        assert proc.committed_value() is None

    def test_chain_with_repeated_relay_discarded(self):
        torus = Torus.square(9, 1)
        proc = BVIndirectProtocol(0, (4, 4))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        msg = HeardMsg(origin=(2, 0), value=1, relays=((1, 0),))
        proc.on_receive(ctx, Envelope((1, 0), msg, 0, 0, 0))
        proc.on_round_end(ctx)
        assert proc.committed_value() is None

    def test_forwarding_depth_respected(self):
        """An honest node receiving a depth-3 chain records but does not
        forward it."""
        torus = Torus.square(11, 1)
        proc = BVIndirectProtocol(2, (5, 5))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        deep = HeardMsg(origin=(2, 2), value=1, relays=((1, 1), (2, 1)))
        before = ctx.pending
        proc.on_receive(ctx, Envelope((1, 0), deep, 0, 0, 0))
        assert ctx.pending == before  # full-depth: recorded, not forwarded

    def test_shallow_chain_forwarded(self):
        torus = Torus.square(11, 1)
        proc = BVIndirectProtocol(2, (5, 5))
        eng = Engine(torus, {(0, 0): proc})
        ctx = eng.context_of((0, 0))
        msg = HeardMsg(origin=(2, 1), value=1, relays=((1, 1),))
        before = ctx.pending
        proc.on_receive(ctx, Envelope((1, 0), msg, 0, 0, 0))
        assert ctx.pending == before + 1

    def test_two_hop_equivalence_flag(self):
        """bv-indirect with max_relays=1 succeeds like the 2-hop variant
        on its regime (it is the same message pattern; only the commit
        rule differs)."""
        out = fault_free_run("bv-indirect", max_relays=1)
        assert out.achieved


class TestSafetyNeverViolated:
    """Theorem 2 as a test: across every protocol x adversary x regime we
    ever run, no correct node commits a wrong value."""

    @pytest.mark.parametrize("protocol", ["cpa", "bv-two-hop", "bv-indirect"])
    @pytest.mark.parametrize("strategy", ["liar", "fabricator", "noise"])
    def test_safety_at_impossibility_budget(self, protocol, strategy):
        sc = byzantine_broadcast_scenario(
            r=1,
            t=koo_impossibility_bound(1),
            protocol=protocol,
            strategy=strategy,
        )
        sc.validate()
        assert sc.run().safe


class TestOverBudgetCommitOrder:
    """Pins for runs where the order of commit checks decides the rows.

    Over-budget explicit fabricator placements support the wrong value
    in some neighborhoods, so a node can hold commit evidence for both
    values in one round; the first check that succeeds (in
    ``CenterIndex.pop_dirty``'s ``repr`` order) decides which value it
    commits.  Each pin is the sha256 of the sorted ``(node, committed
    value, commit_round)`` list of the correct nodes, with the wrong
    commit count, rounds and messages.
    """

    CASES = {
        "two-hop-r1-triad": (
            dict(protocol="bv-two-hop", r=1, t=1,
                 faults=[(3, 3), (3, 4), (4, 3)]),
            (58, 118, 6, 1198,
             "cc4a0d0d75000e06b365cdafed2caa57a0e4eb897399eaa5b7fad53c722217ca"),
        ),
        "two-hop-r2-block": (
            dict(protocol="bv-two-hop", r=2, t=2,
                 faults=[(6, 6), (7, 6), (6, 7), (7, 7)]),
            (132, 285, 5, 7754,
             "6f0a4054634c73d094fa0a22f08c9735934fb6c68051087ca6be11752119d0fd"),
        ),
        "two-hop-r2-plus": (
            dict(protocol="bv-two-hop", r=2, t=3,
                 faults=[(6, 6), (5, 6), (7, 6), (6, 5), (6, 7)]),
            (142, 284, 6, 7886,
             "e0ff9bdc224efea1086fff1eb4ddb1223a8a1026d7da976bd92e1945d1c9f2cd"),
        ),
        # bv-indirect stays at r=1: its r=2 run takes minutes
        "indirect-r1-triad": (
            dict(protocol="bv-indirect", r=1, t=1,
                 faults=[(3, 3), (3, 4), (4, 3)]),
            (58, 118, 6, 39226,
             "9e25c7a891b11451884db6249dcca186cadce384553f48c731bcc5a6dde4b8a4"),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_wrong_commits_are_pinned(self, case):
        kwargs, (wrong, correct, rounds, messages, digest) = self.CASES[case]
        out = byzantine_broadcast_scenario(
            placement="explicit", enforce_budget=False, engine="reference",
            **kwargs,
        ).run()
        commits = sorted(
            (node, proc.committed_value(), proc.commit_round)
            for node, proc in out.result.processes.items()
            if node in out.correct_nodes
            and proc.committed_value() is not None
        )
        assert len(out.wrong_commits) == wrong
        assert len(out.correct_nodes) == correct
        assert out.result.rounds == rounds
        assert out.result.trace.transmissions == messages
        assert hashlib.sha256(repr(commits).encode()).hexdigest() == digest
