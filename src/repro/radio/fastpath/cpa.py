"""Vectorized CPA (Certified Propagation Algorithm) kernel.

CPA state per correct node is a tally of first announcements per value:
commit on a direct ``SourceMsg`` from the true source, or when some
value's tally reaches ``t + 1``; then announce once and halt.  The
kernel keeps that state in dense arrays:

- ``tally``: an ``(N, V)`` counter matrix over the run's *value table*
  -- every value any process can ever announce is known before round 0
  (the source value plus the fixed Byzantine plan values), and value
  identity follows Python dict equality exactly as the reference
  protocol's ``_tally`` dict does (``1``, ``True`` and ``1.0`` share a
  bucket);
- ``cpa_active``: a bool mask -- correct and not yet halted, i.e. the
  nodes whose ``on_receive`` still runs;
- ``committed_vid``: each node's committed value id (or -1).

Three message kinds flow: ``SRC`` (the source's one-time broadcast),
``CMT(vid, counts)`` (a ``CommittedMsg``; ``counts`` is False for a
duplicitous sender's repeat or an unhashable value, both of which the
reference receive path ignores), and ``JUNK`` (any ``HeardMsg`` --
CPA never reads them, so fabricator floods reduce to delivery counters
plus the fabricator's own reaction rule).

Two sender classes keep the hot path vectorized: *relays* (exactly one
counting ``CMT``: every committing correct node, and eager liars) fire
per slot as one batched stencil gather; *special* senders (the source's
``SRC + CMT`` burst, duplicitous two-value bursts, fabricator bursts
and reactions) are few and fire per node over a single ``(K,)`` ball.

Per-sender repeat-announcement state is *global*, not per receiver: if
a receiver processes a sender's second ``CMT`` it must have processed
the first (crash and halt are monotone, balls are static, and a budget
stop ends the whole run), so the repeat never counts for anyone --
``counts`` can be precompiled into the plan.

The within-slot ordering freedoms are the same as the crash-flood
kernel's: co-slotted senders have disjoint balls (>= 2r+1 apart), so
batch-vs-special order inside a slot is unobservable, and a slot that
would overrun the message budget falls back to a per-message scalar
replay in node order, stopping exactly where the reference engine's
pre-send check stops.  The kernel records each fired slot's senders
and every non-``None`` commit; :func:`~repro.radio.fastpath.stats.
fill_stats` reads the run's statistics off that record.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.radio.fastpath.byzantine import ByzantinePlan
from repro.radio.fastpath.compat import require_numpy
from repro.radio.fastpath.lattice import Lattice
from repro.radio.fastpath.stats import (
    KernelStats,
    SourceTracker,
    fill_stats,
)


def run_cpa_kernel(
    lattice: Lattice,
    *,
    source_idx: int,
    value: Any,
    t: int,
    correct,
    crash_rounds,
    byz_plans: Dict[int, ByzantinePlan],
    max_rounds: int,
    max_messages: Optional[int],
    trackers: List[SourceTracker],
) -> KernelStats:
    """Simulate CPA on ``lattice`` and return its statistics.

    ``byz_plans`` maps flat indices to compiled
    :class:`~repro.radio.fastpath.byzantine.ByzantinePlan` bursts
    (silent Byzantine nodes are absent -- they only receive).
    """
    np = require_numpy()
    stats = KernelStats()
    n = lattice.num_nodes
    coords = lattice.coords_all
    slot_of = lattice.slot_of
    num_slots = len(lattice.slot_groups)
    commit_at = t + 1

    # -- value table: id 0 is the source value; Byzantine plan values
    # follow in sorted-node, burst order.  Unhashable values get id -1
    # (dropped by the hardened receive path; still a CommittedMsg for
    # fabricator reaction purposes).
    values: List[Any] = [value]
    table: Dict[Any, int] = {value: 0}

    def vid_of(v: Any) -> int:
        try:
            known = table.get(v)
        except TypeError:
            return -1  # unhashable: cannot key a tally bucket
        if known is None:
            known = len(values)
            table[v] = known
            values.append(v)
        return known

    # compile plan bursts to kernel messages: ("SRC",) /
    # ("CMT", vid, counts) / ("JUNK",); first *hashable* CMT per sender
    # counts (a dropped unhashable value does not consume the sender's
    # first-announcement slot)
    spec_bursts: Dict[int, Tuple[Tuple, ...]] = {}
    liar_idxs: List[int] = []
    liar_vids: List[int] = []
    is_fab = np.zeros(n, dtype=bool)
    for idx in sorted(byz_plans):
        plan = byz_plans[idx]
        if plan.reactive_junk:
            is_fab[idx] = True
        msgs: List[Tuple] = []
        announced = False
        for msg in plan.start_msgs:
            if msg[0] == "CMT":
                vid = vid_of(msg[1])
                counts = vid >= 0 and not announced
                announced = announced or vid >= 0
                msgs.append(("CMT", vid, counts))
            else:
                msgs.append(("JUNK",))
        if len(msgs) == 1 and msgs[0][0] == "CMT" and msgs[0][2]:
            # single counting announcement: ride the batched relay path
            liar_idxs.append(idx)
            liar_vids.append(msgs[0][1])
        elif msgs:
            spec_bursts[idx] = tuple(msgs)

    num_values = len(values)
    values_not_none = np.asarray(
        [v is not None for v in values], dtype=bool
    )
    tally = np.zeros((n, num_values), dtype=np.int32)
    cpa_active = correct.copy()
    committed_vid = np.full(n, -1, dtype=np.int64)
    # the record fill_stats reads: each fired slot's senders (one entry
    # per message) with its slot time, and each batch of non-None
    # commits with its round
    sent: List = []
    sent_tau: List[int] = []
    commit_parts: List = []
    commit_part_rounds: List[int] = []

    # per-slot ready queues, two frames deep (this frame / next frame):
    # relays carry (idx_array, vid_array) pairs, specials carry
    # (idx, messages) bursts appended in enqueue (= reference outbox)
    # order
    relay_queue: List[List] = []
    relay_next: List[List] = [[] for _ in range(num_slots)]
    spec_queue: List[List] = []
    spec_next: List[List] = [[] for _ in range(num_slots)]
    pending_total = 0

    def route_relays(idxs, vids, current_slot: int) -> None:
        """Bucket fresh single-CMT relays by slot: own slot after
        ``current_slot`` fires this frame, at-or-before rolls over
        (equal is impossible -- co-slotted nodes are out of range)."""
        fslots = slot_of[idxs]
        order = np.argsort(fslots)
        si = idxs[order]
        vi = vids[order]
        ss = fslots[order]
        bounds = np.flatnonzero(ss[1:] != ss[:-1]) + 1
        starts = [0, *bounds.tolist()]
        ends = [*bounds.tolist(), len(ss)]
        for a, b in zip(starts, ends):
            s2 = int(ss[a])
            target = relay_queue if s2 > current_slot else relay_next
            target[s2].append((si[a:b], vi[a:b]))

    def route_special(idx: int, msgs: Tuple, current_slot: int) -> None:
        s2 = int(slot_of[idx])
        target = spec_queue if s2 > current_slot else spec_next
        target[s2].append((idx, msgs))

    def do_commits(idxs, vids, round_: int, slot: int) -> int:
        """Commit ``idxs`` to ``vids``: halt, record (None-valued
        commits halt and announce but are observably undecided, so
        they stay out of the commit statistics), and enqueue the
        one-time ``COMMITTED`` relay.  Returns messages enqueued."""
        cpa_active[idxs] = False
        committed_vid[idxs] = vids
        commit_parts.append(idxs[values_not_none[vids]])
        commit_part_rounds.append(round_)
        route_relays(idxs, vids, slot)
        return int(idxs.size)

    # -- start phase (round -1): the source broadcasts SRC + COMMITTED
    # and commits; Byzantine bursts are queued.
    cpa_active[source_idx] = False
    committed_vid[source_idx] = 0
    commit_parts.append(np.asarray([source_idx], dtype=np.int64))
    commit_part_rounds.append(-1)
    spec_next[int(slot_of[source_idx])].append(
        (source_idx, (("SRC",), ("CMT", 0, True)))
    )
    pending_total += 2
    if liar_idxs:
        la = np.asarray(liar_idxs, dtype=np.int64)
        lv = np.asarray(liar_vids, dtype=np.int64)
        pending_total += len(liar_idxs)
        # current_slot=-1: everything fires next frame (frame 0)
        fslots = slot_of[la]
        order = np.argsort(fslots)
        si, vi, ss = la[order], lv[order], fslots[order]
        bounds = np.flatnonzero(ss[1:] != ss[:-1]) + 1
        starts = [0, *bounds.tolist()]
        ends = [*bounds.tolist(), len(ss)]
        for a, b in zip(starts, ends):
            relay_next[int(ss[a])].append((si[a:b], vi[a:b]))
    for idx, msgs in spec_bursts.items():
        spec_next[int(slot_of[idx])].append((idx, msgs))
        pending_total += len(msgs)

    budget = max_messages
    tx_total = 0
    rounds = 0

    def fire_message(delivered, msg: Tuple, r: int, s: int) -> None:
        """Deliver one special-burst message to the live ``delivered``."""
        nonlocal pending_total
        if not delivered.size:
            return
        kind = msg[0]
        if kind == "JUNK":
            return  # HeardMsg: CPA ignores it; fabricators ignore it too
        if kind == "CMT":
            # fabricators re-frame every CommittedMsg they overhear,
            # counting or not (an unhashable value is still a
            # CommittedMsg to them)
            fabs = delivered[is_fab[delivered]]
            for fi in fabs.tolist():
                route_special(fi, (("JUNK",),), s)
                pending_total += 1
            if not msg[2]:
                return  # repeat or unhashable: never tallies
            vid = msg[1]
            elig = delivered[cpa_active[delivered]]
            if elig.size:
                tally[elig, vid] += 1
                fresh = elig[tally[elig, vid] >= commit_at]
                if fresh.size:
                    pending_total += do_commits(
                        fresh,
                        np.full(fresh.size, vid, dtype=np.int64),
                        r,
                        s,
                    )
            return
        # SRC: only the true source ever sends it; direct receipt
        # commits every active receiver to the source value
        elig = delivered[cpa_active[delivered]]
        if elig.size:
            pending_total += do_commits(
                elig, np.zeros(elig.size, dtype=np.int64), r, s
            )

    r = 0
    while True:
        if r >= max_rounds:
            stats.hit_round_limit = True
            break
        relay_queue = relay_next
        relay_next = [[] for _ in range(num_slots)]
        spec_queue = spec_next
        spec_next = [[] for _ in range(num_slots)]
        tx_round = 0
        tripped = False
        for s in range(num_slots):
            rparts = relay_queue[s]
            sparts = spec_queue[s]
            if not rparts and not sparts:
                continue
            sent_tau.append(r * num_slots + s)
            relay_demand = sum(p[0].size for p in rparts)
            spec_demand = sum(len(p[1]) for p in sparts)
            demand = relay_demand + spec_demand
            if budget is None or tx_total + demand <= budget:
                # the whole slot fits in the budget: batch the relays,
                # then walk the (few) special bursts
                tx_total += demand
                tx_round += demand
                pending_total -= demand
                slot_senders = []
                if rparts:
                    if len(rparts) == 1:
                        txers, vids = rparts[0]
                    else:
                        txers = np.concatenate([p[0] for p in rparts])
                        vids = np.concatenate([p[1] for p in rparts])
                    slot_senders.append(txers)
                    balls = lattice.balls_of(txers)
                    alive = crash_rounds[balls] > r
                    delivered = balls[alive]
                    if delivered.size:
                        fabs = delivered[is_fab[delivered]]
                        for fi in fabs.tolist():
                            route_special(fi, (("JUNK",),), s)
                            pending_total += 1
                        act = alive & cpa_active[balls]
                        recv = balls[act]
                        if recv.size:
                            rvids = np.broadcast_to(
                                vids[:, None], balls.shape
                            )[act]
                            # ball disjointness makes recv unique, so
                            # fancy-index += is exact
                            tally[recv, rvids] += 1
                            hit = tally[recv, rvids] >= commit_at
                            fresh = recv[hit]
                            if fresh.size:
                                pending_total += do_commits(
                                    fresh, rvids[hit], r, s
                                )
                for idx, msgs in sparts:
                    slot_senders.append(np.full(len(msgs), idx))
                    ball = lattice.ball_of(idx)
                    delivered = ball[crash_rounds[ball] > r]
                    for msg in msgs:
                        fire_message(delivered, msg, r, s)
                sent.append(np.concatenate(slot_senders))
            else:
                # budget trips inside this slot: replay it per message
                # in node order, stopping exactly where the reference
                # engine's pre-send check stops
                by_idx: Dict[int, List[Tuple]] = {}
                for arr, vids in rparts:
                    for i, v in zip(arr.tolist(), vids.tolist()):
                        by_idx.setdefault(i, []).append(("CMT", v, True))
                for idx, msgs in sparts:
                    by_idx.setdefault(idx, []).extend(msgs)
                fired: List[int] = []
                for idx in sorted(by_idx):
                    ball = lattice.ball_of(idx)
                    delivered = ball[crash_rounds[ball] > r]
                    for msg in by_idx[idx]:
                        if tx_total >= budget:
                            tripped = True
                            break
                        tx_total += 1
                        tx_round += 1
                        pending_total -= 1
                        fired.append(idx)
                        fire_message(delivered, msg, r, s)
                    if tripped:
                        break
                sent.append(np.asarray(fired, dtype=np.int64))
            if tripped:
                break
        rounds = r + 1
        if tripped:
            stats.hit_message_limit = True
            break
        if tx_round == 0 and pending_total == 0:
            stats.quiescent = True
            break
        r += 1

    stats.rounds = rounds
    decided = np.flatnonzero(committed_vid >= 0)
    decided = decided[values_not_none[committed_vid[decided]]]
    mask = np.zeros(n, dtype=bool)
    mask[decided] = True
    stats.committed_mask = mask.tolist()
    wrong = decided[committed_vid[decided] != 0]
    stats.wrong_values = {
        coords[i]: values[int(committed_vid[i])] for i in wrong.tolist()
    }
    return fill_stats(
        stats,
        lattice,
        senders=np.concatenate(sent),
        times=np.repeat(sent_tau, [part.size for part in sent]),
        commit_idx=np.concatenate(commit_parts),
        commit_rounds=np.repeat(
            commit_part_rounds, [part.size for part in commit_parts]
        ),
        crash_rounds=crash_rounds,
        trackers=trackers,
    )
