"""Transport-optimized bv-two-hop kernel.

bv-two-hop's evidence state (per-value, per-center chain indexes with a
set-packing commit rule) is irreducibly per-node, so unlike crash-flood
it cannot be expressed as whole-lattice array updates.  What *can* be
precomputed and flattened is everything the reference engine spends its
time on around that state: envelope objects, context indirection,
per-delivery observer dispatch, coordinate canonicalization and
localization.  This kernel runs the same per-message state machine over
flat integer indices and precomputed ball/offset tables, reusing the
reference evidence machinery (:class:`~repro.protocols.evidence.
CenterIndex` and its ``has_packing`` commit check) verbatim so commit
decisions -- including packing-search order and budget behavior -- are
identical by construction.  It records its message order and commits,
and :func:`~repro.radio.fastpath.stats.fill_stats` derives the run's
statistics from them.

Message encoding (value is run-constant, so payloads carry none):

- ``_SRC`` -- the source's initial broadcast;
- ``_CMT`` -- a ``COMMITTED`` announcement;
- ``("HEARD", origin)`` -- a two-hop report with the canonical
  coordinate of the announcer.

Localization exactness: a ball neighbor at offset ``o`` from receiver
``P`` localizes to ``P - o`` (offsets are wrap-unique because the torus
side is >= 2r+1); arbitrary coordinates inside ``HEARD`` payloads go
through the same shortest-wrapped-delta arithmetic as
:meth:`repro.radio.node.Context.localize`, including its distortion on
small tori -- the plausibility filter must misfire in exactly the same
cases as the reference.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.protocols.evidence import CenterIndex
from repro.radio.fastpath.compat import require_numpy
from repro.radio.fastpath.lattice import Lattice
from repro.radio.fastpath.stats import (
    KernelStats,
    SourceTracker,
    fill_stats,
)

_SRC = ("SRC",)
_CMT = ("CMT",)


class _BVState:
    """Per-node protocol state (correct nodes only)."""

    __slots__ = ("committed", "index", "reports_seen", "outbox")

    def __init__(self) -> None:
        self.committed = False
        self.index: Optional[CenterIndex] = None
        self.reports_seen = set()
        self.outbox = deque()


def run_bv_two_hop_kernel(
    lattice: Lattice,
    *,
    source_idx: int,
    value,
    t: int,
    correct,
    crash_rounds,
    max_rounds: int,
    max_messages: Optional[int],
    trackers: List[SourceTracker],
) -> KernelStats:
    """Simulate bv-two-hop on ``lattice`` and return its statistics.

    Arguments match :func:`~repro.radio.fastpath.crash_flood.
    run_crash_flood_kernel`, plus the protocol's fault budget ``t`` and
    the broadcast ``value`` (needed because the evidence index keys
    chains by value, exactly as the reference protocol does).
    """
    require_numpy()  # fail the same way as the vectorized kernels
    stats = KernelStats()
    metric = lattice.metric
    rr = lattice.r
    t1 = t + 1
    num_nodes = lattice.num_nodes
    width, height = lattice.width, lattice.height
    half_w, half_h = width // 2, height // 2
    nbr_lists = lattice.nbr_idx.tolist()
    offsets = lattice.offsets  # nbr_idx column order
    coords = lattice.coords_all
    crash_list = crash_rounds.tolist()
    correct_list = correct.tolist()

    states: Dict[int, _BVState] = {
        i: _BVState() for i in range(num_nodes) if correct_list[i]
    }
    correct_order = sorted(states)  # flat order == canonical node order
    pending_total = 0
    # the record fill_stats reads: sender and slot time per message,
    # node and round per commit
    msg_senders: List[int] = []
    msg_times: List[int] = []
    commit_idx: List[int] = []
    commit_rounds: List[int] = []

    def commit(st: _BVState, idx: int, round_: int) -> None:
        nonlocal pending_total
        st.committed = True
        st.outbox.append(_CMT)
        pending_total += 1
        commit_idx.append(idx)
        commit_rounds.append(round_)

    # -- start phase (round -1): the source broadcasts SRC and commits
    src_state = states[source_idx]
    src_state.outbox.append(_SRC)
    pending_total += 1
    commit(src_state, source_idx, -1)

    budget = max_messages
    rounds = 0
    slot_groups = [g.tolist() for g in lattice.slot_groups]
    num_slots = len(slot_groups)
    r = 0
    while True:
        if r >= max_rounds:
            stats.hit_round_limit = True
            break
        tx_round = 0
        tripped = False
        for s, group in enumerate(slot_groups):
            tau = r * num_slots + s
            for sender in group:
                st = states.get(sender)
                if st is None or not st.outbox:
                    continue  # faulty nodes never queue anything
                outbox = st.outbox
                ball = nbr_lists[sender]
                sender_coord = coords[sender]
                while outbox:
                    if budget is not None and len(msg_senders) >= budget:
                        tripped = True
                        break
                    payload = outbox.popleft()
                    pending_total -= 1
                    tx_round += 1
                    msg_senders.append(sender)
                    msg_times.append(tau)
                    kind = payload[0]
                    for j, p in enumerate(ball):
                        if crash_list[p] <= r:
                            continue  # dead receivers hear nothing
                        rst = states.get(p)
                        if rst is None:
                            continue  # live faulty node: silent observer
                        if kind == "CMT":
                            # receivers always relay a two-hop report,
                            # even post-commit (others may need it)
                            rst.outbox.append(("HEARD", sender_coord))
                            pending_total += 1
                            if not rst.committed:
                                px, py = coords[p]
                                ox, oy = offsets[j]
                                if rst.index is None:
                                    rst.index = CenterIndex(rr, metric)
                                rst.index.add(
                                    value,
                                    frozenset(((px - ox, py - oy),)),
                                )
                        elif kind == "HEARD":
                            if rst.committed:
                                continue
                            px, py = coords[p]
                            ox, oy = offsets[j]
                            reporter = (px - ox, py - oy)
                            # localize the origin: shortest wrapped delta
                            gx, gy = payload[1]
                            dx = (gx - px) % width
                            if dx > half_w:
                                dx -= width
                            dy = (gy - py) % height
                            if dy > half_h:
                                dy -= height
                            origin = (px + dx, py + dy)
                            if origin == reporter or origin == (px, py):
                                continue
                            if (reporter, origin) in rst.reports_seen:
                                continue
                            if not metric.within(reporter, origin, rr):
                                continue
                            rst.reports_seen.add((reporter, origin))
                            if rst.index is None:
                                rst.index = CenterIndex(rr, metric)
                            rst.index.add(
                                value, frozenset((origin, reporter))
                            )
                        else:  # SRC: trusted only from the true source
                            if sender == source_idx and not rst.committed:
                                commit(rst, p, r)
                if tripped:
                    break
            if tripped:
                break
        if not tripped:
            # round-end hook: evaluate the commit rule for every live
            # uncommitted node with fresh evidence, in canonical order
            for p in correct_order:
                st = states[p]
                if st.committed or st.index is None:
                    continue
                index = st.index
                for key, center in index.pop_dirty():
                    if index.has_packing(key, center, t1):
                        commit(st, p, r)
                        break
        # close the round (partial budget-truncated rounds still count)
        rounds = r + 1
        if tripped:
            stats.hit_message_limit = True
            break
        if tx_round == 0 and pending_total == 0:
            stats.quiescent = True
            break
        r += 1

    stats.rounds = rounds
    stats.committed_mask = [
        i in states and states[i].committed for i in range(num_nodes)
    ]
    return fill_stats(
        stats,
        lattice,
        senders=msg_senders,
        times=msg_times,
        commit_idx=commit_idx,
        commit_rounds=commit_rounds,
        crash_rounds=crash_rounds,
        trackers=trackers,
    )
