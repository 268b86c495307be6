"""Event-time kernel for crash-flood and CPA: commit at the k-th arrival.

Crash-stop flooding (paper §VII) and Koo's CPA (§IX, Theorem 6) follow
one rule.  A correct node commits on a direct ``SourceMsg`` from the
true source, or once ``k`` distinct neighbours have announced one value
in their first counting ``COMMITTED`` (``k = t + 1`` for CPA, ``k = 1``
for crash-flood, where every message carries the source's value).  It
then relays ``COMMITTED`` once, in its own TDMA slot, and halts.  So a
run is arithmetic on times.  On the absolute slot clock
``tau = round * S + slot`` (``S`` slots per frame), per node:

- ``fire[v]``: when ``v``'s counting announcement goes out, or
  :data:`NEVER`.  The source's SRC + COMMITTED burst and each Byzantine
  start burst go out in the sender's round-0 slot; a correct node
  relays in its first own slot after ``heard[v]``, never at or past the
  round cap ``max_rounds * S``;
- ``vid[v]``: the id of the value it announces (the value table below);
- ``heard[v]``: when a correct ``v`` commits: -1 for the source (it
  commits during ``on_start``), else the earlier of the source's burst,
  when ``v`` is in its ball, and the ``k``-th earliest ``fire`` of any
  one value in ``v``'s ball.

Nodes sharing a slot are >= 2r+1 apart, so their balls are disjoint
under every metric: a receiver hears one transmitter per slot, no two
fires in a ball tie, and a relay never goes out in the slot that
triggered it.  Every effect is strictly later than its cause, so these
equations have one solution, the run, and :func:`_relax` reaches it in
frontier passes (DESIGN decision 18).  The value table follows Python
dict equality as the reference protocol's tally dict does (``1``,
``True`` and ``1.0`` share a bucket): id 0 is the source value, and the
Byzantine plan values follow in sorted-node, burst order.  A Byzantine
sender's counting announcement is its plan's first hashable
``COMMITTED``; an unhashable value never counts, and a commit to
``None`` halts and relays but stays undecided.

The messages in ``(tau, node)`` order are the reference engine's
transmission order: those bursts and relays, plus one ``JUNK`` per
``CommittedMsg`` a fabricator hears, sent in its next own slot (after
its start burst).  The run is causal, so each safety valve is a prefix
cut of that order.  The round cap drops what falls at or past
``max_rounds * S``.  A budget keeps the first ``max_messages`` messages
and stops in the round of the next one, where the reference engine's
pre-send check stops, and a node committing in that trip slot commits
iff its one transmitter's triggering message went out: SRC or a relay
at position 0, or a Byzantine plan's first counting ``COMMITTED``.  The
kept prefix is the run's message order, from which
:func:`~repro.radio.fastpath.stats.fill_stats` reads every statistic.
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

#: "never" on the slot clock, and the crash round of a node that never
#: crashes: above every reachable time and round
NEVER = 2**62

#: value id of a ``HeardMsg`` in a compiled Byzantine burst
_JUNK = -2


def _kth(times, k: int):
    """Row-wise ``k``-th smallest of ``times`` (:data:`NEVER` for rows
    shorter than ``k``)."""
    np = require_numpy()
    if k == 1:
        return times.min(axis=1)
    if k > times.shape[1]:
        return np.full(len(times), NEVER, dtype=np.int64)
    return np.partition(times, k - 1, axis=1)[:, k - 1]


def _relax(lattice: Lattice, k: int, source_idx: int, frontier, heard,
           fire, vid, on_air, cap: int) -> None:
    """Solve ``heard`` / ``fire`` / ``vid`` in place (module docstring).

    ``frontier`` holds the senders on the air from the start: the
    source and the Byzantine speakers.  A pass recomputes only the
    nodes in their balls whose commit time is at or after the earlier
    of a frontier node's old and new fire time: the others' inputs at
    or before their commit time did not change.  ``heard`` is -1 for
    the source and the faulty nodes, so they are never recomputed.  The
    recomputed nodes whose announcement moved form the next frontier.
    ``vid`` is ``None`` while one value is on the air; a pass is then a
    ``k``-th smallest over balls.
    """
    np = require_numpy()
    num_slots = len(lattice.slot_groups)
    slot_of = lattice.slot_of
    t_src = int(fire[source_idx])
    src_ball = None  # with k = 1 the source's burst is its ball's floor
    if k > 1:
        src_ball = np.zeros(lattice.num_nodes, dtype=bool)
        src_ball[lattice.balls_of([source_idx])] = True
    touched = np.zeros(lattice.num_nodes, dtype=bool)
    low = fire[frontier]
    while frontier.size:
        balls = lattice.balls_of(frontier)
        touched[balls[low[:, None] <= heard[balls]]] = True
        cand = touched.nonzero()[0]
        touched[cand] = False
        balls = lattice.balls_of(cand)
        times = fire[balls]
        if vid is None:
            best = _kth(times, k)
        else:
            best = np.full(cand.size, NEVER, dtype=np.int64)
            got = np.zeros(cand.size, dtype=np.int64)
            ids = vid[balls]
            for x in on_air:
                kth = _kth(np.where(ids == x, times, NEVER), k)
                sooner = kth < best
                best[sooner] = kth[sooner]
                got[sooner] = x
        if src_ball is not None:  # SRC commits the source's ball
            src = src_ball[cand] & (best > t_src)
            best[src] = t_src
            if vid is not None:
                got[src] = 0
        # first own-slot time strictly after the commit time
        nxt = best + 1 + (slot_of[cand] - best - 1) % num_slots
        nxt[nxt >= cap] = NEVER
        old = fire[cand]
        moved = nxt != old
        if vid is not None:
            moved |= (got != vid[cand]) & (nxt < NEVER)
            vid[cand] = got
        heard[cand] = best
        fire[cand] = nxt
        low = np.minimum(old, nxt)[moved]
        frontier = cand[moved]


def _message_order(fire, slot_of, before, after, after_at):
    """Senders and slot times of every message, in (time, node) order.

    Each sender on the air has its counting message at ``fire``, between
    its burst's extras ``before`` (sorted) and ``after``; the sort is
    stable, so a burst keeps its message order.  A function of its own
    so that the sort's temporaries are freed before the statistics
    pass, the kernel's memory peak at side 1000.
    """
    np = require_numpy()
    fired = (fire < NEVER).nonzero()[0]
    senders = np.concatenate((before, fired, after))
    times = np.concatenate((slot_of[before], fire[fired], after_at))
    order = np.lexsort((senders, times))
    return senders[order], times[order]


def run_propagation_kernel(
    lattice: Lattice,
    *,
    source_idx: int,
    value: Any,
    k: int,
    correct,
    crash_rounds,
    byz_plans: Dict[int, ByzantinePlan],
    max_rounds: int,
    max_messages: Optional[int],
    trackers: Optional[List[SourceTracker]],
) -> KernelStats:
    """Simulate the commit-at-``k`` protocol on ``lattice``; return its
    statistics.

    Parameters
    ----------
    correct:
        ``(N,)`` bool mask of correct nodes.
    crash_rounds:
        ``(N,)`` int64 crash round per node, :data:`NEVER` for nodes
        that never crash.  A node is dead during round ``x`` iff
        ``crash_rounds[node] <= x``.
    byz_plans:
        Flat index -> compiled
        :class:`~repro.radio.fastpath.byzantine.ByzantinePlan` (silent
        Byzantine nodes are absent: they only receive).
    trackers:
        One :class:`SourceTracker` per distinct observer source, or
        ``None`` for a run no ``RunMetrics`` observer reads
        (:func:`~repro.radio.fastpath.stats.fill_stats`).
    """
    np = require_numpy()
    stats = KernelStats()
    n = lattice.num_nodes
    num_slots = len(lattice.slot_groups)
    slot_of = lattice.slot_of
    cap = max_rounds * num_slots

    # -- value table and Byzantine bursts.  A burst's counting COMMITTED
    # (its first hashable one) goes out at fire, like a relay; the
    # messages before and after it are extras, as is the source's
    # COMMITTED after its SRC
    values: List[Any] = [value]
    table: Dict[Any, int] = {value: 0}

    def vid_of(msg: Tuple) -> int:
        """The value id of a burst message: _JUNK for a HeardMsg, -1
        for an unhashable value."""
        if msg[0] != "CMT":
            return _JUNK
        try:
            known = table.get(msg[1])
        except TypeError:
            return -1
        if known is None:
            known = len(values)
            table[msg[1]] = known
            values.append(msg[1])
        return known

    speakers: List[int] = []
    said: List[int] = []
    before: List[int] = []
    after = [source_idx]
    cmts: Dict[int, int] = {}  # COMMITTED messages per burst
    for idx in sorted(byz_plans):
        ids = [vid_of(msg) for msg in byz_plans[idx].start_msgs]
        pos = next((j for j, x in enumerate(ids) if x >= 0), len(ids))
        before += [idx] * pos
        if pos < len(ids):
            speakers.append(idx)
            said.append(ids[pos])
            after += [idx] * (len(ids) - pos - 1)
        cmts[idx] = len(ids) - ids.count(_JUNK)
    before = np.asarray(before, dtype=np.int64)

    # -- commit times: the source and the speakers go out in their
    # round-0 slots, always before the cap
    start = np.asarray([source_idx, *speakers], dtype=np.int64)
    heard = np.where(correct, NEVER, -1)  # the faulty never commit
    heard[source_idx] = -1
    fire = np.full(n, NEVER, dtype=np.int64)
    fire[start] = slot_of[start]
    on_air = sorted({0, *said})
    vid = None
    if len(on_air) > 1:
        vid = np.zeros(n, dtype=np.int64)
        vid[start[1:]] = said
    _relax(lattice, k, source_idx, start, heard, fire, vid, on_air, cap)

    # -- the message order: every sender on the air at its fire time,
    # the extras around it, and one JUNK per CommittedMsg a fabricator
    # hears, in its next own slot
    after = np.asarray(after, dtype=np.int64)
    after_at = slot_of[after]
    fabs = [i for i in cmts if byz_plans[i].reactive_junk]
    if fabs:
        fabs = np.asarray(fabs, dtype=np.int64)
        # a correct sender on the air sends one COMMITTED, at fire; a
        # Byzantine burst all of its COMMITTEDs, in its round-0 slot
        heard_at = np.where(correct, fire, NEVER)
        count = (heard_at < NEVER).astype(np.int64)
        byz = np.asarray(list(cmts), dtype=np.int64)
        heard_at[byz] = slot_of[byz]
        count[byz] = list(cmts.values())
        balls = lattice.balls_of(fabs)
        at = heard_at[balls]
        react = at + 1 + (slot_of[fabs][:, None] - at - 1) % num_slots
        counts = (count[balls] * (react < cap)).ravel()
        rows = np.repeat(fabs, balls.shape[1])
        after = np.concatenate((after, np.repeat(rows, counts)))
        after_at = np.concatenate((after_at, np.repeat(react.ravel(), counts)))
    senders, times = _message_order(fire, slot_of, before, after, after_at)
    committed = correct & (heard < NEVER)
    if max_messages is not None and senders.size > max_messages:
        # the budget trips on message max_messages + 1: keep the prefix
        cut = int(times[max_messages])
        senders, times = senders[:max_messages], times[:max_messages]
        committed = correct & (heard < cut)
        # a node committing in the trip slot commits iff its transmitter
        # sent more messages there than the extras ahead of its
        # counting one (SRC, for the source)
        txers, sent = np.unique(senders[times == cut], return_counts=True)
        ahead = np.searchsorted(before, txers, "right")
        ahead -= np.searchsorted(before, txers)
        hearers = lattice.balls_of(txers[sent > ahead]).ravel()
        committed[hearers[heard[hearers] == cut]] = True
        stats.rounds = cut // num_slots + 1
        stats.hit_message_limit = True
    else:
        last = int(times[-1]) // num_slots
        if last + 1 < max_rounds:
            stats.rounds = last + 2  # a silent round confirms quiescence
            stats.quiescent = True
        else:
            stats.rounds = max_rounds
            stats.hit_round_limit = True

    if vid is not None:
        not_none = np.asarray([v is not None for v in values], dtype=bool)
        committed &= not_none[vid]
        wrong = (committed & (vid != 0)).nonzero()[0].tolist()
        stats.wrong_values = {
            lattice.coords_all[i]: values[int(vid[i])] for i in wrong
        }
    stats.committed_mask = committed
    cidx = committed.nonzero()[0]
    return fill_stats(
        stats,
        lattice,
        senders=senders,
        times=times,
        commit_idx=cidx,
        commit_rounds=heard[cidx] // num_slots,
        crash_rounds=crash_rounds,
        trackers=trackers,
    )
