"""Event-time crash-flood kernel.

Why this protocol collapses to arithmetic on times: under crash-stop
faults every message on the air carries the source's value (only the
true source sends ``SourceMsg``; everything else is a ``COMMITTED``
relay), so the *first* message a correct node hears commits it, and
it then relays exactly once, in its own TDMA slot.  On the absolute
slot clock ``tau = round * S + slot`` (``S`` slots per frame) that is
a fixpoint over two arrays:

- ``heard[v]``: -1 for the source (it commits during ``on_start``);
  for any other correct node the earliest ``fire`` in its ball; never
  for faulty nodes (they run ``SilentProcess`` or crash, and correct
  nodes never crash -- ``crash_round`` keys are a subset of the
  faulty set);
- ``fire[v]``: the first ``tau > heard[v]`` that falls in ``v``'s own
  slot -- later in the same frame, else in the next one -- or never
  when that is at or past the round cap ``max_rounds * S``.

A frontier relaxation (:func:`_commit_times`) computes the least
fixpoint, which is the run: a node committing in slot ``s`` relays in
its own slot ``s' > s`` of the same frame or rolls to the next, and
``s' == s`` is impossible because nodes sharing a slot are >= 2r+1
apart.  The same invariant makes co-slotted delivery balls disjoint
(under every metric, since L1/L2 >= Linf), so each receiver hears at
most one transmitter per slot and no two fires ever tie for it.

The fires in ``(tau, node)`` order are the reference engine's
transmission order.  The run is causal, so each safety valve is a
prefix cut of that order: the round cap drops the fires at or past
``max_rounds * S``, and a message budget keeps the first
``max_messages`` messages (the source's two come first) and stops in
the round of the next one, exactly where the reference engine's
pre-send check stops.  Only the nodes first hearing in that
trip slot need a look: each commits iff its (unique) transmitter's
message went out.  The kept prefix is the run's message order, from
which :func:`~repro.radio.fastpath.stats.fill_stats` reads every
statistic.
"""

from __future__ import annotations

from typing import List, Optional

from repro.radio.fastpath.compat import require_numpy
from repro.radio.fastpath.lattice import Lattice
from repro.radio.fastpath.stats import (
    KernelStats,
    SourceTracker,
    fill_stats,
)

#: "never" on the slot clock: above every reachable time
_NEVER = 2**62


def _commit_times(lattice: Lattice, source_idx: int, correct, cap: int):
    """``(heard, fire)`` slot times per node (see the module docstring).

    Frontier relaxation: only nodes in the balls of the frontier (the
    nodes whose ``fire`` just dropped) can hear sooner.  The ones that
    do -- a frontier fire before their ``heard`` -- are marked in one
    reusable mask and take their ball minimum, and the ones whose
    ``fire`` moves form the next frontier.
    """
    np = require_numpy()
    n = lattice.num_nodes
    num_slots = len(lattice.slot_groups)
    slot_of = lattice.slot_of
    heard = np.full(n, _NEVER, dtype=np.int64)
    fire = np.full(n, _NEVER, dtype=np.int64)
    heard[source_idx] = -1
    fire[source_idx] = slot_of[source_idx]  # round 0: always < cap
    touched = np.zeros(n, dtype=bool)
    frontier = np.asarray([source_idx], dtype=np.int64)
    while frontier.size:
        balls = lattice.balls_of(frontier)
        touched[balls[fire[frontier][:, None] < heard[balls]]] = True
        cand = np.flatnonzero(touched)
        touched[cand] = False
        cand = cand[correct[cand]]
        best = fire[lattice.balls_of(cand)].min(axis=1)
        heard[cand] = best
        # first own-slot time strictly after the hearing time
        nxt = best + 1 + (slot_of[cand] - best - 1) % num_slots
        nxt[nxt >= cap] = _NEVER
        moved = nxt < fire[cand]
        fire[cand] = nxt
        frontier = cand[moved]
    return heard, fire


def run_crash_flood_kernel(
    lattice: Lattice,
    *,
    source_idx: int,
    correct,
    crash_rounds,
    max_rounds: int,
    max_messages: Optional[int],
    trackers: List[SourceTracker],
) -> KernelStats:
    """Simulate crash-flood on ``lattice`` and return its statistics.

    Parameters
    ----------
    correct:
        ``(N,)`` bool mask of correct nodes.
    crash_rounds:
        ``(N,)`` int64 crash round per node; a huge sentinel (anything
        above ``max_rounds``) for nodes that never crash.  A node is
        dead during round ``x`` iff ``crash_rounds[node] <= x``.
    trackers:
        One :class:`SourceTracker` per distinct observer source (empty
        when no observer needs wave-fronts).
    """
    np = require_numpy()
    stats = KernelStats()
    num_slots = len(lattice.slot_groups)
    heard, fire = _commit_times(
        lattice, source_idx, correct, max_rounds * num_slots
    )

    # one entry per message, in (tau, node) order: the source fires
    # first (every other fire is later), and its SRC + COMMITTED burst
    # is two entries
    fired = np.flatnonzero(fire < _NEVER)
    fired = fired[np.argsort(fire[fired], kind="stable")]
    txers = np.concatenate(([source_idx], fired))
    times = fire[txers]
    committed = heard < _NEVER
    if max_messages is not None and txers.size > max_messages:
        # the budget trips on message max_messages + 1: keep the prefix
        cut = int(times[max_messages])
        txers, times = txers[:max_messages], times[:max_messages]
        committed = heard < cut
        # first hearers in the trip slot commit iff their transmitter
        # went out (each hears exactly one transmitter in that slot)
        hearers = lattice.balls_of(txers[times == cut]).ravel()
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
    stats.committed_mask = committed.tolist()
    cidx = np.flatnonzero(committed)
    return fill_stats(
        stats,
        lattice,
        senders=txers,
        times=times,
        commit_idx=cidx,
        commit_rounds=heard[cidx] // num_slots,
        crash_rounds=crash_rounds,
        trackers=trackers,
    )
