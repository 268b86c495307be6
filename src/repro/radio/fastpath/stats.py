"""Kernel output: run statistics, read off the run's message order.

The fastpath kernels do not emit observer events.  Each one records two
things about its run and hands them to :func:`fill_stats`:

- the *message order*: for every transmitted message, in transmission
  order, its sender's flat index and its slot time
  ``tau = round * S + slot`` (``S`` slots per frame), so a burst
  repeats its sender;
- its commits to a non-``None`` value, as (node, round) pairs with
  round -1 for the source's ``on_start`` commit (a ``None``-valued
  commit halts and announces but is observably undecided, exactly like
  the reference protocol, so it is not one).

That one pass builds every counter the reference engine's
:class:`~repro.radio.trace.Trace` and :class:`~repro.obs.metrics.RunMetrics`
build up hook by hook, plus each observed source's wave-front
snapshots, into one :class:`KernelStats`.  The runner then populates
real ``Trace`` / ``RunMetrics`` objects from it, so downstream
consumers see byte-identical summaries.

Two delivery counts coexist on purpose, mirroring the reference split:

- ``fanout_deliveries`` -- channel-level fanout (every transmission
  counts its full neighborhood), what ``Trace.deliveries`` records;
- ``obs_deliveries`` -- actual receptions by live nodes, what
  ``RunMetrics.deliveries`` records (crashed receivers excluded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.geometry.coords import Coord
from repro.radio.fastpath.compat import require_numpy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.radio.fastpath.lattice import Lattice


class SourceTracker:
    """The wave-front snapshots measured from one source node.

    :func:`fill_stats` fills both maps the way
    :class:`~repro.obs.metrics.RunMetrics` does: round -> the cumulative
    maximum distance of any committed (resp. reached) node, snapshotted
    at the end of every executed round (partial budget-truncated rounds
    included, round -1 excluded).
    """

    __slots__ = (
        "source",
        "dist",
        "commit_wavefront",
        "delivery_wavefront",
    )

    def __init__(self, source: Coord, dist) -> None:
        self.source = source
        self.dist = dist  # (N,) float64, exact torus metric distances
        self.commit_wavefront: Dict[int, float] = {}
        self.delivery_wavefront: Dict[int, float] = {}


@dataclass
class KernelStats:
    """Everything a kernel run produces, in plain Python data.

    A kernel sets the fields of its own stop decision (``rounds``, the
    three stop flags, ``committed_mask`` and ``wrong_values``);
    :func:`fill_stats` sets the rest.  ``commit_round`` maps canonical
    coordinates to the round their commit was observed (-1 for the
    source's ``on_start`` commit).
    """

    rounds: int = 0
    quiescent: bool = False
    hit_round_limit: bool = False
    hit_message_limit: bool = False
    transmissions: int = 0
    fanout_deliveries: int = 0
    obs_deliveries: int = 0
    crashes: int = 0
    tx_by_node: Dict[Coord, int] = field(default_factory=dict)
    tx_by_round: Dict[int, int] = field(default_factory=dict)
    deliveries_by_round: Dict[int, int] = field(default_factory=dict)
    rx_by_node: Dict[Coord, int] = field(default_factory=dict)
    commit_round: Dict[Coord, int] = field(default_factory=dict)
    commits_by_round: Dict[int, int] = field(default_factory=dict)
    #: per-flat-index commit flags, aligned with ``Lattice.coords_all``
    #: (lets the runner build the processes map with one zip instead of
    #: N set probes); set only for commits to a non-``None`` value
    committed_mask: Optional[List[bool]] = None
    #: nodes whose committed value differs from the scenario value
    #: (possible only under Byzantine value faults); the runner patches
    #: these into the processes map so grading sees the wrong commits
    wrong_values: Dict[Coord, object] = field(default_factory=dict)


def _widen(radius: float, dist, idxs) -> float:
    """``radius`` widened to the farthest node of ``idxs``, if farther."""
    if idxs.size:
        d = float(dist[idxs].max())
        if d > radius:
            return d
    return radius


def fill_stats(
    stats: KernelStats,
    lattice: "Lattice",
    *,
    senders,
    times,
    commit_idx,
    commit_rounds,
    crash_rounds,
    trackers: List[SourceTracker],
) -> KernelStats:
    """Fill ``stats``'s counters and the trackers' wave-fronts; return it.

    Parameters
    ----------
    stats:
        The kernel's stop decision; ``stats.rounds`` (executed rounds,
        a budget-truncated last round included) bounds the snapshots
        and the crash count.
    senders / times:
        The message order: sender flat index and slot time per
        transmitted message, ``times`` nondecreasing.
    commit_idx / commit_rounds:
        Flat index and round of every commit to a non-``None`` value,
        in the kernel's order within a round.
    crash_rounds:
        ``(N,)`` int64 crash round per node (a sentinel above every
        round for nodes that never crash); a node is dead during round
        ``x`` iff ``crash_rounds[node] <= x``.

    Every counter is a sum, and every wave-front a cumulative maximum
    snapshotted at round end, so only the round of a message or commit
    matters, never its place within the round.  Receptions take one
    ball gather per executed round (:meth:`Lattice.balls_of`) with that
    round's alive mask, never an ``(N, K)`` block at once.
    """
    np = require_numpy()
    n = lattice.num_nodes
    coords = lattice.coords_all
    rounds = stats.rounds
    senders = np.asarray(senders, dtype=np.int64)
    num_slots = len(lattice.slot_groups)
    msg_rounds = np.asarray(times, dtype=np.int64) // num_slots
    stats.crashes = int((crash_rounds < rounds).sum())
    stats.transmissions = int(senders.size)
    stats.fanout_deliveries = stats.transmissions * lattice.ball_size

    # commits in round order; the stable sort keeps the kernel's order
    # within a round, so commit_round's insertion order is the kernel's
    cidx = np.asarray(commit_idx, dtype=np.int64)
    cround = np.asarray(commit_rounds, dtype=np.int64)
    order = np.argsort(cround, kind="stable")
    cidx, cround = cidx[order], cround[order]
    stats.commit_round = dict(
        zip([coords[i] for i in cidx.tolist()], cround.tolist())
    )
    crounds, ccounts = np.unique(cround, return_counts=True)
    stats.commits_by_round = dict(zip(crounds.tolist(), ccounts.tolist()))

    # round by round: receptions by live nodes, wave-fronts, snapshots.
    # span[j] is round j - 1, so [at[rnd + 1], at[rnd + 2]) is round rnd
    span = np.arange(-1, rounds + 1)
    tx_at = np.searchsorted(msg_rounds, span).tolist()
    commit_at = np.searchsorted(cround, span).tolist()
    commit_far = [0.0] * len(trackers)
    delivery_far = [0.0] * len(trackers)
    rx = np.zeros(n, dtype=np.int64)
    for rnd in range(rounds):
        lo, hi = tx_at[rnd + 1], tx_at[rnd + 2]
        delivered = senders[:0]  # no receptions until this round sends
        if hi > lo:
            stats.tx_by_round[rnd] = hi - lo
            balls = lattice.balls_of(senders[lo:hi])
            delivered = balls[crash_rounds[balls] > rnd]
            if delivered.size:
                # receivers repeat across the slots of a round (and
                # within a burst): np.add.at counts every repeat
                np.add.at(rx, delivered, 1)
                stats.deliveries_by_round[rnd] = int(delivered.size)
        if trackers:
            # round 0's snapshot also covers the on_start commits
            first = commit_at[rnd + 1] if rnd else 0
            committed = cidx[first:commit_at[rnd + 2]]
            for k, tr in enumerate(trackers):
                delivery_far[k] = _widen(delivery_far[k], tr.dist, delivered)
                commit_far[k] = _widen(commit_far[k], tr.dist, committed)
                tr.delivery_wavefront[rnd] = delivery_far[k]
                tr.commit_wavefront[rnd] = commit_far[k]

    stats.obs_deliveries = sum(stats.deliveries_by_round.values())
    tx = np.bincount(senders, minlength=n)
    nz = np.flatnonzero(tx).tolist()
    stats.tx_by_node = dict(zip([coords[i] for i in nz], tx[nz].tolist()))
    nz = np.flatnonzero(rx).tolist()
    stats.rx_by_node = dict(zip([coords[i] for i in nz], rx[nz].tolist()))
    return stats
