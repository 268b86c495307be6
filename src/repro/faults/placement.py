"""Counting and validating locally-bounded fault placements.

The adversary's constraint is *per neighborhood*: for every grid point
``c`` (whether or not a fault sits there), the closed radius-``r`` ball
around ``c`` may contain at most ``t`` faulty nodes.  Counting over
*closed* balls matches the paper's accounting ("a faulty node may have
upto ``t - 1`` neighbors that are also faulty": the faulty node plus its
faulty neighbors stay within ``t``).

All functions work either on the infinite grid (plain coordinates) or on a
finite topology (pass ``topology=`` and coordinates are wrapped).  On a
torus the counting runs on its shared
:class:`~repro.grid.stencil.TorusStencil` -- flat-index balls counted
into a flat list -- and returns exactly what the per-point path
(:func:`~repro.geometry.balls.closed_ball_points`) would, which every
other topology still takes.
"""

from __future__ import annotations

import random
from collections import defaultdict
from operator import add
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import InvalidPlacementError
from repro.exec.seeds import derive_seed
from repro.geometry.balls import closed_ball_points
from repro.geometry.coords import Coord
from repro.geometry.metrics import get_metric
from repro.grid.stencil import TorusStencil
from repro.grid.topology import Topology

#: faults per closed-ball center: a flat list indexed by the stencil's
#: flat index on a torus, a dict keyed by coordinate elsewhere
Counts = Union[List[int], Dict[Coord, int]]


def _plain(p: Coord) -> Coord:
    return (p[0], p[1])


def _ball_geometry(
    r: int, metric, topology: Optional[Topology]
) -> Tuple[
    Optional[TorusStencil], Callable[[Coord], Coord], Callable[[Coord], list]
]:
    """``(stencil, canonical, ball)``: how to count faults per closed ball.

    ``ball(node)`` lists the centers whose closed ball holds the
    canonical ``node`` (balls are symmetric, so that is the ball around
    ``node``).  On a torus the centers are flat indices of its
    :class:`~repro.grid.stencil.TorusStencil`; elsewhere ``stencil`` is
    ``None`` and they are the coordinates of
    :func:`~repro.geometry.balls.closed_ball_points`, the one path that
    handles truncated and infinite grids.
    """
    m = get_metric(metric)
    stencil = topology.ball_stencil(r, m) if topology is not None else None
    canonical = topology.canonical if topology is not None else _plain
    if stencil is not None:
        return stencil, canonical, stencil.flat_ball
    return None, canonical, lambda p: closed_ball_points(m, p, r, topology)


def _count(
    faulty: Iterable[Coord],
    stencil: Optional[TorusStencil],
    canonical: Callable[[Coord], Coord],
    ball: Callable[[Coord], list],
) -> Counts:
    """Faults per closed-ball center, each distinct fault counted once."""
    counts: Counts = (
        [0] * stencil.size if stencil is not None else defaultdict(int)
    )
    # sorted so a dict counter's insertion order is canonical even when
    # ``faulty`` arrives as a set (counts are order-free, but downstream
    # iteration over the result should not vary per run)
    for node in sorted({canonical(f) for f in faulty}):
        for center in ball(node):
            counts[center] += 1
    return counts


def _over_budget(counts: Counts, t: int) -> set:
    """The centers whose closed ball holds more than ``t`` faults."""
    if isinstance(counts, list):
        if max(counts, default=0) <= t:  # one C-speed scan when valid
            return set()
        items: Iterable = enumerate(counts)
    else:
        items = counts.items()
    return {c for c, n in items if n > t}


def fault_counts_per_nbd(
    faulty: Iterable[Coord],
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
) -> Dict[Coord, int]:
    """Faults per closed neighborhood, for every center that sees any.

    Centers whose neighborhood contains no fault are omitted (on the
    infinite grid there are infinitely many).  Each faulty node contributes
    to every center within distance ``r`` of it -- the ball is symmetric,
    so "centers covering f" equals "ball around f".
    """
    stencil, canonical, ball = _ball_geometry(r, metric, topology)
    counts = _count(faulty, stencil, canonical, ball)
    if stencil is None:
        return dict(counts)
    return {stencil.coord(i): n for i, n in enumerate(counts) if n}


def max_faults_per_nbd(
    faulty: Iterable[Coord],
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
) -> Tuple[int, Optional[Coord]]:
    """``(max count, witness center)``; ``(0, None)`` for no faults."""
    counts = fault_counts_per_nbd(faulty, r, metric, topology)
    if not counts:
        return (0, None)
    center = max(counts, key=lambda c: (counts[c], (-c[0], -c[1])))
    return (counts[center], center)


def max_faults_in_any_nbd(
    faulty: Iterable[Coord],
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
) -> int:
    """The worst per-neighborhood fault count of a placement.

    The quantity every budget check compares against ``t``; callers that
    only need the number (not the witness center) should use this rather
    than re-deriving it from :func:`fault_counts_per_nbd`.
    """
    worst, _ = max_faults_per_nbd(faulty, r, metric, topology)
    return worst


def is_valid_placement(
    faulty: Iterable[Coord],
    t: int,
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
) -> bool:
    """Whether no neighborhood contains more than ``t`` faults."""
    return max_faults_in_any_nbd(faulty, r, metric, topology) <= t


def validate_placement(
    faulty: Iterable[Coord],
    t: int,
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
) -> None:
    """Raise :class:`~repro.errors.InvalidPlacementError` on violation."""
    worst, center = max_faults_per_nbd(faulty, r, metric, topology)
    if worst > t:
        raise InvalidPlacementError(
            f"placement puts {worst} faults in the neighborhood of {center} "
            f"but the budget is t={t} (r={r}, metric={get_metric(metric).name})"
        )


def trim_to_budget(
    faulty: Iterable[Coord],
    t: int,
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
    rng: Optional[random.Random] = None,
) -> Set[Coord]:
    """Remove as few faults as needed (greedily) to respect the budget.

    Repeatedly finds the most-violating neighborhood and removes from it
    the fault that participates in the most violating neighborhoods
    (deterministic unless an ``rng`` breaks ties).  Greedy is not optimal
    in general but the constructions only ever need a handful of removals.
    """
    stencil, canonical, ball = _ball_geometry(r, metric, topology)
    current: Set[Coord] = {canonical(f) for f in faulty}
    while True:
        violating = _over_budget(_count(current, stencil, canonical, ball), t)
        if not violating:
            return current
        # Score each fault by how many violating neighborhoods it sits in.
        def score(f: Coord) -> int:
            return sum(1 for c in ball(f) if c in violating)

        ranked = sorted(current, key=lambda f: (-score(f), f))
        if rng is not None:
            top = score(ranked[0])
            ties = [f for f in ranked if score(f) == top]
            current.discard(rng.choice(ties))
        else:
            current.discard(ranked[0])


def _check_target_count(target_count: Optional[int]) -> None:
    if target_count is not None and target_count < 0:
        raise ValueError(f"target_count must be >= 0, got {target_count}")


def _greedy_on_mask(
    order: List[int],
    t: int,
    stencil: TorusStencil,
    rng: random.Random,
    target_count: Optional[int],
) -> Set[Coord]:
    """The greedy placement on a torus, over flat candidate indices.

    ``blocked[i]`` is set once ``i`` is chosen or a closed ball covering
    ``i`` holds ``t`` faults, so a candidate costs one lookup instead of
    a scan of its ball's counts.  Balls on a torus are symmetric (``c``
    covers ``i`` exactly when ``i`` lies in ``c``'s ball) and counts
    grow by one, so marking a center's ball the moment its count reaches
    ``t`` keeps the mask exact.
    """
    _check_target_count(target_count)
    rng.shuffle(order)  # its draws depend only on len(order)
    if t <= 0:
        return set()  # every ball is already full
    height, x_flat, y_wrap = stencil.height, stencil.x_flat, stencil.y_wrap
    counts = [0] * stencil.size
    blocked = bytearray(stencil.size)
    chosen: List[int] = []
    for i in order:
        if blocked[i]:
            continue
        if len(chosen) == target_count:  # never true for None
            break
        chosen.append(i)
        blocked[i] = 1
        x, y = divmod(i, height)
        for c in (*map(add, x_flat[x], y_wrap[y]), i):
            n = counts[c] + 1
            counts[c] = n
            if n == t:
                cx, cy = divmod(c, height)
                for b in map(add, x_flat[cx], y_wrap[cy]):
                    blocked[b] = 1
                blocked[c] = 1
    return {(i // height, i % height) for i in chosen}


def greedy_random_placement(
    candidates: Sequence[Coord],
    t: int,
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
    rng: Optional[random.Random] = None,
    target_count: Optional[int] = None,
) -> Set[Coord]:
    """A random maximal (or ``target_count``-sized) valid placement.

    Visits ``candidates`` in random order and keeps each fault that does
    not break the budget, so the result never needs a trim.  On a torus
    a flat mask of saturated balls makes a candidate one lookup;
    elsewhere incremental counting makes this
    ``O(|candidates| * |ball|)``.
    """
    if rng is None:
        rng = random.Random(
            derive_seed(0, "repro.faults.placement.greedy_random_placement", 0)
        )
    stencil, canonical, ball = _ball_geometry(r, metric, topology)
    if stencil is not None:
        # flat() canonicalizes, so wrapped aliases and repeats of a
        # chosen node meet its mark
        order = list(map(stencil.flat, candidates))
        return _greedy_on_mask(order, t, stencil, rng, target_count)
    # Off a torus a ball is truncated at the boundary and candidates may
    # lie off the grid, so the balls covering a node are not the ball
    # around it: count, and scan the node's ball per candidate.
    _check_target_count(target_count)
    order = list(candidates)
    rng.shuffle(order)
    counts: Dict[Coord, int] = defaultdict(int)
    count_of = counts.__getitem__
    full = t.__le__  # a ball holding t faults takes no more
    chosen: Set[Coord] = set()
    for cand in order:
        node = canonical(cand)
        if node in chosen:
            continue
        centers = ball(node)
        if any(map(full, map(count_of, centers))):
            continue
        if len(chosen) == target_count:
            break
        chosen.add(node)
        for c in centers:
            counts[c] += 1
    return chosen
