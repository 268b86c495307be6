"""Cardinality formulas and point-set helpers for lattice balls.

The paper's thresholds are all fractions of a neighborhood population:

- L-infinity: ``|nbd| = (2r+1)^2 - 1 = 4r^2 + 4r`` and the Byzantine
  threshold ``r(2r+1)/2`` is "slightly less than one-fourth" of it;
- L2: ``|nbd| ~= pi r^2`` (Gauss circle problem) and the thresholds
  ``0.23 pi r^2`` / ``0.3 pi r^2`` are fractions of that.

This module provides exact counts (by formula where one exists, by
enumeration otherwise) plus the half-ball helper used in the L2 argument of
Section VIII (nodes in the half-neighborhood demarcated by the medial axis
perpendicular to the segment NQ).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.geometry.coords import Coord
from repro.geometry.metrics import get_metric


def linf_ball_size(r: int) -> int:
    """Population of an L-infinity neighborhood (excluding the center).

    ``(2r+1)^2 - 1 = 4r(r+1)``.

    >>> linf_ball_size(2)
    24
    """
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    return (2 * r + 1) ** 2 - 1


def l1_ball_size(r: int) -> int:
    """Population of an L1 neighborhood (excluding the center).

    The L1 ball of radius ``r`` has ``2r(r+1) + 1`` lattice points.
    """
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    return 2 * r * (r + 1)


def l2_ball_size(r: int) -> int:
    """Population of an L2 neighborhood (excluding the center), exact.

    There is no simple closed form (Gauss circle problem); we count
    row-by-row with integer arithmetic: for each ``dx`` the admissible
    ``dy`` span is ``2*floor(sqrt(r^2-dx^2)) + 1``.
    """
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    rr = r * r
    total = 0
    for dx in range(-r, r + 1):
        total += 2 * _isqrt(rr - dx * dx) + 1
    return total - 1  # exclude the center


def _isqrt(n: int) -> int:
    """Integer square root (floor)."""
    if n < 0:
        raise ValueError("negative operand")
    x = int(n**0.5)
    # correct any floating point drift
    while x * x > n:
        x -= 1
    while (x + 1) * (x + 1) <= n:
        x += 1
    return x


def ball_size(metric, r: int) -> int:
    """Population of a neighborhood under any metric (excluding center)."""
    m = get_metric(metric)
    if m.name == "linf":
        return linf_ball_size(r)
    if m.name == "l1":
        return l1_ball_size(r)
    if m.name == "l2":
        return l2_ball_size(r)
    return m.ball_size(r)


def ball_offsets(metric, r: int) -> Tuple[Coord, ...]:
    """All nonzero lattice offsets within radius ``r`` of the origin."""
    return get_metric(metric).offsets(r)


def ball_points(metric, center: Coord, r: int) -> List[Coord]:
    """All lattice points within radius ``r`` of ``center`` (excluding it)."""
    cx, cy = center
    return [(cx + dx, cy + dy) for dx, dy in get_metric(metric).offsets(r)]


def closed_ball_points(
    metric, center: Coord, r: int, topology=None
) -> List[Coord]:
    """All lattice points within radius ``r`` of ``center``, including it.

    This is the *closed* metric ball the locally-bounded fault budget is
    counted over (paper, Section II), listed in offset order with the
    center last.  With a finite ``topology`` every point is wrapped to
    its canonical coordinate, so the returned list may contain
    duplicates only if the topology is smaller than the ball -- which
    topology constructors reject.

    On a torus the ball comes from its shared
    :class:`~repro.grid.stencil.TorusStencil` (two table rows zipped).
    On topologies without wrap-around (:class:`~repro.grid.bounded.
    BoundedGrid`, :class:`~repro.grid.rgg.RandomGeometricGraph`) the ball
    is *truncated* to the points that actually host nodes: canonicalizing
    is the identity there, so without the ``contains`` filter a corner
    ball would count phantom off-grid centers and the budget accounting
    would be asymmetric between interior and boundary (the latent bug
    pinned by ``tests/test_grid_bounded.py``).
    """
    if topology is not None:
        stencil = topology.ball_stencil(r, metric)
        if stencil is not None:
            return stencil.closed_ball(center)
    cx, cy = center
    pts = [(cx + dx, cy + dy) for dx, dy in get_metric(metric).offsets(r)]
    pts.append((cx, cy))
    if topology is not None:
        pts = [
            q
            for q in (topology.canonical(p) for p in pts)
            if topology.contains(q)
        ]
    return pts


def half_ball_points(
    metric, center: Coord, r: int, direction: Coord, *, strict: bool = True
) -> List[Coord]:
    """Points of the ball around ``center`` on the far side of the medial axis.

    Used in the paper's Section VIII: given a node ``N`` at ``center`` and a
    target node ``Q`` in direction ``direction`` from ``N``, the relevant
    half-neighborhood of ``N`` consists of points ``P`` with
    ``<P - N, direction> > 0`` (``>= 0`` when ``strict`` is ``False``),
    i.e. the half of ``nbd(N)`` nearer ``Q``, not counting points on the
    medial axis itself when ``strict``.

    ``direction`` need not be normalized; only its orientation matters.

    :raises ValueError: if ``direction`` is the zero vector.
    """
    dx, dy = direction
    if dx == 0 and dy == 0:
        raise ValueError("direction must be a nonzero vector")
    cx, cy = center
    out: List[Coord] = []
    for ox, oy in get_metric(metric).offsets(r):
        dot = ox * dx + oy * dy
        if dot > 0 or (dot == 0 and not strict):
            out.append((cx + ox, cy + oy))
    return out
