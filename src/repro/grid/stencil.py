"""The closed-ball stencil of a torus: one ball geometry for every layer.

Fault counting (placement, trim, the adversary's budget), the reference
engine's receiver table and the fastpath
:class:`~repro.radio.fastpath.lattice.Lattice` all walk the same
radius-``r`` balls on the same torus.  A :class:`TorusStencil` is that
geometry, defined once:

- **ball order** -- a node's open ball lists the metric's offsets in
  :meth:`~repro.geometry.metrics.Metric.offsets` order; the *closed*
  ball appends the center itself
  (:func:`~repro.geometry.balls.closed_ball_points` order);
- **flat index** -- node ``(x, y)`` is ``x * height + y``, so ascending
  flat order is sorted node order;
- **per-axis tables** -- row ``x`` of :attr:`TorusStencil.x_wrap` holds
  ``(x + dx) % width`` for every offset ``(dx, dy)``, row ``y`` of
  :attr:`TorusStencil.y_wrap` holds ``(y + dy) % height``, and
  :attr:`TorusStencil.x_flat` is ``x_wrap * height``.

A ball is then two table rows zipped (coordinates) or added (flat
indices): no per-point modulo, no canonicalizing call.  The tables hold
``O((width + height) * K)`` ints for ``K`` offsets; there is
deliberately no ``O(N * K)`` per-node table, so even a side-1000 torus
costs well under a megabyte here.

Stencils are immutable (tuples throughout) and pure geometry, so
:func:`torus_stencil` shares one per ``(width, height, r, metric)``
through an ``lru_cache``.  They are built on first use, never at import.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import add
from typing import Dict, List, Tuple

from repro.geometry.coords import Coord
from repro.geometry.metrics import get_metric


class TorusStencil:
    """Radius-``r`` balls on a ``width x height`` torus under one metric.

    Attributes
    ----------
    width / height / size:
        Torus shape and node count ``N = width * height``.
    offsets:
        The open ball's ``K`` offsets, in ball order.
    x_wrap / y_wrap / x_flat:
        The per-axis tables described in the module docstring: one
        ``K``-tuple per x (``width`` rows) or per y (``height`` rows).
    """

    def __init__(self, width: int, height: int, r: int, metric) -> None:
        self.width = width
        self.height = height
        self.size = width * height
        self.offsets: Tuple[Coord, ...] = get_metric(metric).offsets(r)
        self.x_wrap = tuple(
            tuple((x + dx) % width for dx, _ in self.offsets)
            for x in range(width)
        )
        self.y_wrap = tuple(
            tuple((y + dy) % height for _, dy in self.offsets)
            for y in range(height)
        )
        self.x_flat = tuple(
            tuple(v * height for v in row) for row in self.x_wrap
        )

    def flat(self, p: Coord) -> int:
        """Flat index of (the canonical form of) ``p``."""
        return (int(p[0]) % self.width) * self.height + int(p[1]) % self.height

    def coord(self, i: int) -> Coord:
        """Canonical coordinate of flat index ``i``."""
        return (i // self.height, i % self.height)

    def neighbors(self, p: Coord) -> Tuple[Coord, ...]:
        """The open ball around ``p`` (any integer coordinate), canonical."""
        x = int(p[0]) % self.width
        y = int(p[1]) % self.height
        return tuple(zip(self.x_wrap[x], self.y_wrap[y]))

    def closed_ball(self, p: Coord) -> List[Coord]:
        """The closed ball around ``p`` (any integer coordinate), canonical."""
        x = int(p[0]) % self.width
        y = int(p[1]) % self.height
        ball = list(zip(self.x_wrap[x], self.y_wrap[y]))
        ball.append((x, y))
        return ball

    def flat_ball(self, p: Coord) -> List[int]:
        """Flat indices of the closed ball around the *canonical* ``p``."""
        x, y = p
        ball = list(map(add, self.x_flat[x], self.y_wrap[y]))
        ball.append(x * self.height + y)
        return ball

    def neighbor_map(self) -> Dict[Coord, Tuple[Coord, ...]]:
        """Every node's open ball, keyed in flat (= sorted) node order.

        The neighbor tuples hold the key objects themselves, so the map
        costs ``N * K`` references rather than ``N * K`` fresh coordinate
        tuples.
        """
        nodes = list(product(range(self.width), range(self.height)))
        at = nodes.__getitem__
        balls = (map(add, xf, yw) for xf in self.x_flat for yw in self.y_wrap)
        return {node: tuple(map(at, ball)) for node, ball in zip(nodes, balls)}


@lru_cache(maxsize=16)
def torus_stencil(
    width: int, height: int, r: int, metric: str
) -> TorusStencil:
    """The shared :class:`TorusStencil` for one torus shape.

    ``metric`` is a metric *name*, so the cache key is plain data.
    """
    return TorusStencil(width, height, r, metric)
