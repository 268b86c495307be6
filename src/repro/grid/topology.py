"""Topology interface and the infinite grid.

A :class:`Topology` binds together the lattice, a distance metric and a
transmission radius ``r``.  It answers the two questions every layer above
asks: *which nodes exist* and *who hears whom*.

Two concrete topologies exist:

- :class:`InfiniteGrid` -- every lattice point hosts a node.  Used by the
  analytic/constructive modules (:mod:`repro.core`), which never need to
  materialize the node set.
- :class:`repro.grid.torus.Torus` -- a finite ``width x height`` torus used
  by the simulator.  Per the paper (Section I), the toroidal wrap removes
  boundary anomalies so finite simulations reflect the infinite-grid
  results.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.geometry.coords import Coord
from repro.geometry.metrics import Metric, get_metric

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.stencil import TorusStencil


def check_sides(kind: str, width: object, height: object) -> None:
    """Refuse a finite grid side that is not an ``int`` (a ``bool``
    included) rather than round it: a side of 7.5 names no grid.

    :raises ConfigurationError: naming ``kind`` and both sides.
    """
    for side in (width, height):
        if isinstance(side, bool) or not isinstance(side, int):
            raise ConfigurationError(
                f"{kind} sides must be integers, got {width!r} x {height!r}"
            )


class Topology(ABC):
    """A node layout plus a radio reachability relation.

    Coordinates passed to topology methods are always reduced to a
    *canonical* form first (the identity on the infinite grid; modular
    wrapping on a torus).  All returned coordinates are canonical.
    """

    def __init__(self, r: int, metric="linf") -> None:
        if r < 1:
            raise ConfigurationError(
                f"transmission radius must be a positive integer, got {r}"
            )
        self._r = int(r)
        self._metric = get_metric(metric)

    @property
    def r(self) -> int:
        """The transmission radius (an integer, per the paper)."""
        return self._r

    @property
    def metric(self) -> Metric:
        """The distance metric defining neighborhoods."""
        return self._metric

    @property
    @abstractmethod
    def is_finite(self) -> bool:
        """Whether the node set can be enumerated."""

    @abstractmethod
    def canonical(self, p: Coord) -> Coord:
        """Reduce a coordinate to its canonical representative."""

    @abstractmethod
    def contains(self, p: Coord) -> bool:
        """Whether a node exists at (the canonical form of) ``p``."""

    @abstractmethod
    def neighbors(self, p: Coord) -> Tuple[Coord, ...]:
        """Canonical coordinates of all nodes that hear ``p`` transmit
        (equivalently, all nodes ``p`` hears), excluding ``p`` itself."""

    def nodes(self) -> Iterable[Coord]:
        """Iterate all nodes (finite topologies only)."""
        raise ConfigurationError(
            f"{type(self).__name__} is infinite; its node set cannot be "
            "enumerated"
        )

    def neighbor_map(self) -> Dict[Coord, Tuple[Coord, ...]]:
        """Every node's :meth:`neighbors`, keyed in sorted node order
        (finite topologies only)."""
        return {node: self.neighbors(node) for node in sorted(self.nodes())}

    def ball_stencil(self, r: int, metric) -> Optional["TorusStencil"]:
        """The wrap-around ball stencil for radius ``r`` under ``metric``.

        Only a torus has one (:class:`~repro.grid.stencil.TorusStencil`);
        every other topology returns ``None``, and ball geometry on it
        goes through :meth:`canonical` and :meth:`contains` point by
        point (:func:`~repro.geometry.balls.closed_ball_points`).
        """
        return None

    def neighborhood_size(self) -> int:
        """Population of a (generic) neighborhood, excluding the center."""
        return self._metric.ball_size(self._r)

    def are_neighbors(self, a: Coord, b: Coord) -> bool:
        """Whether ``a`` and ``b`` are distinct nodes within distance r."""
        ca, cb = self.canonical(a), self.canonical(b)
        if ca == cb:
            return False
        return cb in self.neighbors(ca)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(r={self._r}, metric={self._metric.name!r})"
        )


class InfiniteGrid(Topology):
    """The paper's infinite unit grid: a node at every lattice point.

    Purely analytic -- neighborhoods are computed from metric offsets, and
    the node set is never materialized.
    """

    @property
    def is_finite(self) -> bool:
        return False

    def canonical(self, p: Coord) -> Coord:
        return (int(p[0]), int(p[1]))

    def contains(self, p: Coord) -> bool:
        return True

    def neighbors(self, p: Coord) -> Tuple[Coord, ...]:
        x, y = p
        return tuple((x + dx, y + dy) for dx, dy in self._metric.offsets(self._r))

    def distance(self, a: Coord, b: Coord) -> float:
        """Metric distance between two lattice points."""
        return self._metric.distance(a, b)
