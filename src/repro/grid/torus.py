"""The finite toroidal grid used for simulation.

The paper notes (Section I) that its infinite-grid results "also hold for a
finite toroidal network, as boundary anomalies are eliminated".  The
:class:`Torus` wraps a ``width x height`` block of lattice points so that
every node sees an identical, translation-invariant neighborhood -- exactly
the property the inductive proofs rely on.

Sizing guidance
---------------

- A side of at least ``2r + 1`` is *required*: below that, a node's
  neighborhood would wrap onto itself and contain duplicate nodes, breaking
  the model.
- A side of at least ``4r + 3`` is *recommended* for fidelity: the paper's
  indirect-report protocol looks four hops out, and with side >= 4r+3 a
  neighborhood together with its relevant halo never self-intersects
  through the wrap, so a finite run is indistinguishable from an
  infinite-grid run locally.  Constructors accept smaller (>= 2r+1) sizes
  because they remain useful for cheap unit tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.errors import ConfigurationError
from repro.geometry.coords import Coord
from repro.geometry.metrics import get_metric
from repro.grid.stencil import TorusStencil, torus_stencil
from repro.grid.topology import Topology, check_sides


class Torus(Topology):
    """A ``width x height`` toroidal grid with transmission radius ``r``.

    Canonical coordinates are ``(x, y)`` with ``0 <= x < width`` and
    ``0 <= y < height``; arbitrary integer coordinates are wrapped
    modularly, so callers may keep reasoning in infinite-grid coordinates
    (e.g. place the source at ``(0, 0)`` and a fault strip at ``x = a``).
    """

    def __init__(self, width: int, height: int, r: int, metric="linf") -> None:
        super().__init__(r, metric)
        check_sides("torus", width, height)
        if width < 2 * self.r + 1 or height < 2 * self.r + 1:
            raise ConfigurationError(
                f"torus {width}x{height} is too small for r={self.r}: both "
                f"sides must be at least 2r+1 = {2 * self.r + 1} so that "
                "neighborhoods do not wrap onto themselves"
            )
        self._width = width
        self._height = height

    @classmethod
    def square(cls, side: int, r: int, metric="linf") -> "Torus":
        """A square torus of the given side."""
        return cls(side, side, r, metric)

    @classmethod
    def recommended(cls, r: int, metric="linf", slack: int = 0) -> "Torus":
        """The smallest square torus that behaves like the infinite grid
        for all protocols in this library (side ``4r + 3 + slack``)."""
        return cls.square(4 * r + 3 + max(0, slack), r, metric)

    @property
    def width(self) -> int:
        """Number of distinct x coordinates."""
        return self._width

    @property
    def height(self) -> int:
        """Number of distinct y coordinates."""
        return self._height

    @property
    def is_finite(self) -> bool:
        return True

    def __len__(self) -> int:
        return self._width * self._height

    @property
    def num_nodes(self) -> int:
        """Total node count (``width * height``)."""
        return self._width * self._height

    def canonical(self, p: Coord) -> Coord:
        return (int(p[0]) % self._width, int(p[1]) % self._height)

    def contains(self, p: Coord) -> bool:
        return True  # every wrapped coordinate hosts a node

    def nodes(self) -> Iterator[Coord]:
        """All canonical coordinates, row-major."""
        for y in range(self._height):
            for x in range(self._width):
                yield (x, y)

    def ball_stencil(self, r: int, metric) -> TorusStencil:
        return torus_stencil(
            self._width, self._height, int(r), get_metric(metric).name
        )

    def neighbors(self, p: Coord) -> Tuple[Coord, ...]:
        return self.ball_stencil(self.r, self.metric).neighbors(p)

    def neighbor_map(self) -> Dict[Coord, Tuple[Coord, ...]]:
        return self.ball_stencil(self.r, self.metric).neighbor_map()

    def toroidal_delta(self, a: Coord, b: Coord) -> Coord:
        """The shortest wrapped displacement from ``a`` to ``b``.

        Each component is reduced to the range ``(-side/2, side/2]``.
        """
        ax, ay = self.canonical(a)
        bx, by = self.canonical(b)
        dx = (bx - ax) % self._width
        if dx > self._width // 2:
            dx -= self._width
        dy = (by - ay) % self._height
        if dy > self._height // 2:
            dy -= self._height
        return (dx, dy)

    def distance(self, a: Coord, b: Coord) -> float:
        """Metric distance using the shortest toroidal displacement."""
        dx, dy = self.toroidal_delta(a, b)
        return self.metric.distance((0, 0), (dx, dy))

    def __repr__(self) -> str:
        return (
            f"Torus({self._width}x{self._height}, r={self.r}, "
            f"metric={self.metric.name!r})"
        )
