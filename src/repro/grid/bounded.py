"""A finite grid with real boundaries (no wrap).

The paper works on the infinite grid or the torus precisely because
"boundary anomalies are eliminated".  This topology keeps the anomalies:
a corner node has roughly a quarter of an interior node's neighborhood,
so the same per-neighborhood fault budget ``t`` is relatively much larger
near the boundary and the inductive constructions lose their slack.

The EXP-BOUNDARY experiment quantifies this: budgets that are safe on the
torus can strand boundary nodes on the bounded grid, and the minimum cut
between the source and a corner is thinner than ``r(2r+1)``.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import ConfigurationError
from repro.geometry.coords import Coord
from repro.grid.topology import Topology, check_sides


class BoundedGrid(Topology):
    """A ``width x height`` grid patch: nodes at ``0 <= x < width``,
    ``0 <= y < height``, with **no** wrap-around."""

    def __init__(self, width: int, height: int, r: int, metric="linf") -> None:
        super().__init__(r, metric)
        check_sides("grid", width, height)
        if width < 1 or height < 1:
            raise ConfigurationError(
                f"grid must be at least 1x1, got {width}x{height}"
            )
        self._width = width
        self._height = height

    @classmethod
    def square(cls, side: int, r: int, metric="linf") -> "BoundedGrid":
        """A square patch of the given side."""
        return cls(side, side, r, metric)

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
        """Total node count."""
        return self._width * self._height

    def canonical(self, p: Coord) -> Coord:
        # no wrapping: canonical form is the coordinate itself
        return (int(p[0]), int(p[1]))

    def contains(self, p: Coord) -> bool:
        x, y = p
        return 0 <= x < self._width and 0 <= y < self._height

    def nodes(self) -> Iterator[Coord]:
        """All grid nodes, row-major."""
        for y in range(self._height):
            for x in range(self._width):
                yield (x, y)

    def neighbors(self, p: Coord) -> Tuple[Coord, ...]:
        if not self.contains(p):
            raise ConfigurationError(f"{p} is outside the {self!r}")
        x, y = p
        return tuple(
            (x + dx, y + dy)
            for dx, dy in self.metric.offsets(self.r)
            if 0 <= x + dx < self._width and 0 <= y + dy < self._height
        )

    def is_boundary(self, p: Coord, margin: int = None) -> bool:
        """Whether ``p`` lies within ``margin`` (default ``r``) of an
        edge -- i.e. its neighborhood is truncated."""
        m = self.r if margin is None else margin
        x, y = p
        return (
            x < m
            or y < m
            or x >= self._width - m
            or y >= self._height - m
        )

    def distance(self, a: Coord, b: Coord) -> float:
        """Plain metric distance (no wrap)."""
        return self.metric.distance(a, b)

    def __repr__(self) -> str:
        return (
            f"BoundedGrid({self._width}x{self._height}, r={self.r}, "
            f"metric={self.metric.name!r})"
        )
