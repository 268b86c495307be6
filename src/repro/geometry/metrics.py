"""Distance metrics on the integer lattice.

The paper analyzes two metrics (Section II):

- **L-infinity** (``max`` metric): ``nbd(a, b)`` is the square of side
  ``2r`` centered at ``(a, b)``.  This is the metric under which the paper
  establishes *exact* thresholds.
- **L2** (Euclidean): ``nbd(a, b)`` is the disc of radius ``r``.  The
  paper's L2 results are approximate ("informal arguments").

We additionally provide **L1** (Manhattan) for completeness; it is useful
for sanity experiments and exercises the metric abstraction.

A metric object knows how to measure distance between lattice points and
how to enumerate the lattice offsets that fall within a given radius.  All
offset enumerations are memoized because neighborhoods are queried millions
of times during simulation.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Dict, FrozenSet, Tuple

from repro.geometry.coords import Coord


class Metric(ABC):
    """A distance metric on the integer lattice.

    Subclasses are stateless singletons; use the module-level instances
    :data:`L1`, :data:`L2` and :data:`LINF`, or :func:`get_metric`.
    """

    #: short machine-readable name ("l1", "l2", "linf")
    name: str = "abstract"

    @abstractmethod
    def distance(self, a: Coord, b: Coord) -> float:
        """Distance between lattice points ``a`` and ``b``."""

    @abstractmethod
    def within(self, a: Coord, b: Coord, r: int) -> bool:
        """``True`` iff ``distance(a, b) <= r``.

        Implemented without floating point so that neighborhood membership
        is exact (important for L2, where ``sqrt`` rounding could
        misclassify boundary points).
        """

    @abstractmethod
    def _offsets_uncached(self, r: int) -> Tuple[Coord, ...]:
        """All lattice offsets ``(dx, dy) != (0, 0)`` with norm <= r."""

    def offsets(self, r: int) -> Tuple[Coord, ...]:
        """Memoized tuple of all nonzero offsets within radius ``r``.

        The neighborhood of a node ``v`` is ``{v + o for o in offsets(r)}``
        (the paper's ``nbd`` excludes the node itself when counting
        *neighbors*, and a node always knows its own value anyway).
        """
        return _offsets_cache(self.name, r, self)

    def ball_size(self, r: int) -> int:
        """Number of lattice points at distance <= r from a point,
        *excluding* the point itself (i.e. the neighborhood population)."""
        return len(self.offsets(r))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


@lru_cache(maxsize=None)
def _offsets_cache(name: str, r: int, metric: "Metric") -> Tuple[Coord, ...]:
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    return metric._offsets_uncached(r)


class LInfMetric(Metric):
    """The L-infinity (Chebyshev / max) metric.

    ``d((x1,y1),(x2,y2)) = max(|x1-x2|, |y1-y2|)``; the ball of radius
    ``r`` is the ``(2r+1) x (2r+1)`` square.
    """

    name = "linf"

    def distance(self, a: Coord, b: Coord) -> float:
        return float(max(abs(a[0] - b[0]), abs(a[1] - b[1])))

    def within(self, a: Coord, b: Coord, r: int) -> bool:
        return abs(a[0] - b[0]) <= r and abs(a[1] - b[1]) <= r

    def _offsets_uncached(self, r: int) -> Tuple[Coord, ...]:
        return tuple(
            (dx, dy)
            for dx in range(-r, r + 1)
            for dy in range(-r, r + 1)
            if (dx, dy) != (0, 0)
        )


class L2Metric(Metric):
    """The L2 (Euclidean) metric.

    Membership tests use exact integer arithmetic (``dx*dx + dy*dy <=
    r*r``), so boundary lattice points (e.g. ``(3, 4)`` for ``r = 5``) are
    classified exactly.
    """

    name = "l2"

    def distance(self, a: Coord, b: Coord) -> float:
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def within(self, a: Coord, b: Coord, r: int) -> bool:
        dx = a[0] - b[0]
        dy = a[1] - b[1]
        return dx * dx + dy * dy <= r * r

    def _offsets_uncached(self, r: int) -> Tuple[Coord, ...]:
        rr = r * r
        return tuple(
            (dx, dy)
            for dx in range(-r, r + 1)
            for dy in range(-r, r + 1)
            if (dx, dy) != (0, 0) and dx * dx + dy * dy <= rr
        )


class L1Metric(Metric):
    """The L1 (Manhattan / taxicab) metric; ball is a diamond."""

    name = "l1"

    def distance(self, a: Coord, b: Coord) -> float:
        return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))

    def within(self, a: Coord, b: Coord, r: int) -> bool:
        return abs(a[0] - b[0]) + abs(a[1] - b[1]) <= r

    def _offsets_uncached(self, r: int) -> Tuple[Coord, ...]:
        return tuple(
            (dx, dy)
            for dx in range(-r, r + 1)
            for dy in range(-r, r + 1)
            if (dx, dy) != (0, 0) and abs(dx) + abs(dy) <= r
        )


L1 = L1Metric()
L2 = L2Metric()
LINF = LInfMetric()

_METRICS: Dict[str, Metric] = {m.name: m for m in (L1, L2, LINF)}
_METRIC_TYPES: FrozenSet[type] = frozenset(map(type, _METRICS.values()))
_ALIASES: Dict[str, str] = {
    "manhattan": "l1",
    "taxicab": "l1",
    "euclidean": "l2",
    "chebyshev": "linf",
    "max": "linf",
    "l_inf": "linf",
    "linfinity": "linf",
    "l∞": "linf",
}


def get_metric(name) -> Metric:
    """Resolve a metric by name or pass an existing :class:`Metric` through.

    Accepts canonical names (``"l1"``, ``"l2"``, ``"linf"``) and common
    aliases (``"euclidean"``, ``"chebyshev"``, ``"manhattan"``, ...).

    >>> get_metric("euclidean") is L2
    True
    """
    # exact type first: every protocol object's constructor resolves an
    # already-resolved metric, where the ABC isinstance costs the most
    if type(name) in _METRIC_TYPES or isinstance(name, Metric):
        return name
    key = str(name).strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return _METRICS[key]
    except KeyError:
        raise ValueError(
            f"unknown metric {name!r}; expected one of {sorted(_METRICS)} "
            f"or aliases {sorted(_ALIASES)}"
        ) from None
