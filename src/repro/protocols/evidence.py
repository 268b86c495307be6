"""Evidence bookkeeping shared by the Bhandari-Vaidya protocols.

Both protocols must answer questions of the form "do enough node-disjoint
evidence chains exist *inside some single neighborhood*?".  The
:class:`CenterIndex` keeps, per candidate neighborhood center, the chains
fully contained in that neighborhood, so each new report touches only the
handful of centers that cover it and commit evaluation only revisits
centers whose evidence actually changed (DESIGN decision 14).

All coordinates here live in the owning node's unwrapped local frame.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Hashable, List, Sequence, Set, Tuple

from repro.analysis.packing import (
    PackingBudgetExceeded,
    find_set_packing,
    hitting_set,
)
from repro.geometry.coords import Coord
from repro.geometry.metrics import Metric


def covering_centers(
    points: Sequence[Coord], r: int, metric: Metric
) -> List[Coord]:
    """All centers whose radius-``r`` neighborhood contains every point.

    Same contract as :func:`repro.grid.neighborhoods.nbd_centers_covering`
    but takes a resolved metric and works in a local frame (no topology).

    Under L-infinity the answer has a closed form (the intersection of
    axis-aligned boxes), which matters: this is the protocols' hottest
    path -- every evidence chain is indexed under its covering centers.
    """
    if metric.name == "linf":
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x_lo, x_hi = max(xs) - r, min(xs) + r
        y_lo, y_hi = max(ys) - r, min(ys) + r
        return [
            (x, y)
            for x in range(x_lo, x_hi + 1)
            for y in range(y_lo, y_hi + 1)
        ]
    base = points[0]
    bx, by = base
    out: List[Coord] = []
    for dx in range(-r, r + 1):
        for dy in range(-r, r + 1):
            c = (bx + dx, by + dy)
            if metric.within(c, base, r) and all(
                metric.within(c, p, r) for p in points[1:]
            ):
                out.append(c)
    return out


@lru_cache(maxsize=4096)
def _shape_centers(
    shape: Tuple[Coord, ...], r: int, metric: Metric
) -> Tuple[Coord, ...]:
    """:func:`covering_centers` of a chain shape (its points shifted so the
    first one is the origin).  Covering is translation-invariant under
    every metric, so :meth:`CenterIndex.add` shifts the answer back
    instead of recomputing it for every chain of the same shape."""
    return tuple(covering_centers(shape, r, metric))


class CenterIndex:
    """Per-center, per-key lists of evidence chains.

    ``key`` is protocol-specific (a value for the two-hop rule; an
    ``(origin, value)`` pair for the four-hop determination rule).  A chain
    is a frozenset of local-frame coordinates; it is registered under every
    center whose neighborhood contains all of ``anchor_points`` plus the
    chain itself.  :meth:`has_packing` is the commit check the protocols
    run on it.
    """

    def __init__(self, r: int, metric: Metric) -> None:
        self.r = r
        self._metric = metric
        self._chains: Dict[Hashable, Dict[Coord, List[FrozenSet[Coord]]]] = {}
        self._seen: Dict[Hashable, Set[FrozenSet[Coord]]] = {}
        self._dirty: Dict[Hashable, Set[Coord]] = {}
        #: per key, the union of the hitting sets that settled earlier
        #: checks (see :meth:`has_packing`)
        self._hits: Dict[Hashable, Set[Coord]] = {}

    def add(
        self,
        key: Hashable,
        chain: FrozenSet[Coord],
        anchor_points: Sequence[Coord] = (),
    ) -> bool:
        """Register ``chain`` under ``key``; returns ``False`` on duplicate.

        ``anchor_points`` are additional points the covering neighborhood
        must contain (e.g. the report's origin and the evaluating node for
        the four-hop rule).
        """
        seen = self._seen.get(key)
        if seen is None:
            seen = self._seen[key] = set()
            self._chains[key] = {}
        elif chain in seen:
            return False
        seen.add(chain)
        pts = sorted(chain)
        pts.extend(anchor_points)
        x0, y0 = pts[0]
        shape = tuple([(x - x0, y - y0) for x, y in pts])
        centers = [
            (x0 + dx, y0 + dy)
            for dx, dy in _shape_centers(shape, self.r, self._metric)
        ]
        dirty = self._dirty.get(key)
        if dirty is None:
            dirty = self._dirty[key] = set()
        dirty.update(centers)
        per_center = self._chains[key]
        for center in centers:
            chains = per_center.get(center)
            if chains is None:
                per_center[center] = [chain]
            else:
                chains.append(chain)
        return True

    def pop_dirty(self) -> List[Tuple[Hashable, Coord]]:
        """Drain the (key, center) pairs with new evidence, sorted by
        ``repr``: that order decides which value commits first when an
        over-budget fault set supports more than one."""
        dirty = sorted(
            [
                (key, center)
                for key, centers in self._dirty.items()
                for center in centers
            ],
            key=repr,
        )
        self._dirty.clear()
        return dirty

    def chains_at(self, key: Hashable, center: Coord) -> List[FrozenSet[Coord]]:
        """Chains registered under ``key`` whose covering set includes
        ``center``."""
        return self._chains.get(key, {}).get(center, [])

    def has_packing(self, key: Hashable, center: Coord, k: int) -> bool:
        """Whether ``k >= 1`` pairwise node-disjoint chains lie at
        ``center``.

        Equals ``has_packing_of_size(chains_at(key, center), k)``, with a
        :class:`PackingBudgetExceeded` overrun read as ``False`` ("cannot
        determine yet", which never commits wrongly).  A set of at most
        ``k - 1`` nodes meeting every chain proves ``False``; every chain
        at ``center`` lies in its neighborhood, so the key's union of
        earlier hitting sets, cut to that neighborhood, is tried first,
        then a greedy hitting set (added to the union when found).  Every
        ``True`` comes from the exact solver.
        """
        chains = self.chains_at(key, center)
        if len(chains) < k:
            return False
        hits = self._hits.get(key)
        if hits:
            r, within = self.r, self._metric.within
            cut = [u for u in hits if within(u, center, r)]
            if len(cut) < k and all(not c.isdisjoint(cut) for c in chains):
                return False
        found = hitting_set(chains, k - 1)
        if found is not None:
            if hits is None:
                self._hits[key] = found
            else:
                hits |= found
            return False
        try:
            return len(find_set_packing(chains, target=k)) >= k
        except PackingBudgetExceeded:
            return False

    def keys(self) -> List[Hashable]:
        """All keys with registered evidence."""
        return list(self._chains)

    def distinct_chain_count(self) -> int:
        """Total distinct chains stored across all keys (the index's
        memory footprint in chain units)."""
        return sum(len(chains) for chains in self._seen.values())
