"""Dense array geometry for a torus: flat indices, ball stencils, slots.

The kernels never touch coordinate tuples in their hot loops.  A
:class:`Lattice` is the numpy form of the torus's shared
:class:`~repro.grid.stencil.TorusStencil`, which defines the flat index
(node ``(x, y)`` is ``x * height + y``, preserving the engine's
canonical sorted node order) and the ball order.  It precomputes:

- the radius-``r`` ball *stencil*: the stencil's per-axis tables as
  ``(width, K)`` / ``(height, K)`` arrays.  :meth:`balls_of` applies
  them to any batch of transmitters on the fly (two row gathers and one
  add), so delivery needs no per-node table.  On small tori -- where
  the ``(N, K)`` int64 ``nbr_idx`` table fits
  :data:`_TABLE_MAX_ENTRIES` -- :meth:`balls_of` materializes the table
  once and gathers from it instead; above the cap the stencil avoids
  the table's O(N*K) footprint entirely (192 MB at torus side 1000 with
  ``r=2``, where peak kernel RSS is the whole budget);
- the TDMA slot structure, built by a vectorized twin of
  :func:`repro.grid.tdma.make_schedule` (same groups, same order --
  pinned by ``tests/test_fastpath_differential.py``), so a side-1000
  torus does not pay for a million-entry schedule dict;
- metric distance-from-source fields for wave-front accounting.

Everything here is geometry; no simulation state lives on the lattice,
so one lattice can serve many runs over the same torus.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.geometry.coords import Coord
from repro.grid.torus import Torus
from repro.radio.fastpath.compat import require_numpy

#: largest ``N * K`` for which :meth:`Lattice.balls_of` gathers from the
#: materialized neighbor table (64 MB of int64) instead of from the
#: stencil's per-axis tables; side 200 at r=2 linf is 1M entries (well
#: under), side 1000 is 25M (well over).
_TABLE_MAX_ENTRIES = 8_000_000


class Lattice:
    """Flattened geometry of a :class:`~repro.grid.torus.Torus`.

    Attributes
    ----------
    width / height / num_nodes / r / ball_size:
        Torus shape, radius, and neighborhood population ``K``.
    offsets:
        The stencil's ``K`` ball offsets: the column order of
        :attr:`nbr_idx` and :meth:`balls_of`.
    slot_groups:
        One sorted flat-index array per TDMA slot, in slot order --
        exactly :func:`~repro.grid.tdma.make_schedule`'s frame.
    slot_of:
        ``(N,)`` array: each node's slot index.
    """

    def __init__(self, topology: Torus) -> None:
        np = require_numpy()
        if not isinstance(topology, Torus):
            raise ConfigurationError(
                "the fastpath engine supports only Torus topologies, got "
                f"{type(topology).__name__}"
            )
        self.topology = topology
        self.metric = topology.metric
        self.width = topology.width
        self.height = topology.height
        self.r = topology.r
        self.num_nodes = topology.num_nodes
        w, h, n = self.width, self.height, self.num_nodes

        stencil = topology.ball_stencil(self.r, self.metric)
        self._stencil = stencil
        self.offsets = stencil.offsets
        self.ball_size = len(self.offsets)
        # per-flat-index axis coordinates (the stencil's flat order)
        xs, ys = np.divmod(np.arange(n, dtype=np.int64), h)
        self.xs = xs
        self.ys = ys
        # the stencil's per-axis ball tables: row x of _x_flat plus row
        # y of _y_wrap is the flat ball of (x, y), in stencil ball order
        self._x_flat = np.asarray(stencil.x_flat, dtype=np.int64)
        self._y_wrap = np.asarray(stencil.y_wrap, dtype=np.int64)
        self._nbr_idx = None  # built lazily; see nbr_idx
        self._use_table = n * self.ball_size <= _TABLE_MAX_ENTRIES

        # TDMA frame, vectorized (same slots in the same order as
        # make_schedule): coloring by residue class when both sides are
        # divisible by k = 2r+1 -- slot of (x, y) is the row-major rank
        # of ((x % k), (y % k)), members ascending (flat order equals
        # sorted coordinate order) -- else one node per slot, sorted.
        k = 2 * self.r + 1
        if w % k == 0 and h % k == 0:
            slot_of = (xs % k) * k + (ys % k)
            counts = np.bincount(slot_of, minlength=k * k)
            order = np.argsort(slot_of, kind="stable")
            self.slot_groups: Tuple = tuple(
                np.split(order, np.cumsum(counts)[:-1])
            )
        else:
            slot_of = np.arange(n, dtype=np.int64)
            self.slot_groups = tuple(
                np.split(np.arange(n, dtype=np.int64), np.arange(1, n))
            )
        self.slot_of = slot_of
        self._coords_all: Optional[List[Coord]] = None
        self._dist_cache: dict = {}

    # -- index mapping -----------------------------------------------------

    def flat(self, node: Coord) -> int:
        """Flat index of a coordinate."""
        return self._stencil.flat(node)

    @property
    def coords_all(self) -> List[Coord]:
        """Canonical coordinate per flat index (flat order == sorted
        node order); one C-speed zip instead of N per-index lookups,
        built on first use and kept (result assembly needs it every
        run)."""
        if self._coords_all is None:
            self._coords_all = list(
                zip(self.xs.tolist(), self.ys.tolist())
            )
        return self._coords_all

    # -- neighborhoods -----------------------------------------------------

    @property
    def nbr_idx(self):
        """``(N, K)`` flat-index ball table (offset order), built lazily.

        The scalar bv-two-hop kernel walks it as per-node Python lists,
        and :meth:`balls_of` gathers from it whenever ``N * K`` is at
        most :data:`_TABLE_MAX_ENTRIES` (every torus up to side 577 at
        ``r=2`` under linf).  Only above that cap do the vectorized
        kernels leave it unbuilt and use the stencil.
        """
        if self._nbr_idx is None:
            # (width, 1, K) + (1, height, K): entry [x, y] is the ball of
            # flat index x * height + y, so the reshape is in flat order
            nbr = self._x_flat[:, None, :] + self._y_wrap[None, :, :]
            self._nbr_idx = nbr.reshape(self.num_nodes, self.ball_size)
        return self._nbr_idx

    def balls_of(self, idxs):
        """``(m, K)`` receiver flat indices for transmitters ``idxs``.

        Exactly ``nbr_idx[idxs]`` either way: a table gather when the
        table is small enough to keep (:data:`_TABLE_MAX_ENTRIES`), else
        the on-the-fly stencil -- O(m*K) work and memory, independent
        of N.
        """
        if self._use_table:
            return self.nbr_idx[idxs]
        return self._x_flat[self.xs[idxs]] + self._y_wrap[self.ys[idxs]]

    # -- derived fields ----------------------------------------------------

    def distance_from(self, source: Coord):
        """``(N,)`` float array of torus metric distance from ``source``.

        Matches :meth:`repro.grid.torus.Torus.distance` exactly: shortest
        wrapped displacement per axis, then the metric norm.  Memoized
        per canonical source (callers must treat the array as
        read-only).
        """
        np = require_numpy()
        sx, sy = self.topology.canonical(source)
        cached = self._dist_cache.get((sx, sy))
        if cached is not None:
            return cached
        dx = np.abs(self.xs - sx)
        dx = np.minimum(dx, self.width - dx)
        dy = np.abs(self.ys - sy)
        dy = np.minimum(dy, self.height - dy)
        name = self.metric.name
        if name == "linf":
            dist = np.maximum(dx, dy).astype(np.float64)
        elif name == "l1":
            dist = (dx + dy).astype(np.float64)
        elif name == "l2":
            # math.hypot, not np.hypot: the reference path goes through
            # Metric.distance and the two can differ in the last ulp --
            # wave-front floats must match bit-for-bit.
            dist = np.fromiter(
                (
                    math.hypot(a, b)
                    for a, b in zip(dx.tolist(), dy.tolist())
                ),
                dtype=np.float64,
                count=self.num_nodes,
            )
        else:
            raise ConfigurationError(
                f"fastpath has no distance kernel for metric {name!r}"
            )
        if len(self._dist_cache) >= 8:
            self._dist_cache.pop(next(iter(self._dist_cache)))
        self._dist_cache[(sx, sy)] = dist
        return dist
