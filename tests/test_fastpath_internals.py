"""Unit tests for the fastpath engine's internal data structures.

The differential suite (``tests/test_fastpath_differential.py``) pins
the *observable* equivalence contract; this module pins the internal
building blocks directly, so a bug in one of them fails with a local,
named assertion instead of a whole-run byte diff:

- :class:`~repro.radio.fastpath.bitset.PackedBits` -- the packed
  boolean node-state arrays (side-1000 memory work);
- the :class:`~repro.radio.fastpath.lattice.Lattice` vectorized TDMA
  construction vs :func:`repro.grid.tdma.make_schedule` -- same slots,
  same order, same members;
- the on-the-fly ball stencil (:meth:`Lattice.balls_of`) vs the lazy
  ``nbr_idx`` table it replaced in the vectorized kernels.
"""

from __future__ import annotations

import pytest

from repro.grid.tdma import make_schedule
from repro.grid.torus import Torus
from repro.radio.fastpath import HAVE_NUMPY

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="fastpath engine needs numpy"
)


# -- PackedBits -----------------------------------------------------------


class TestPackedBits:
    def test_roundtrip_random(self):
        import numpy as np

        from repro.radio.fastpath.bitset import PackedBits

        rng = np.random.default_rng(0)
        for n in (1, 7, 8, 9, 63, 64, 65, 1000):
            expected = rng.random(n) < 0.5
            bits = PackedBits(n)
            bits.set_true(np.flatnonzero(expected))
            assert bits.to_list() == expected.tolist()
            assert (bits.to_array() == expected).all()
            idxs = np.arange(n)
            assert (bits.get(idxs) == expected).all()

    def test_fill_and_clear(self):
        import numpy as np

        from repro.radio.fastpath.bitset import PackedBits

        bits = PackedBits(20, fill=True)
        assert bits.to_list() == [True] * 20
        bits.set_false(np.asarray([0, 7, 8, 19]))
        arr = bits.to_array()
        assert not arr[[0, 7, 8, 19]].any()
        assert arr.sum() == 16

    def test_duplicate_indices_are_idempotent(self):
        """``np.bitwise_or.at`` must OR every occurrence: setting the
        same bit twice in one call is the classic ufunc-buffering bug
        that plain ``|=`` fancy indexing silently drops."""
        import numpy as np

        from repro.radio.fastpath.bitset import PackedBits

        bits = PackedBits(16)
        bits.set_true(np.asarray([3, 3, 3, 5, 5]))
        assert bits.to_array().nonzero()[0].tolist() == [3, 5]

    def test_memory_is_one_eighth(self):
        from repro.radio.fastpath.bitset import PackedBits

        n = 1_000_000
        bits = PackedBits(n)
        assert bits.words.nbytes == (n + 7) // 8  # vs n bytes for bool


# -- vectorized TDMA vs make_schedule -------------------------------------


@pytest.mark.parametrize(
    "w,h,r",
    [
        (3, 3, 1),    # minimal coloring torus
        (9, 9, 1),    # coloring
        (9, 6, 1),    # coloring, non-square
        (10, 10, 1),  # sequential (10 % 3 != 0)
        (5, 5, 2),    # minimal torus for r=2, sequential
        (10, 10, 2),  # coloring (k=5)
        (10, 15, 2),  # coloring, non-square
        (12, 10, 2),  # sequential (12 % 5 != 0)
        (7, 7, 3),    # coloring (k=7)
    ],
)
def test_lattice_schedule_matches_make_schedule(w, h, r):
    """The lattice's argsort/split construction must reproduce
    ``make_schedule`` exactly: same slot count, same slot order, same
    members in the same (sorted-coordinate) order."""
    from repro.radio.fastpath.lattice import Lattice

    topology = Torus(w, h, r)
    lattice = Lattice(topology)
    schedule = make_schedule(topology)

    assert len(lattice.slot_groups) == len(schedule.slots)
    for group, slot_nodes in zip(lattice.slot_groups, schedule.slots):
        assert lattice.coords(group) == list(slot_nodes)
    for node in topology.nodes():
        assert int(lattice.slot_of[lattice.flat(node)]) == (
            schedule.slot_of(node)
        )


# -- ball stencil vs neighbor table ---------------------------------------


@pytest.mark.parametrize("metric", ("linf", "l1", "l2"))
@pytest.mark.parametrize("w,h,r", [(5, 5, 1), (7, 9, 2), (5, 6, 2)])
def test_stencil_matches_neighbor_table(w, h, r, metric):
    """``balls_of`` computes exactly ``nbr_idx[idxs]`` -- same receiver
    sets in the same (metric offset) order -- without the O(N*K) table
    the kernels no longer materialize."""
    import numpy as np

    from repro.radio.fastpath.lattice import Lattice

    lattice = Lattice(Torus(w, h, r, metric=metric))
    idxs = np.arange(lattice.num_nodes)
    # per-point oracle, independent of the shared stencil tables
    want = np.array(
        [
            [((x + dx) % w) * h + (y + dy) % h for dx, dy in lattice.offsets]
            for x in range(w)
            for y in range(h)
        ]
    )
    assert (lattice.nbr_idx == want).all()
    assert (lattice.balls_of(idxs) == want).all()
    # the on-the-fly branch large tori take (no table) agrees too
    lattice._use_table = False
    assert (lattice.balls_of(idxs) == want).all()
    for i in (0, lattice.num_nodes // 2, lattice.num_nodes - 1):
        assert (lattice.ball_of(i) == want[i]).all()
        # and the stencil order is the topology's neighbor order
        assert lattice.coords(lattice.ball_of(i)) == [
            lattice.topology.canonical(nb)
            for nb in lattice.topology.neighbors(lattice.coord(i))
        ]
