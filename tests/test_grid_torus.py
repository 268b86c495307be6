"""Tests for repro.grid.torus and repro.grid.topology."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.grid.topology import InfiniteGrid
from repro.grid.torus import Torus


class TestInfiniteGrid:
    def test_properties(self):
        g = InfiniteGrid(2)
        assert not g.is_finite
        assert g.r == 2
        assert g.metric.name == "linf"
        assert g.contains((10**9, -(10**9)))

    def test_neighbors_count(self):
        g = InfiniteGrid(2)
        assert len(g.neighbors((0, 0))) == 24
        g2 = InfiniteGrid(2, metric="l2")
        assert len(g2.neighbors((0, 0))) == 12

    def test_are_neighbors(self):
        g = InfiniteGrid(1)
        assert g.are_neighbors((0, 0), (1, 1))
        assert not g.are_neighbors((0, 0), (2, 0))
        assert not g.are_neighbors((0, 0), (0, 0))

    def test_nodes_not_enumerable(self):
        with pytest.raises(ConfigurationError):
            list(InfiniteGrid(1).nodes())

    def test_invalid_radius(self):
        with pytest.raises(ConfigurationError):
            InfiniteGrid(0)


class TestTorusConstruction:
    def test_minimum_size_enforced(self):
        with pytest.raises(ConfigurationError, match="too small"):
            Torus(4, 10, 2)
        Torus(5, 5, 2)  # 2r+1 exactly: allowed

    @pytest.mark.parametrize("side", [7.5, "big", True])
    def test_non_int_side_refused(self, side):
        """``int()`` would truncate 7.5 to 7, and a bool is no side."""
        with pytest.raises(ConfigurationError, match="must be integers"):
            Torus.square(side, 1)
        with pytest.raises(ConfigurationError, match="must be integers"):
            Torus(7, side, 1)

    def test_square_and_recommended(self):
        t = Torus.square(9, 2)
        assert t.width == t.height == 9
        rec = Torus.recommended(2)
        assert rec.width == 4 * 2 + 3

    def test_len_and_nodes(self):
        t = Torus(5, 7, 2)
        assert len(t) == 35
        nodes = list(t.nodes())
        assert len(nodes) == 35
        assert len(set(nodes)) == 35

    def test_repr(self):
        assert "Torus(5x7" in repr(Torus(5, 7, 2))


class TestTorusWrapping:
    def test_canonical(self):
        t = Torus(5, 5, 2)
        assert t.canonical((7, -1)) == (2, 4)
        assert t.canonical((0, 0)) == (0, 0)

    def test_neighbors_wrap(self):
        t = Torus(5, 5, 1)
        nbrs = t.neighbors((0, 0))
        assert len(nbrs) == 8
        assert (4, 4) in nbrs  # wrapped corner neighbor

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_neighbors_unique(self, x, y):
        t = Torus(7, 9, 2)
        nbrs = t.neighbors((x, y))
        assert len(set(nbrs)) == len(nbrs) == 24

    def test_neighbor_symmetry(self):
        t = Torus(7, 7, 2)
        for n in list(t.nodes())[:10]:
            for m in t.neighbors(n):
                assert n in t.neighbors(m)

    def test_toroidal_delta_shortest(self):
        t = Torus(10, 10, 2)
        assert t.toroidal_delta((0, 0), (9, 0)) == (-1, 0)
        assert t.toroidal_delta((0, 0), (5, 5)) == (5, 5)  # tie goes positive
        assert t.toroidal_delta((2, 3), (2, 3)) == (0, 0)

    def test_distance_via_wrap(self):
        t = Torus(10, 10, 2)
        assert t.distance((0, 0), (9, 9)) == 1.0  # linf through the corner

    def test_are_neighbors_via_wrap(self):
        t = Torus(6, 6, 1)
        assert t.are_neighbors((0, 0), (5, 5))
        assert not t.are_neighbors((0, 0), (3, 3))


class TestTorusMetrics:
    def test_l2_neighborhood(self):
        t = Torus(9, 9, 2, metric="l2")
        assert len(t.neighbors((4, 4))) == 12

    def test_neighborhood_size_matches(self):
        for metric in ("l1", "l2", "linf"):
            t = Torus(11, 11, 2, metric=metric)
            assert t.neighborhood_size() == len(t.neighbors((5, 5)))
