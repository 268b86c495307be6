"""Tests for repro.geometry.balls: cardinality formulas vs enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.balls import (
    ball_offsets,
    ball_points,
    ball_size,
    closed_ball_points,
    half_ball_points,
    l1_ball_size,
    l2_ball_size,
    linf_ball_size,
)
from repro.geometry.metrics import L1, L2, LINF, get_metric
from repro.grid.stencil import torus_stencil
from repro.grid.torus import Torus

radii = st.integers(min_value=0, max_value=8)


class TestCardinalityFormulas:
    @given(radii)
    def test_linf_formula_matches_enumeration(self, r):
        assert linf_ball_size(r) == len(LINF.offsets(r))

    @given(radii)
    def test_l1_formula_matches_enumeration(self, r):
        assert l1_ball_size(r) == len(L1.offsets(r))

    @given(radii)
    def test_l2_count_matches_enumeration(self, r):
        assert l2_ball_size(r) == len(L2.offsets(r))

    def test_linf_known_values(self):
        assert linf_ball_size(1) == 8
        assert linf_ball_size(2) == 24
        assert linf_ball_size(3) == 48

    def test_l2_approaches_pi_r_squared(self):
        # Gauss circle: area pi r^2 with O(r) error.
        r = 50
        count = l2_ball_size(r) + 1  # include the center
        import math

        assert abs(count - math.pi * r * r) < 4 * r

    @given(st.sampled_from(["l1", "l2", "linf"]), radii)
    def test_ball_size_dispatch(self, name, r):
        assert ball_size(name, r) == len(ball_offsets(name, r))

    def test_negative_radius_rejected(self):
        for fn in (linf_ball_size, l1_ball_size, l2_ball_size):
            with pytest.raises(ValueError):
                fn(-1)


class TestBallPoints:
    def test_excludes_center(self):
        pts = ball_points("linf", (5, 5), 2)
        assert (5, 5) not in pts
        assert len(pts) == 24

    def test_centered_correctly(self):
        pts = set(ball_points("l1", (10, -3), 1))
        assert pts == {(11, -3), (9, -3), (10, -2), (10, -4)}


class TestHalfBall:
    def test_strict_excludes_medial_axis(self):
        pts = half_ball_points("linf", (0, 0), 2, (1, 0), strict=True)
        assert all(x > 0 for x, _ in pts)
        # half of 24 minus nothing extra: 2 columns x 5 rows = 10
        assert len(pts) == 10

    def test_nonstrict_includes_medial_axis(self):
        pts = half_ball_points("linf", (0, 0), 2, (1, 0), strict=False)
        assert any(x == 0 for x, _ in pts)
        assert len(pts) == 14  # 10 strict + 4 on the axis (excl. center)

    def test_diagonal_direction(self):
        pts = half_ball_points("l2", (0, 0), 3, (1, 1))
        assert all(x + y > 0 for x, y in pts)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            half_ball_points("l2", (0, 0), 2, (0, 0))

    def test_l2_half_count_near_half_area(self):
        r = 20
        pts = half_ball_points("l2", (0, 0), r, (0, 1), strict=True)
        import math

        assert abs(len(pts) - math.pi * r * r / 2) < 3 * r


def _oracle_closed_ball(metric, center, r, topology=None):
    """The per-point enumeration the torus stencil replaced: shift by
    every offset, append the center, canonicalize and filter point by
    point.  Also the oracle of ``tests/test_faults_placement.py``."""
    cx, cy = center
    pts = [(cx + dx, cy + dy) for dx, dy in get_metric(metric).offsets(r)]
    pts.append((cx, cy))
    if topology is None:
        return pts
    return [
        q for q in (topology.canonical(p) for p in pts) if topology.contains(q)
    ]


def _parity_tori(r, metric):
    k = 2 * r + 1
    return [
        Torus.square(4 * r + 3, r, metric),  # square
        Torus(k + 2, 3 * k, r, metric),  # non-square
        Torus(k, k, r, metric),  # side of exactly 2r + 1
        Torus(k, k + 4, r, metric),
    ]


class TestTorusStencil:
    @pytest.mark.parametrize("metric", ["linf", "l1", "l2"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_closed_ball_matches_oracle_in_order(self, metric, r):
        for torus in _parity_tori(r, metric):
            w, h = torus.width, torus.height
            centers = list(torus.nodes()) + [
                (-1, -1),
                (-w - 3, 2),
                (w, h),
                (2 * w + 1, -3 * h - 2),
            ]
            for c in centers:
                assert closed_ball_points(
                    metric, c, r, torus
                ) == _oracle_closed_ball(metric, c, r, torus), (torus, c)

    @pytest.mark.parametrize("metric", ["linf", "l1", "l2"])
    def test_other_radius_on_torus_matches_oracle(self, metric):
        # the budget may count a radius other than the torus's own
        torus = Torus.square(11, 1, metric)
        for c in [(0, 0), (10, 10), (-4, 17)]:
            assert closed_ball_points(
                metric, c, 3, torus
            ) == _oracle_closed_ball(metric, c, 3, torus)

    @pytest.mark.parametrize("metric", ["linf", "l1", "l2"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_neighbors_and_neighbor_map(self, metric, r):
        for torus in _parity_tori(r, metric):
            stencil = torus_stencil(torus.width, torus.height, r, metric)
            nmap = torus.neighbor_map()
            assert list(nmap) == sorted(torus.nodes())
            for node, nbrs in nmap.items():
                assert nbrs == tuple(
                    _oracle_closed_ball(metric, node, r, torus)[:-1]
                )
                assert torus.neighbors(node) == nbrs
                # flat balls are the same balls, as flat indices
                assert stencil.flat_ball(node) == [
                    stencil.flat(p) for p in nbrs + (node,)
                ]

    def test_flat_index_is_sorted_node_order(self):
        stencil = torus_stencil(5, 7, 1, "linf")
        nodes = sorted(Torus(5, 7, 1).nodes())
        assert [stencil.flat(p) for p in nodes] == list(range(35))
        assert [stencil.coord(i) for i in range(35)] == nodes
        assert stencil.flat((-1, 8)) == stencil.flat((4, 1))

    def test_stencil_is_shared_and_immutable(self):
        a = Torus.square(9, 2).ball_stencil(2, "linf")
        b = Torus.square(9, 2).ball_stencil(2, "chebyshev")
        assert a is b
        assert isinstance(a.x_wrap, tuple) and isinstance(a.x_wrap[0], tuple)
        assert Torus.square(9, 2).ball_stencil(2, "l1") is not a
