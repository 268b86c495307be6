"""Tests for repro.grid.bounded (the boundary-anomaly topology)."""

import pytest

from repro.analysis.flows import local_vertex_connectivity
from repro.errors import ConfigurationError
from repro.grid.bounded import BoundedGrid
from repro.grid.graphs import adjacency_map
from repro.grid.torus import Torus
from repro.protocols.registry import correct_process_map
from repro.radio.run import run_broadcast


class TestBasics:
    def test_construction(self):
        g = BoundedGrid(5, 7, 1)
        assert len(g) == 35
        assert g.num_nodes == 35
        assert g.is_finite
        assert "BoundedGrid(5x7" in repr(g)

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            BoundedGrid(0, 5, 1)

    @pytest.mark.parametrize("side", [7.5, "big", True])
    def test_non_int_side_refused(self, side):
        with pytest.raises(ConfigurationError, match="must be integers"):
            BoundedGrid.square(side, 1)

    def test_no_wrap(self):
        g = BoundedGrid(5, 5, 1)
        assert g.canonical((7, -1)) == (7, -1)  # identity, no wrapping
        assert not g.contains((7, -1))
        assert g.contains((4, 4))

    def test_neighbor_truncation(self):
        g = BoundedGrid(9, 9, 1)
        assert len(g.neighbors((0, 0))) == 3  # corner
        assert len(g.neighbors((0, 4))) == 5  # edge
        assert len(g.neighbors((4, 4))) == 8  # interior

    def test_neighbors_outside_rejected(self):
        g = BoundedGrid(5, 5, 1)
        with pytest.raises(ConfigurationError):
            g.neighbors((9, 9))

    def test_is_boundary(self):
        g = BoundedGrid(9, 9, 2)
        assert g.is_boundary((0, 0))
        assert g.is_boundary((1, 4))
        assert not g.is_boundary((4, 4))
        assert g.is_boundary((4, 4), margin=5)

    def test_neighbor_symmetry(self):
        g = BoundedGrid(7, 7, 2)
        for node in g.nodes():
            for nb in g.neighbors(node):
                assert node in g.neighbors(nb)


class TestBoundaryAnomalies:
    """The paper's reason for choosing torus/infinite grids, quantified."""

    def test_corner_connectivity_below_torus(self):
        r = 1
        bounded = BoundedGrid.square(9, r)
        torus = Torus.square(9, r)
        source = (4, 4)
        corner_cut = local_vertex_connectivity(
            adjacency_map(bounded), source, (0, 0)
        )
        interior_cut = local_vertex_connectivity(
            adjacency_map(torus), source, (0, 0)
        )
        assert corner_cut == 3  # the corner's degree
        assert interior_cut > corner_cut

    def test_crash_tolerance_degrades_at_corner(self):
        """t faults that any torus neighborhood tolerates can strand a
        bounded-grid corner: kill the corner's 3 neighbors (valid for
        t = r(2r+1) - 1 = 2? no -- 3 faults in one nbd needs t >= 3, which
        equals the torus threshold; but the *relative* cost is the point:
        3 faults cut the corner while the torus needs a 2-strip)."""
        r = 1
        bounded = BoundedGrid.square(9, r)
        source = (4, 4)
        crashed = {(0, 1), (1, 1), (1, 0)}
        correct = set(bounded.nodes()) - crashed
        processes = correct_process_map(
            bounded, "crash-flood", 3, source, 1, correct
        )
        out = run_broadcast(
            bounded,
            processes,
            1,
            correct,
            crash_round={c: 0 for c in crashed},
        )
        assert not out.live
        assert out.undecided == [(0, 0)]

    def test_fault_free_broadcast_still_works(self):
        bounded = BoundedGrid.square(9, 1)
        correct = set(bounded.nodes())
        processes = correct_process_map(
            bounded, "crash-flood", 0, (4, 4), 1, correct
        )
        out = run_broadcast(bounded, processes, 1, correct)
        assert out.achieved

    def test_cpa_fault_free_on_bounded_grid(self):
        bounded = BoundedGrid.square(9, 1)
        correct = set(bounded.nodes())
        processes = correct_process_map(bounded, "cpa", 0, (4, 4), 1, correct)
        out = run_broadcast(bounded, processes, 1, correct)
        assert out.achieved


class TestBoundedBallTruncation:
    """Edge pins for the closed-ball geometry on bounded grids.

    ``closed_ball_points`` truncates to points the grid actually hosts;
    before the fix it returned phantom off-grid centers for boundary
    balls (canonicalization is the identity here), silently inflating
    the budget-validation windows near corners and edges and making the
    counts asymmetric between the four corners and the interior.
    """

    # (label, center, metric) -> |closed ball| on a 7x7 grid with r=2
    PINS = {
        ("corner", (0, 0), "linf"): 9,      # 3x3 quadrant
        ("corner", (0, 0), "l2"): 6,
        ("edge", (3, 0), "linf"): 15,       # 5x3 half-window
        ("edge", (3, 0), "l2"): 9,
        ("interior", (3, 3), "linf"): 25,   # full (2r+1)^2 window
        ("interior", (3, 3), "l2"): 13,     # full lattice disc
    }

    @pytest.mark.parametrize(
        "label,center,metric,expected",
        [(lb, c, m, n) for (lb, c, m), n in sorted(PINS.items())],
    )
    def test_ball_cardinality_pins(self, label, center, metric, expected):
        from repro.geometry.balls import closed_ball_points

        g = BoundedGrid.square(7, 2)
        pts = closed_ball_points(metric, center, 2, topology=g)
        assert len(pts) == expected, (label, center, metric)
        assert len(set(pts)) == len(pts)
        assert all(g.contains(q) for q in pts), (
            f"{label} ball leaked off-grid points: "
            f"{[q for q in pts if not g.contains(q)]}"
        )
        assert center in pts  # the ball is closed

    @pytest.mark.parametrize("metric", ["linf", "l2"])
    def test_four_corners_symmetric(self, metric):
        """All four corner balls are congruent -- the asymmetry the
        phantom points used to introduce is gone."""
        from repro.geometry.balls import closed_ball_points

        g = BoundedGrid.square(7, 2)
        sizes = {
            corner: len(closed_ball_points(metric, corner, 2, topology=g))
            for corner in ((0, 0), (0, 6), (6, 0), (6, 6))
        }
        assert len(set(sizes.values())) == 1, sizes

    def test_interior_ball_matches_free_lattice(self):
        """Far from the boundary the truncation is a no-op: the bounded
        ball equals the free-lattice ball (plus center)."""
        from repro.geometry.balls import ball_points, closed_ball_points

        g = BoundedGrid.square(9, 2)
        for metric in ("linf", "l1", "l2"):
            free = set(ball_points(metric, (4, 4), 2)) | {(4, 4)}
            bounded = set(closed_ball_points(metric, (4, 4), 2, topology=g))
            assert bounded == free, metric

    def test_budget_witness_center_is_a_real_node(self):
        """Budget validation anchors its worst-neighborhood witness at a
        node the grid actually hosts, even for corner-packed faults."""
        from repro.faults.placement import max_faults_per_nbd

        g = BoundedGrid.square(7, 1)
        worst, center = max_faults_per_nbd(
            [(0, 0), (0, 1), (1, 0)], 1, metric="linf", topology=g
        )
        assert worst == 3
        assert g.contains(center)
