"""Tests for repro.analysis.reachability, .percolation, .stats."""

import random

import pytest

from repro.analysis.percolation import (
    critical_probability_estimate,
    percolation_curve,
    percolation_trial,
)
from repro.analysis.reachability import crash_broadcast_coverage, reachable_from
from repro.analysis.stats import confidence_interval95, mean, stdev, summarize
from repro.grid.torus import Torus


class TestReachability:
    def test_full_torus_reachable(self):
        t = Torus.square(7, 1)
        assert len(reachable_from(t, [(0, 0)])) == 49

    def test_blocked_nodes_excluded(self):
        t = Torus.square(7, 1)
        blocked = [(x, y) for x in (2, 5) for y in range(7)]
        reached = reachable_from(t, [(0, 0)], blocked=blocked)
        assert (3, 3) not in reached
        assert (0, 3) in reached

    def test_blocked_source(self):
        t = Torus.square(7, 1)
        assert reachable_from(t, [(0, 0)], blocked=[(0, 0)]) == set()

    def test_coverage_report(self):
        t = Torus.square(9, 1)
        crashed = [(x, y) for x in (3, 7) for y in range(9)]
        rep = crash_broadcast_coverage(t, (0, 0), crashed)
        assert not rep.complete
        assert 0 < rep.coverage < 1
        assert rep.total_correct == 81 - 18

    def test_coverage_complete(self):
        t = Torus.square(7, 1)
        rep = crash_broadcast_coverage(t, (0, 0), [(3, 3)])
        assert rep.complete and rep.coverage == 1.0

    def test_crashed_source_rejected(self):
        t = Torus.square(7, 1)
        with pytest.raises(ValueError):
            crash_broadcast_coverage(t, (0, 0), [(0, 0)])


class TestPercolation:
    def test_trial_extremes(self):
        t = Torus.square(9, 1)
        rng = random.Random(1)
        assert percolation_trial(t, (0, 0), 0.0, rng) == 1.0
        assert percolation_trial(t, (0, 0), 1.0, rng) == 1.0  # only source left

    def test_invalid_probability(self):
        t = Torus.square(9, 1)
        with pytest.raises(ValueError):
            percolation_trial(t, (0, 0), 1.5, random.Random(0))

    def test_curve_monotone_shape(self):
        t = Torus.square(15, 1)
        pts = percolation_curve(t, (0, 0), [0.05, 0.5, 0.9], trials=8, seed=3)
        # low p: nearly full coverage; high p: tiny fraction of a huge
        # correct population... coverage counts reached/correct, so at
        # p=0.9 most correct nodes are isolated -> low coverage.
        assert pts[0].mean_coverage > 0.95
        assert pts[0].mean_coverage >= pts[-1].mean_coverage

    def test_curve_deterministic(self):
        t = Torus.square(11, 1)
        a = percolation_curve(t, (0, 0), [0.3], trials=5, seed=7)
        b = percolation_curve(t, (0, 0), [0.3], trials=5, seed=7)
        assert a[0].mean_coverage == b[0].mean_coverage

    def test_invalid_trials(self):
        t = Torus.square(9, 1)
        with pytest.raises(ValueError):
            percolation_curve(t, (0, 0), [0.5], trials=0)

    def test_critical_estimate(self):
        t = Torus.square(15, 1)
        pts = percolation_curve(
            t, (0, 0), [0.1, 0.3, 0.5, 0.7, 0.9], trials=6, seed=1
        )
        est = critical_probability_estimate(pts)
        if est is not None:
            assert 0.1 <= est <= 0.9

    def test_critical_estimate_none_when_flat(self):
        t = Torus.square(9, 2)
        pts = percolation_curve(t, (0, 0), [0.01], trials=4, seed=2)
        assert critical_probability_estimate(pts, threshold=0.0) is None


class TestClusterStatistics:
    def test_no_failures_one_cluster(self):
        from repro.analysis.percolation import cluster_statistics

        t = Torus.square(9, 1)
        stats = cluster_statistics(t, 0.0, random.Random(0))
        assert stats.clusters == 1
        assert stats.largest_fraction == 1.0
        assert stats.survivors == 81

    def test_all_failures(self):
        from repro.analysis.percolation import cluster_statistics

        t = Torus.square(9, 1)
        stats = cluster_statistics(t, 1.0, random.Random(0))
        assert stats.survivors == 0
        assert stats.largest_fraction == 0.0

    def test_invalid_probability(self):
        from repro.analysis.percolation import cluster_statistics

        with pytest.raises(ValueError):
            cluster_statistics(Torus.square(9, 1), 2.0, random.Random(0))

    def test_curve_shape(self):
        from repro.analysis.percolation import cluster_statistics_curve

        t = Torus.square(15, 1)
        rows = cluster_statistics_curve(t, [0.05, 0.9], trials=4, seed=1)
        assert rows[0]["mean_largest_fraction"] > rows[1][
            "mean_largest_fraction"
        ]

    def test_curve_deterministic(self):
        from repro.analysis.percolation import cluster_statistics_curve

        t = Torus.square(11, 1)
        a = cluster_statistics_curve(t, [0.4], trials=3, seed=5)
        b = cluster_statistics_curve(t, [0.4], trials=3, seed=5)
        assert a == b


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev(self):
        assert stdev([2.0, 2.0, 2.0]) == 0.0
        assert stdev([5.0]) == 0.0
        assert stdev([1.0, 3.0]) == pytest.approx(2.0**0.5)

    def test_ci_contains_mean(self):
        lo, hi = confidence_interval95([1.0, 2.0, 3.0, 4.0])
        assert lo <= 2.5 <= hi

    def test_ci_degenerate(self):
        assert confidence_interval95([7.0]) == (7.0, 7.0)

    def test_summarize_keys(self):
        s = summarize([1.0, 2.0])
        assert set(s) == {"n", "mean", "stdev", "min", "max"}
