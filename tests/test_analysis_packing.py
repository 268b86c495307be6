"""Tests for repro.analysis.packing, including a brute-force oracle."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.analysis.packing as packing_module
from repro.analysis.packing import (
    PackingBudgetExceeded,
    find_set_packing,
    has_packing_of_size,
    max_set_packing,
)


def brute_force_max_packing(sets):
    """Exponential oracle: try all subsets, largest disjoint family."""
    frozen = [frozenset(s) for s in sets if s]
    best = 0
    for k in range(len(frozen), 0, -1):
        for combo in combinations(frozen, k):
            union = set()
            total = 0
            for s in combo:
                union |= s
                total += len(s)
            if len(union) == total:  # pairwise disjoint
                return k
        if best:
            break
    return best


small_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), min_size=1, max_size=3),
    min_size=0,
    max_size=8,
)

#: 1-2-element sets: the matching path (the two-hop commit rule's shape)
pair_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=9), min_size=1, max_size=2),
    min_size=0,
    max_size=10,
)

#: 1-4-element sets: the branch-and-bound path (the four-hop rule's shape)
wide_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), min_size=1, max_size=4),
    min_size=0,
    max_size=8,
)


class TestExactness:
    @given(small_sets)
    def test_matches_bruteforce(self, sets):
        assert max_set_packing(sets) == brute_force_max_packing(sets)

    @given(small_sets, st.integers(min_value=1, max_value=6))
    def test_target_consistency(self, sets, k):
        has = has_packing_of_size(sets, k)
        assert has == (brute_force_max_packing(sets) >= k)

    @given(pair_sets, st.integers(min_value=1, max_value=5))
    def test_predicate_exact_on_pairs(self, sets, k):
        assert has_packing_of_size(sets, k) == (
            brute_force_max_packing(sets) >= k
        )

    @given(wide_sets, st.integers(min_value=1, max_value=5))
    def test_predicate_exact_on_wide_sets(self, sets, k):
        assert has_packing_of_size(sets, k) == (
            brute_force_max_packing(sets) >= k
        )

    def test_empty(self):
        assert max_set_packing([]) == 0
        assert find_set_packing([]) == []

    def test_singletons_all_pack(self):
        sets = [{i} for i in range(10)]
        assert max_set_packing(sets) == 10

    def test_duplicates_collapse(self):
        assert max_set_packing([{1}, {1}, {1}]) == 1

    def test_dominated_supersets_ignored(self):
        # {1} dominates {1,2}; the optimum uses {1} and {2,3}
        assert max_set_packing([{1, 2}, {1}, {2, 3}]) == 2

    def test_classic_conflict(self):
        sets = [{1, 2}, {2, 3}, {3, 4}]
        assert max_set_packing(sets) == 2

    def test_needs_backtracking(self):
        """Greedy smallest-first can pick {2} then be blocked; the optimum
        requires choosing overlapping-looking sets carefully."""
        sets = [{2}, {1, 3}, {2, 4}, {1, 5}, {3, 5}]
        # optimum: {2}, {1,3} -> blocked for {1,5},{3,5}; or {2},{1,5},{3,?}
        # brute force decides:
        assert max_set_packing(sets) == brute_force_max_packing(sets)


class TestWitness:
    @given(small_sets)
    def test_witness_is_valid_packing(self, sets):
        packing = find_set_packing(sets)
        union = set()
        for s in packing:
            assert union.isdisjoint(s)
            union |= s

    @given(small_sets, st.integers(min_value=1, max_value=5))
    def test_target_truncates(self, sets, k):
        packing = find_set_packing(sets, target=k)
        if brute_force_max_packing(sets) >= k:
            assert len(packing) == k

    def test_zero_target(self):
        assert find_set_packing([{1}], target=0) == []
        assert has_packing_of_size([], 0)


class TestHittingSetCertificate:
    """``has_packing_of_size`` answers False from a hitting set of at
    most ``k - 1`` elements when it finds one, and asks the exact solver
    otherwise."""

    def test_small_hitting_set_skips_the_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the certificate should have answered")

        monkeypatch.setattr(packing_module, "find_set_packing", refuse)
        # {0, 4} hits every set, so no 3 of them are pairwise disjoint
        sets = [{0, 1}, {0, 2}, {0, 3}, {4, 5}, {4, 6}, {0, 4}]
        assert not has_packing_of_size(sets, 3)
        assert not has_packing_of_size([], 1)

    def test_triangle_falls_through_to_the_matcher(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return find_set_packing(*args, **kwargs)

        monkeypatch.setattr(packing_module, "find_set_packing", spy)
        # every two edges share a vertex, but no single vertex hits all
        # three: the certificate needs 2 elements where k - 1 = 1
        triangle = [{"a", "b"}, {"b", "c"}, {"a", "c"}]
        assert not has_packing_of_size(triangle, 2)
        assert len(calls) == 1
        assert has_packing_of_size(triangle, 1)

    def test_generator_input(self):
        assert has_packing_of_size((frozenset({i}) for i in range(3)), 3)
        assert not has_packing_of_size(
            (s for s in [{1, 2}, {1, 3}, {1, 4}]), 2
        )
        triangle = [{"a", "b"}, {"b", "c"}, {"a", "c"}]
        assert not has_packing_of_size((s for s in triangle), 2)


class TestBudget:
    def test_budget_trips_on_adversarial_instance(self):
        # Dense overlap forces branching (the greedy fast path cannot
        # reach the unreachable target); a tiny budget must trip.
        sets = [
            frozenset({i, j, k})
            for i in range(12)
            for j in range(i + 1, 12)
            for k in range(j + 1, 12)
        ]
        with pytest.raises(PackingBudgetExceeded):
            find_set_packing(sets, target=5, budget=3)

    def test_generous_budget_succeeds(self):
        sets = [{3 * i, 3 * i + 1, 3 * i + 2} for i in range(5)]
        assert max_set_packing(sets, budget=10_000) == 5


class TestProtocolShapedInstances:
    """Shapes the commit rules actually produce."""

    def test_chain_instance(self):
        """2t+1 disjoint chains plus adversarial overlapping fakes."""
        t = 4
        honest = [frozenset({("n", i)}) for i in range(t + 1)]
        honest += [
            frozenset({("n", t + 1 + i), ("m", i)}) for i in range(t)
        ]
        # fakes all share the same poisoned relay
        fakes = [frozenset({("x", i), ("bad", 0)}) for i in range(6)]
        assert has_packing_of_size(honest + fakes, 2 * t + 1)
        # fakes alone cannot reach t+1 disjoint chains beyond 1+...
        assert max_set_packing(fakes) == 1

    def test_relay_paths_instance(self):
        """Four-hop relay sets of size up to 3."""
        paths = [
            frozenset({(i, 0)}) for i in range(3)
        ] + [
            frozenset({(i, 1), (i, 2)}) for i in range(3)
        ] + [
            frozenset({(i, 3), (i, 4), (i, 5)}) for i in range(3)
        ]
        assert max_set_packing(paths) == 9
