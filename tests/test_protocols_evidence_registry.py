"""Tests for repro.protocols.evidence and repro.protocols.registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.protocols.evidence as evidence_module
from repro.analysis.packing import PackingBudgetExceeded, has_packing_of_size
from repro.errors import ConfigurationError
from repro.geometry.metrics import LINF, get_metric
from repro.grid.torus import Torus
from repro.protocols.evidence import CenterIndex, covering_centers
from repro.protocols.registry import (
    PROTOCOLS,
    correct_process_map,
    make_protocol,
    protocol_names,
)


class TestCoveringCenters:
    def test_matches_grid_helper(self):
        from repro.grid.neighborhoods import nbd_centers_covering

        pts = [(0, 0), (2, 1), (1, 2)]
        assert sorted(covering_centers(pts, 2, LINF)) == nbd_centers_covering(
            pts, 2
        )

    def test_point_covers_itself(self):
        assert (0, 0) in covering_centers([(0, 0)], 1, LINF)

    def test_uncoverable(self):
        assert covering_centers([(0, 0), (10, 0)], 2, LINF) == []


class TestCenterIndex:
    def test_add_and_query(self):
        idx = CenterIndex(1, LINF)
        chain = frozenset({(1, 0)})
        assert idx.add("v", chain)
        assert chain in idx.chains_at("v", (0, 0))
        assert chain in idx.chains_at("v", (1, 1))
        assert idx.chains_at("v", (5, 5)) == []

    def test_duplicate_rejected(self):
        idx = CenterIndex(1, LINF)
        chain = frozenset({(1, 0)})
        assert idx.add("v", chain)
        assert not idx.add("v", chain)

    def test_same_chain_different_keys(self):
        idx = CenterIndex(1, LINF)
        chain = frozenset({(1, 0)})
        assert idx.add("a", chain)
        assert idx.add("b", chain)

    def test_dirty_tracking(self):
        idx = CenterIndex(1, LINF)
        idx.add("v", frozenset({(0, 0)}))
        dirty = idx.pop_dirty()
        assert dirty
        assert all(key == "v" for key, _ in dirty)
        assert idx.pop_dirty() == []  # drained

    def test_anchor_points_constrain_centers(self):
        idx = CenterIndex(1, LINF)
        chain = frozenset({(1, 0)})
        idx.add("v", chain, anchor_points=((2, 1),))
        # centers must cover both (1,0) and (2,1)
        for _, center in [("v", c) for c in [(1, 0), (1, 1), (2, 0), (2, 1)]]:
            pass
        assert idx.chains_at("v", (0, 0)) == []  # (0,0) misses the anchor
        assert chain in idx.chains_at("v", (1, 1))

    def test_keys(self):
        idx = CenterIndex(1, LINF)
        idx.add("x", frozenset({(0, 0)}))
        assert idx.keys() == ["x"]


#: local-frame points on a small patch, so chains overlap often
_points = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_metrics = st.sampled_from(["linf", "l1", "l2"])


def _settled(chains, k):
    """The commit rules' reading of ``has_packing_of_size``: a budget
    overrun is "not yet"."""
    try:
        return has_packing_of_size(chains, k)
    except PackingBudgetExceeded:
        return False


class TestShapeMemo:
    """``CenterIndex.add`` takes covering centers from a memo keyed by the
    chain's shape and shifts them back; covering is translation-invariant,
    so that equals :func:`covering_centers` of the points themselves."""

    @given(
        st.lists(_points, min_size=1, max_size=4),
        st.lists(_points, max_size=2),
        st.integers(1, 3),
        _metrics,
    )
    def test_memo_equals_covering_centers(self, chain, anchors, r, name):
        metric = get_metric(name)
        pts = sorted(set(chain)) + anchors
        x0, y0 = pts[0]
        shape = tuple((x - x0, y - y0) for x, y in pts)
        shifted = [
            (x0 + dx, y0 + dy)
            for dx, dy in evidence_module._shape_centers(shape, r, metric)
        ]
        assert shifted == covering_centers(pts, r, metric)
        idx = CenterIndex(r, metric)
        idx.add("v", frozenset(chain), anchor_points=anchors)
        registered = [center for _, center in idx.pop_dirty()]
        assert sorted(registered) == sorted(shifted)
        assert all(
            frozenset(chain) in idx.chains_at("v", c) for c in registered
        )


class TestHasPacking:
    """``CenterIndex.has_packing`` is the one commit check: it must equal
    ``has_packing_of_size(chains_at(key, center), k)`` (an overrun read
    as ``False``) whatever hitting sets earlier checks left behind."""

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    st.sampled_from("ab"),
                    st.frozensets(_points, min_size=1, max_size=4),
                    st.lists(_points, max_size=2),
                ),
                st.tuples(
                    st.just("check"),
                    st.integers(1, 5),
                    st.lists(
                        st.tuples(st.sampled_from("ab"), _points), max_size=3
                    ),
                ),
            ),
            max_size=30,
        ),
        st.integers(1, 2),
        _metrics,
    )
    def test_equals_the_exact_predicate(self, ops, r, name):
        idx = CenterIndex(r, get_metric(name))
        for op in ops:
            if op[0] == "add":
                _, key, chain, anchors = op
                idx.add(key, chain, anchor_points=anchors)
                continue
            _, k, extra = op
            # the dirty pairs, as the protocols check them, plus a few
            # arbitrary ones
            for key, center in idx.pop_dirty() + extra:
                expected = _settled(idx.chains_at(key, center), k)
                assert idx.has_packing(key, center, k) == expected

    @staticmethod
    def _two_certificates():
        """An index whose key "v" holds the hitting sets {(0,0)} (from
        center (0,0)) and {(2,0)} (from center (2,0)), r=1."""
        idx = CenterIndex(1, LINF)
        for chain in ({(0, 0)}, {(0, 0), (-1, 0)}, {(2, 0)}, {(2, 0), (3, 0)}):
            idx.add("v", frozenset(chain))
        assert not idx.has_packing("v", (0, 0), 2)
        assert not idx.has_packing("v", (2, 0), 2)
        return idx

    def test_union_of_size_k_does_not_refute(self):
        """At (1,0) the union {(0,0), (2,0)} meets both chains, but it has
        k = 2 nodes, which proves nothing: {(0,0)} and {(2,0)} pack."""
        idx = self._two_certificates()
        assert idx.chains_at("v", (1, 0)) == [
            frozenset({(0, 0)}),
            frozenset({(2, 0)}),
        ]
        assert idx.has_packing("v", (1, 0), 2)

    def test_union_cut_to_the_neighborhood_answers(self, monkeypatch):
        """At (0,1) only (0,0) of the union lies in the neighborhood; that
        one node meets every chain there, so the check is settled without
        a new hitting set."""
        idx = self._two_certificates()

        def refuse(*args, **kwargs):
            raise AssertionError("the cut union should have answered")

        monkeypatch.setattr(evidence_module, "hitting_set", refuse)
        monkeypatch.setattr(evidence_module, "find_set_packing", refuse)
        assert not idx.has_packing("v", (0, 1), 2)

    def test_budget_overrun_reads_false(self, monkeypatch):
        def overrun(*args, **kwargs):
            raise PackingBudgetExceeded("test")

        monkeypatch.setattr(evidence_module, "find_set_packing", overrun)
        idx = CenterIndex(1, LINF)
        idx.add("v", frozenset({(0, 0)}))
        idx.add("v", frozenset({(1, 0)}))
        assert not idx.has_packing("v", (0, 0), 2)

    def test_fewer_chains_than_k(self):
        idx = CenterIndex(1, LINF)
        idx.add("v", frozenset({(0, 0)}))
        assert idx.has_packing("v", (0, 0), 1)
        assert not idx.has_packing("v", (0, 0), 2)
        assert not idx.has_packing("w", (0, 0), 1)


class TestRegistry:
    def test_names(self):
        assert set(protocol_names()) == {
            "crash-flood",
            "cpa",
            "bv-two-hop",
            "bv-indirect",
            "bv-earmarked",
        }
        assert set(PROTOCOLS) == set(protocol_names())

    def test_make_each(self):
        for name in protocol_names():
            proc = make_protocol(name, 1, (0, 0))
            assert proc.t == 1

    def test_make_with_kwargs(self):
        proc = make_protocol("bv-indirect", 1, (0, 0), max_relays=2)
        assert proc.max_relays == 2

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            make_protocol("rumor-mill", 1, (0, 0))

    def test_correct_process_map(self):
        torus = Torus.square(7, 1)
        correct = {(0, 0), (1, 1), (2, 2)}
        procs = correct_process_map(torus, "cpa", 1, (0, 0), 42, correct)
        assert set(procs) == correct
        assert procs[(0, 0)].source_value == 42
        assert procs[(1, 1)].source_value is None
        assert all(p.metric.name == "linf" for p in procs.values())

    def test_correct_process_map_canonicalizes(self):
        torus = Torus.square(7, 1)
        procs = correct_process_map(
            torus, "cpa", 1, (7, 7), 1, {(7, 7)}
        )  # wraps to (0,0)
        assert set(procs) == {(0, 0)}
        assert procs[(0, 0)].source_value == 1
