"""Tests for repro.faults.placement (the locally bounded adversary)."""

import hashlib
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidPlacementError
from repro.experiments.scenarios import crash_broadcast_scenario
from repro.faults.constructions import (
    torus_byzantine_strip,
    torus_crash_partition,
)
from repro.faults.placement import (
    fault_counts_per_nbd,
    greedy_random_placement,
    is_valid_placement,
    max_faults_per_nbd,
    trim_to_budget,
    validate_placement,
)
from repro.faults.random_faults import random_bounded_placement
from repro.geometry.metrics import get_metric
from repro.grid.bounded import BoundedGrid
from repro.grid.factory import make_topology
from repro.grid.torus import Torus
from tests.test_geometry_balls import _oracle_closed_ball

coords = st.tuples(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
)


class TestCounting:
    def test_single_fault(self):
        counts = fault_counts_per_nbd([(0, 0)], 2)
        assert counts[(0, 0)] == 1
        assert counts[(2, 2)] == 1
        assert (3, 0) not in counts
        assert len(counts) == 25  # the closed ball of centers

    def test_cluster(self):
        faults = [(0, 0), (1, 0), (0, 1)]
        worst, center = max_faults_per_nbd(faults, 1)
        assert worst == 3
        assert center in {(0, 0), (1, 1), (0, 1), (1, 0)}

    def test_counts_closed_ball_semantics(self):
        """A faulty node counts in its own neighborhood (paper: a faulty
        node may have up to t-1 faulty neighbors)."""
        counts = fault_counts_per_nbd([(5, 5)], 1)
        assert counts[(5, 5)] == 1

    def test_duplicates_ignored(self):
        a = fault_counts_per_nbd([(0, 0), (0, 0)], 1)
        b = fault_counts_per_nbd([(0, 0)], 1)
        assert a == b

    def test_empty(self):
        assert max_faults_per_nbd([], 2) == (0, None)
        assert is_valid_placement([], 0, 2)

    def test_torus_wrap_counting(self):
        t = Torus.square(7, 1)
        # (0,0) and (6,6) are wrapped neighbors: one nbd sees both
        worst, _ = max_faults_per_nbd([(0, 0), (6, 6)], 1, topology=t)
        assert worst == 2
        # without the torus they are far apart
        worst_inf, _ = max_faults_per_nbd([(0, 0), (6, 6)], 1)
        assert worst_inf == 1

    @given(st.lists(coords, min_size=0, max_size=12), st.integers(1, 3))
    def test_max_equals_bruteforce(self, faults, r):
        worst, _ = max_faults_per_nbd(faults, r)
        if not faults:
            assert worst == 0
            return
        xs = [f[0] for f in faults]
        ys = [f[1] for f in faults]
        brute = 0
        for cx in range(min(xs) - r, max(xs) + r + 1):
            for cy in range(min(ys) - r, max(ys) + r + 1):
                n = sum(
                    1
                    for f in set(faults)
                    if abs(f[0] - cx) <= r and abs(f[1] - cy) <= r
                )
                brute = max(brute, n)
        assert worst == brute


class TestValidation:
    def test_validate_passes(self):
        validate_placement([(0, 0), (5, 5)], 1, 1)

    def test_validate_raises_with_witness(self):
        with pytest.raises(InvalidPlacementError, match="budget is t=1"):
            validate_placement([(0, 0), (1, 1)], 1, 2)

    @given(st.lists(coords, max_size=10), st.integers(0, 5), st.integers(1, 3))
    def test_is_valid_consistent_with_validate(self, faults, t, r):
        ok = is_valid_placement(faults, t, r)
        try:
            validate_placement(faults, t, r)
            assert ok
        except InvalidPlacementError:
            assert not ok


class TestTrim:
    @given(st.lists(coords, max_size=16), st.integers(0, 4), st.integers(1, 2))
    def test_trim_always_valid(self, faults, t, r):
        trimmed = trim_to_budget(faults, t, r)
        assert is_valid_placement(trimmed, t, r)
        assert trimmed <= {tuple(f) for f in faults}

    def test_trim_noop_when_valid(self):
        faults = {(0, 0), (10, 10)}
        assert trim_to_budget(faults, 1, 2) == faults

    def test_trim_removes_minimum_for_simple_case(self):
        # three faults in one nbd with budget 2: exactly one removed
        faults = {(0, 0), (1, 0), (0, 1)}
        trimmed = trim_to_budget(faults, 2, 1)
        assert len(trimmed) == 2

    def test_trim_with_rng(self, rng):
        faults = {(0, 0), (1, 0), (0, 1), (1, 1)}
        trimmed = trim_to_budget(faults, 1, 1, rng=rng)
        assert is_valid_placement(trimmed, 1, 1)

    def test_trim_on_torus(self):
        t = Torus.square(7, 1)
        faults = {(0, 0), (6, 6), (6, 0), (0, 6)}  # all mutually wrapped-close
        trimmed = trim_to_budget(faults, 1, 1, topology=t)
        assert is_valid_placement(trimmed, 1, 1, topology=t)


class TestGreedyRandom:
    @given(st.integers(0, 3), st.integers(1, 2), st.integers(0, 5))
    def test_result_valid(self, t, r, seed):
        candidates = [(x, y) for x in range(-5, 6) for y in range(-5, 6)]
        placed = greedy_random_placement(
            candidates, t, r, rng=random.Random(seed)
        )
        assert is_valid_placement(placed, t, r)

    def test_target_count(self):
        candidates = [(x, y) for x in range(-8, 9) for y in range(-8, 9)]
        placed = greedy_random_placement(
            candidates, 3, 1, rng=random.Random(0), target_count=4
        )
        assert len(placed) == 4

    def test_zero_budget_places_nothing(self):
        placed = greedy_random_placement([(0, 0), (1, 1)], 0, 1)
        assert placed == set()

    def test_target_count_zero_places_nothing(self):
        """Both loops check the count before accepting a node, and the
        shuffle still runs, so the generator ends as after a t=0 call."""
        torus = Torus.square(11, 1)
        box = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
        for topology, candidates in (
            (torus, list(torus.nodes())),
            (None, box),
        ):
            rng, rng_t0 = random.Random(0), random.Random(0)
            placed = greedy_random_placement(
                candidates, 3, 1, topology=topology, rng=rng, target_count=0
            )
            assert placed == set()
            greedy_random_placement(
                candidates, 0, 1, topology=topology, rng=rng_t0
            )
            assert rng.getstate() == rng_t0.getstate()
        rng, rng_t0 = random.Random(0), random.Random(0)
        assert random_bounded_placement(torus, 3, rng, target_count=0) == set()
        random_bounded_placement(torus, 0, rng_t0)
        assert rng.getstate() == rng_t0.getstate()

    def test_negative_target_count_rejected(self):
        torus = Torus.square(11, 1)
        with pytest.raises(ValueError, match="target_count"):
            random_bounded_placement(
                torus, 3, random.Random(0), target_count=-2
            )
        for topology in (torus, None):
            with pytest.raises(ValueError, match="target_count"):
                greedy_random_placement(
                    [(0, 0), (5, 5)], 3, 1, topology=topology, target_count=-1
                )

    def test_maximality(self):
        """No remaining candidate could be added without violation."""
        candidates = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        placed = greedy_random_placement(
            candidates, 2, 1, rng=random.Random(1)
        )
        for cand in candidates:
            if cand in placed:
                continue
            assert not is_valid_placement(placed | {cand}, 2, 1)

    def test_torus_candidates(self):
        t = Torus.square(7, 1)
        placed = greedy_random_placement(
            list(t.nodes()), 2, 1, topology=t, rng=random.Random(2)
        )
        assert is_valid_placement(placed, 2, 1, topology=t)


# -- per-point oracle ------------------------------------------------------
#
# The placement functions count over a torus through its shared ball
# stencil (flat indices into a flat list).  The oracles below are the
# loops they replaced, over the per-point ball enumeration
# (``_oracle_closed_ball``) with counts in a coordinate dict.  The
# stencil path must agree with them exactly -- same sets, same RNG
# draws, same set iteration order.


def _oracle_canonical(f, topology):
    return topology.canonical(f) if topology is not None else (f[0], f[1])


def _oracle_counts(faulty, r, metric="linf", topology=None):
    counts, seen = {}, set()
    for f in sorted(faulty):
        cf = _oracle_canonical(f, topology)
        if cf in seen:
            continue
        seen.add(cf)
        for c in _oracle_closed_ball(metric, cf, r, topology):
            counts[c] = counts.get(c, 0) + 1
    return counts


def _oracle_trim(faulty, t, r, metric="linf", topology=None, rng=None):
    """Returns ``(trimmed, tie_breaks)``: the count of rng draws made
    among two or more equally ranked faults."""
    current = {_oracle_canonical(f, topology) for f in faulty}
    tie_breaks = 0
    while True:
        counts = _oracle_counts(current, r, metric, topology)
        violating = {c for c, n in counts.items() if n > t}
        if not violating:
            return current, tie_breaks

        def score(f):
            ball = _oracle_closed_ball(metric, f, r, topology)
            return sum(1 for c in ball if c in violating)

        ranked = sorted(current, key=lambda f: (-score(f), f))
        if rng is not None:
            top = score(ranked[0])
            ties = [f for f in ranked if score(f) == top]
            tie_breaks += len(ties) > 1
            current.discard(rng.choice(ties))
        else:
            current.discard(ranked[0])


def _oracle_greedy(candidates, t, r, metric, topology, rng, target_count=None):
    order = list(candidates)
    rng.shuffle(order)
    counts, chosen = {}, set()
    for cand in order:
        node = _oracle_canonical(cand, topology)
        if node in chosen:
            continue
        ball = _oracle_closed_ball(metric, node, r, topology)
        if any(counts.get(c, 0) + 1 > t for c in ball):
            continue
        chosen.add(node)
        for c in ball:
            counts[c] = counts.get(c, 0) + 1
        if target_count is not None and len(chosen) >= target_count:
            break
    return chosen


#: torus shapes per radius: square, non-square, and a side of exactly 2r+1
def _tori(r, metric):
    k = 2 * r + 1
    return [
        Torus.square(4 * r + 3, r, metric),
        Torus(k + 3, 4 * r + 5, r, metric),
        Torus(k, k + 2, r, metric),
    ]


METRICS = ["linf", "l1", "l2"]


class TestStencilParity:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("target_count", [None, 5])
    def test_greedy_matches_oracle(self, metric, r, target_count):
        for torus in _tori(r, metric):
            nodes = sorted(torus.nodes())
            for t in (0, 1, 3, 6):
                for seed in range(3):
                    rng_got = random.Random(seed)
                    rng_want = random.Random(seed)
                    got = greedy_random_placement(
                        nodes, t, r, metric, torus, rng_got,
                        target_count=target_count,
                    )
                    want = _oracle_greedy(
                        nodes, t, r, metric, torus, rng_want,
                        target_count=target_count,
                    )
                    assert got == want
                    # same insertion sequence, hence same set order
                    assert list(got) == list(want)
                    assert rng_got.getstate() == rng_want.getstate()

    @pytest.mark.parametrize("metric", METRICS)
    def test_greedy_duplicate_and_wrapped_candidates(self, metric):
        torus = Torus(7, 9, 1, metric)
        nodes = sorted(torus.nodes())
        # every node three times: as itself, repeated, and one lap out
        candidates = nodes + nodes[::2] + [(x - 7, y + 9) for x, y in nodes]
        for seed in range(5):
            rng_got, rng_want = random.Random(seed), random.Random(seed)
            got = greedy_random_placement(
                candidates, 2, 1, metric, torus, rng_got
            )
            want = _oracle_greedy(candidates, 2, 1, metric, torus, rng_want)
            assert list(got) == list(want)
            assert rng_got.getstate() == rng_want.getstate()

    def test_greedy_off_torus_matches_oracle(self):
        grid = BoundedGrid(9, 7, 2)
        candidates = [(x, y) for x in range(-2, 11) for y in range(-1, 8)]
        for topology in (grid, None):
            got = greedy_random_placement(
                candidates, 3, 2, "linf", topology, random.Random(4)
            )
            want = _oracle_greedy(
                candidates, 3, 2, "linf", topology, random.Random(4)
            )
            assert list(got) == list(want)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_fault_counts_match_oracle(self, metric, r):
        for torus in _tori(r, metric):
            faults = random_bounded_placement(
                torus, 2 * r, rng=random.Random(r)
            )
            # non-canonical aliases of the same faults count once
            aliased = list(faults) + [
                (x + torus.width, y - torus.height) for x, y in faults
            ]
            want = _oracle_counts(faults, r, metric, torus)
            assert fault_counts_per_nbd(aliased, r, metric, torus) == want
        grid = BoundedGrid(8, 8, r, metric)
        faults = {(0, 0), (7, 7), (3, 4), (4, 4), (0, 5)}
        got = fault_counts_per_nbd(faults, r, metric, grid)
        assert list(got.items()) == list(
            _oracle_counts(faults, r, metric, grid).items()
        )

    @pytest.mark.parametrize(
        "construction", [torus_crash_partition, torus_byzantine_strip]
    )
    @pytest.mark.parametrize("r", [1, 2])
    def test_trim_matches_oracle_on_strip(self, construction, r):
        torus = Torus.square(6 * r + 5, r)
        faults = construction(torus)
        t = r  # well under the strip's density: the trim really trims
        tie_breaks = 0
        for seed in range(10):
            rng_got, rng_want = random.Random(seed), random.Random(seed)
            got = trim_to_budget(faults, t, r, topology=torus, rng=rng_got)
            want, ties = _oracle_trim(
                faults, t, r, topology=torus, rng=rng_want
            )
            tie_breaks += ties
            assert len(got) < len(faults)
            assert list(got) == list(want)
            # same number of draws: the generators stay in lockstep
            assert rng_got.random() == rng_want.random()
        assert tie_breaks > 0  # the rng really broke ties

    def test_trim_without_rng_matches_oracle(self):
        torus = Torus(9, 13, 1, "l1")
        faults = torus_crash_partition(torus)
        got = trim_to_budget(faults, 1, 1, "l1", torus)
        want, _ = _oracle_trim(faults, 1, 1, "l1", torus)
        assert list(got) == list(want)


@st.composite
def _torus_placements(draw):
    """A torus (square or not, sides 2r+1 .. 4r+5), a budget from 0 to
    the closed-ball size, a protected node and a seed."""
    metric = draw(st.sampled_from(METRICS))
    r = draw(st.integers(1, 3))
    width = draw(st.integers(2 * r + 1, 4 * r + 5))
    height = draw(st.integers(2 * r + 1, 4 * r + 5))
    t = draw(st.integers(0, len(get_metric(metric).offsets(r)) + 1))
    protect = (
        draw(st.integers(0, width - 1)),
        draw(st.integers(0, height - 1)),
    )
    seed = draw(st.integers(0, 99))
    return Torus(width, height, r, metric), t, protect, seed


class TestRandomPlacementProperties:
    @given(_torus_placements())
    def test_valid_maximal_and_untouched_by_trim(self, case):
        torus, t, protect, seed = case
        r, metric = torus.r, torus.metric
        placed = random_bounded_placement(
            torus, t, random.Random(seed), protect=protect
        )
        assert protect not in placed
        assert is_valid_placement(placed, t, r, metric, torus)
        counts = fault_counts_per_nbd(placed, r, metric, torus)
        for node in torus.nodes():
            if node in placed or node == protect:
                continue
            ball = _oracle_closed_ball(metric, node, r, torus)
            assert any(counts.get(c, 0) >= t for c in ball), node
        # valid by construction: the trim the builders skip is a no-op
        # that draws nothing
        rng = random.Random(seed)
        state = rng.getstate()
        assert trim_to_budget(placed, t, r, metric, torus, rng=rng) == placed
        assert rng.getstate() == state

    @pytest.mark.parametrize("kind", ["bounded"])
    def test_untouched_by_trim_off_torus(self, kind):
        """Truncated balls keep the count-and-scan loop, which never lets
        a count pass ``t`` either, so the builders skip the trim there
        too."""
        for metric in METRICS:
            topology = make_topology(kind, 13, 2, metric)
            for t in (1, 3, 6):
                placed = random_bounded_placement(
                    topology, t, random.Random(t)
                )
                rng = random.Random(t)
                state = rng.getstate()
                trimmed = trim_to_budget(
                    placed, t, 2, metric, topology, rng=rng
                )
                assert trimmed == placed
                assert rng.getstate() == state


class TestGoldenPlacements:
    """``sha256(json(sorted(random_bounded_placement(...))))`` pinned as
    literals, so a change in RNG draw order or candidate order fails
    here by name (row digests elsewhere would only say "different")."""

    GOLDEN = {
        (13, 3, 0): "78036687636a6bf008be09a295e9d4a4dafaf5b7277d8deb90f7d047777d92aa",
        (13, 3, 1): "28cfadccd3798d773350dfaa82f172788e74b93c7af8bf7419f27ec20863d891",
        (13, 3, 2): "045881576f5b705bd41f3e07786a90dc419172924526ecaa857290d06b1806b2",
        (13, 7, 0): "20ed38af9e32355a9ec07f6204235eebc1140131d1c338ded2c0bd09752080c3",
        (13, 7, 1): "57aab2cf61524d95cf64224529059bc80f1bc90a7c71fb705b1724c6a84eb27c",
        (13, 7, 2): "80229774b705ee00ec7af1e2689339c252d91ad6f8f13d7849f9d4fa5e52aea3",
        (13, 11, 0): "c9ddd9695abedc3889b38597d03e5175369b4997ce35929f55fb64d0a66c192d",
        (13, 11, 1): "42157c9fe2cfbe493bbd54201e0b810988c2976813ef169bb7c15f3257bb7171",
        (13, 11, 2): "9ed76ba3b96871c7bdc94e7655b80177202bc2e4159cf2e905c52048d0753fb5",
        (100, 3, 0): "b20c9777e2a2f2f21ddf6bf9bdc37c8a41a6fc7db7b44ae749ce123c8a6c069d",
        (100, 7, 0): "929f8dbd760a87362eae9e0e3eb88f0b9f390bd36eb3945eb8443a78e9ef71cf",
        (100, 11, 0): "12c77ff86f56105c383a12ced365dabb2ca6229742574c749f22f3af9d11499e",
    }

    #: ``(metric, r, side, t, seed)``: other metrics and radii
    GOLDEN_SHAPES = {
        ("l1", 1, 7, 2, 0): "bcae89eaf3474400369f3623cb394bdccc55a8706a6341e75b18fa896bb162ec",
        ("l1", 2, 13, 3, 0): "b12bdff926187818491830d05dda23263c4da08b9e47763f2bf296526486e5de",
        ("l1", 2, 13, 6, 1): "d9020407daa891e5029d579c05ea14003f3bdf1fa8dfcc35787fb57b79e7da82",
        ("l1", 3, 19, 5, 0): "90a2602fd9a3e1ae0d3d268f65c39103f5cb070b9b5de81ecef7e1ecea21f1f0",
        ("l2", 1, 7, 3, 0): "eb120e95487a6b4867588f03346fc1dc4880431f7572c21806c490fe50d77b79",
        ("l2", 2, 13, 7, 1): "51a324d4e82e1d43f39183e825f181df7ea47716338e9060763104d3f041ef7a",
        ("l2", 3, 19, 9, 0): "a104a4426b9f8a5b58e9a089c157f00cbc397c38d43324308f2a32d7c27925c5",
        ("l2", 3, 23, 13, 2): "8f57e83bb5884ce20461162807b161c408fed63c57163541e5f5cc105ef53077",
        ("linf", 1, 7, 2, 0): "127de8cd8d9c090e2834b149616d0926d2286775d46ce84ac24ac10dfb66530e",
        ("linf", 3, 19, 5, 0): "a0c7e3b79e7b3ec9e2cf2fb2a9dc05ac7f37f27213e394f1f91616f3b4a99520",
    }

    #: seed -> ``sha256(json(sorted(crash_round.items())))`` of
    #: ``crash_broadcast_scenario(r=2, t=3, placement="random",
    #: staggered_max_round=4)``: the rounds are drawn from the same
    #: generator right after the placement
    GOLDEN_CRASH_ROUNDS = {
        0: "dc74d152574f434d4314e93a949360fe467f63bb75ad7cb9ecb791b7af135e0c",
        1: "048ed1a17d0b8bcb68c5e91200bf4836ad89a45ccabf5e0c9758f69c42f64d05",
        2: "85c983bdee1fb9d679f2061ddf7b50c586477c65acb02392db41c5ea34586756",
    }

    @staticmethod
    def _digest(value) -> str:
        return hashlib.sha256(json.dumps(value).encode()).hexdigest()

    @pytest.mark.parametrize("side,t,seed", sorted(GOLDEN))
    def test_placement_digest(self, side, t, seed):
        faults = random_bounded_placement(
            Torus.square(side, 2), t, rng=random.Random(seed)
        )
        assert self._digest(sorted(faults)) == self.GOLDEN[(side, t, seed)]

    @pytest.mark.parametrize("metric,r,side,t,seed", sorted(GOLDEN_SHAPES))
    def test_shape_digest(self, metric, r, side, t, seed):
        faults = random_bounded_placement(
            Torus.square(side, r, metric), t, rng=random.Random(seed)
        )
        want = self.GOLDEN_SHAPES[(metric, r, side, t, seed)]
        assert self._digest(sorted(faults)) == want

    @pytest.mark.parametrize("seed", sorted(GOLDEN_CRASH_ROUNDS))
    def test_staggered_crash_rounds(self, seed):
        sc = crash_broadcast_scenario(
            r=2, t=3, placement="random", staggered_max_round=4, seed=seed
        )
        rounds = sorted(sc.crash_round.items())
        assert self._digest(rounds) == self.GOLDEN_CRASH_ROUNDS[seed]
