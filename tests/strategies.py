"""Shared strategies for the cross-engine differential suite.

Two generators over the same point space, one per consumer:

- :func:`diff_points` -- a hypothesis strategy, for shrinkable
  property-based exploration (hypothesis minimizes any counterexample
  to a small, reportable scenario);
- :func:`sample_points` -- a plain seeded sampler, for the bulk
  deterministic sweep (hundreds of points, no shrinking machinery, the
  exact same list on every run and every machine).

A *point* is a plain dict of scenario-builder arguments: protocol,
radius, torus side, fault budget, metric, placement, crash staggering,
and the two safety valves.  Both engines must produce byte-identical
observable output at every point -- that is the fastpath equivalence
contract (see ``docs/ENGINES.md``).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hypothesis import strategies as st

#: protocols with a fastpath kernel (mirrors
#: repro.radio.fastpath.FASTPATH_PROTOCOLS without importing numpy)
DIFF_PROTOCOLS = ("crash-flood", "bv-two-hop", "cpa")

#: metrics both backends implement exactly
DIFF_METRICS = ("linf", "l1", "l2")

#: fixed Byzantine strategies with a compiled fastpath message plan
#: (mirrors repro.radio.engines.FASTPATH_FIXED_STRATEGIES)
DIFF_BYZ_STRATEGIES = ("silent", "liar", "duplicitous", "fabricator")


def make_point(
    *,
    protocol: str,
    r: int,
    side: int,
    t: int,
    seed: int,
    metric: str = "linf",
    placement: str = "random",
    max_rounds: int = 48,
    max_messages: Optional[int] = None,
    staggered_max_round: Optional[int] = None,
) -> Dict[str, Any]:
    """One differential point, validated for torus feasibility."""
    assert side >= 2 * r + 1, "torus side must fit the radius"
    return {
        "protocol": protocol,
        "r": r,
        "side": side,
        "t": t,
        "seed": seed,
        "metric": metric,
        "placement": placement,
        "max_rounds": max_rounds,
        "max_messages": max_messages,
        "staggered_max_round": staggered_max_round,
    }


@st.composite
def diff_points(
    draw, protocols: Sequence[str] = DIFF_PROTOCOLS
) -> Dict[str, Any]:
    """Hypothesis strategy over differential points.

    Sides span the degenerate regimes on purpose: the smallest legal
    torus (side == 2r+1, where toroidal localization is maximally
    distorted), coloring-schedule sides (divisible by 2r+1), and
    sequential-schedule sides (not divisible).
    """
    protocol = draw(st.sampled_from(tuple(protocols)))
    r = draw(st.integers(min_value=1, max_value=2))
    side = draw(st.integers(min_value=2 * r + 1, max_value=12))
    t = draw(st.integers(min_value=0, max_value=3))
    metric = draw(st.sampled_from(DIFF_METRICS))
    seed = draw(st.integers(min_value=0, max_value=2**16 - 1))
    max_rounds = draw(st.sampled_from((1, 2, 3, 48)))
    max_messages = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=120))
    )
    staggered = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=4))
    )
    placement = draw(st.sampled_from(("random", "strip")))
    if side < 2 * (3 * r + 1):  # two-strip construction infeasible
        placement = "random"
    return make_point(
        protocol=protocol,
        r=r,
        side=side,
        t=t,
        seed=seed,
        metric=metric,
        placement=placement,
        max_rounds=max_rounds,
        max_messages=max_messages,
        staggered_max_round=staggered,
    )


def make_byz_point(
    *,
    strategy: str,
    r: int,
    side: int,
    t: int,
    seed: int,
    metric: str = "linf",
    placement: str = "random",
    max_rounds: int = 48,
    max_messages: Optional[int] = None,
    faults: Optional[List[Tuple[int, int]]] = None,
    enforce_budget: bool = True,
) -> Dict[str, Any]:
    """One Byzantine differential point (CPA, fixed-strategy faults).

    ``faults`` is the fault set of an ``explicit`` placement; with
    ``enforce_budget=False`` a strip or explicit placement is not
    trimmed to ``t``, so correct nodes can commit a wrong value.
    """
    assert side >= 2 * r + 1, "torus side must fit the radius"
    assert strategy in DIFF_BYZ_STRATEGIES
    return {
        "strategy": strategy,
        "r": r,
        "side": side,
        "t": t,
        "seed": seed,
        "metric": metric,
        "placement": placement,
        "max_rounds": max_rounds,
        "max_messages": max_messages,
        "faults": faults,
        "enforce_budget": enforce_budget,
    }


@st.composite
def byz_diff_points(draw) -> Dict[str, Any]:
    """Hypothesis strategy over Byzantine (CPA) differential points.

    Same degenerate-regime coverage as :func:`diff_points` -- minimal
    tori, coloring vs sequential schedules, tripping budgets -- with the
    fault axis swapped from crashes to the four fixed Byzantine value
    strategies the fastpath compiles to message plans.
    """
    strategy = draw(st.sampled_from(DIFF_BYZ_STRATEGIES))
    r = draw(st.integers(min_value=1, max_value=2))
    side = draw(st.integers(min_value=2 * r + 1, max_value=12))
    t = draw(st.integers(min_value=0, max_value=4))
    metric = draw(st.sampled_from(DIFF_METRICS))
    seed = draw(st.integers(min_value=0, max_value=2**16 - 1))
    max_rounds = draw(st.sampled_from((1, 2, 3, 48)))
    max_messages = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=120))
    )
    placement = draw(st.sampled_from(("random", "strip")))
    if side < 2 * (3 * r + 1):  # two-strip construction infeasible
        placement = "random"
    return make_byz_point(
        strategy=strategy,
        r=r,
        side=side,
        t=t,
        seed=seed,
        metric=metric,
        placement=placement,
        max_rounds=max_rounds,
        max_messages=max_messages,
    )


def sample_byz_points(n: int, *, seed: int = 0) -> List[Dict[str, Any]]:
    """``n`` deterministic Byzantine differential points.

    Points alternate over :data:`DIFF_BYZ_STRATEGIES` so every fixed
    strategy gets an even share regardless of ``n``.
    """
    rng = random.Random(seed)
    points: List[Dict[str, Any]] = []
    for i in range(n):
        strategy = DIFF_BYZ_STRATEGIES[i % len(DIFF_BYZ_STRATEGIES)]
        r = rng.choice((1, 1, 2))  # weight small radii: denser coverage
        side = rng.randint(2 * r + 1, 12)
        placement = rng.choice(("random", "random", "strip"))
        if side < 2 * (3 * r + 1):  # two-strip construction infeasible
            placement = "random"
        points.append(
            make_byz_point(
                strategy=strategy,
                r=r,
                side=side,
                t=rng.randint(0, 4),
                seed=rng.randrange(2**16),
                metric=rng.choice(DIFF_METRICS),
                placement=placement,
                max_rounds=rng.choice((1, 2, 3, 48, 48, 48)),
                max_messages=rng.choice(
                    (None, None, None, 0, 1, rng.randint(2, 120))
                ),
            )
        )
    return points


def sample_overbudget_points(n: int, *, seed: int = 0) -> List[Dict[str, Any]]:
    """``n`` deterministic CPA points whose faults exceed the budget.

    Untrimmed strips and dense explicit placements (a fifth to nearly
    half of the nodes) put more than ``t`` faulty nodes in some balls,
    so liars, duplicitous nodes and fabricators (in turn) make correct
    nodes commit a wrong value.  Budgets of 0, 1 and a value that
    usually trips mid-run, and round caps of 1, 2, 3 and 48, cut those
    runs.
    """
    rng = random.Random(seed)
    points: List[Dict[str, Any]] = []
    for i in range(n):
        strategy = ("liar", "duplicitous", "fabricator")[i % 3]
        r = rng.choice((1, 1, 2))
        side = rng.randint(2 * r + 1, 12)
        faults = None
        if side >= 2 * (3 * r + 1) and rng.random() < 0.3:
            placement = "strip"
        else:
            placement = "explicit"
            nodes = [
                (x, y) for x in range(side) for y in range(side)
                if (x, y) != (0, 0)  # the source stays correct
            ]
            dense = round(len(nodes) * rng.uniform(0.2, 0.45))
            faults = sorted(rng.sample(nodes, dense))
        points.append(
            make_byz_point(
                strategy=strategy,
                r=r,
                side=side,
                t=rng.randint(0, 3),
                seed=rng.randrange(2**16),
                metric=rng.choice(DIFF_METRICS),
                placement=placement,
                faults=faults,
                enforce_budget=False,
                max_rounds=rng.choice((1, 2, 3, 48, 48, 48)),
                max_messages=rng.choice(
                    (None, None, 0, 1, rng.randint(2, 60))
                ),
            )
        )
    return points


#: run-table factor pool: spec fields whose levels always produce
#: distinct scenario keys (so generated tables are alias-free by
#: construction -- aliasing factors like ``strategy`` under
#: ``kind="crash"`` are a *rejected* table, tested separately)
RUNTABLE_FACTOR_POOL = (
    ("metric", ("linf", "l1", "l2")),
    ("topology", ("torus", "bounded")),
    ("t", (0, 1, 2)),
    ("r", (1, 2)),
)


@st.composite
def run_tables(draw):
    """Hypothesis strategy over valid declarative run tables.

    Factors range over the orthogonal scenario axes (metric, topology)
    plus the numeric knobs; the base block fixes a crash-flood
    scenario and fills in whichever of ``r``/``t`` is not swept (they
    have no spec default).  Every generated table is expandable: levels
    are unique per factor and the pool only contains always-keyed
    fields, so no two cells can normalize to the same scenario key.
    """
    from repro.exec import RunTable

    indices = draw(
        st.lists(
            st.integers(0, len(RUNTABLE_FACTOR_POOL) - 1),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    factors = []
    for idx in indices:
        name, pool = RUNTABLE_FACTOR_POOL[idx]
        levels = draw(
            st.lists(
                st.sampled_from(pool),
                min_size=1,
                max_size=len(pool),
                unique=True,
            )
        )
        factors.append((name, tuple(levels)))
    swept = {name for name, _ in factors}
    base = [
        ("kind", "crash"),
        ("protocol", "crash-flood"),
        ("placement", "random"),
    ]
    if "r" not in swept:
        base.append(("r", draw(st.integers(1, 2))))
    if "t" not in swept:
        base.append(("t", draw(st.integers(0, 2))))
    return RunTable(
        factors=tuple(factors),
        base=tuple(base),
        repetitions=draw(st.integers(1, 3)),
        name=draw(st.sampled_from(("tbl", "axes", "grid"))),
    )


def sample_points(
    n: int,
    *,
    seed: int = 0,
    protocols: Sequence[str] = DIFF_PROTOCOLS,
) -> List[Dict[str, Any]]:
    """``n`` deterministic differential points (same list every run).

    Points alternate over ``protocols`` so an even split is guaranteed
    regardless of ``n``; the remaining knobs are drawn from a seeded
    stream over the same space :func:`diff_points` explores.
    """
    rng = random.Random(seed)
    points: List[Dict[str, Any]] = []
    for i in range(n):
        protocol = protocols[i % len(protocols)]
        r = rng.choice((1, 1, 2))  # weight small radii: denser coverage
        side = rng.randint(2 * r + 1, 12)
        placement = rng.choice(("random", "random", "strip"))
        if side < 2 * (3 * r + 1):  # two-strip construction infeasible
            placement = "random"
        point = make_point(
            protocol=protocol,
            r=r,
            side=side,
            t=rng.randint(0, 3),
            seed=rng.randrange(2**16),
            metric=rng.choice(DIFF_METRICS),
            placement=placement,
            max_rounds=rng.choice((1, 2, 3, 48, 48, 48)),
            max_messages=rng.choice(
                (None, None, None, 0, 1, rng.randint(2, 120))
            ),
            staggered_max_round=rng.choice((None, None, 1, 2, 4)),
        )
        points.append(point)
    return points
