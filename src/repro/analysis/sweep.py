"""Threshold-sharpness sweeps.

The theorems give exact worst-case thresholds; these helpers measure how
sharp the transition is *empirically*: for each fault budget ``t``,
run many randomized adversarial placements and record the success
fraction.  Below the threshold the fraction must be 1.0 (the theorems are
worst-case guarantees); above it, random placements may or may not defeat
the protocol -- the curve exposes how special the impossibility
constructions are.

A sharpness sweep is a run table (:func:`sharpness_table`): random
placements, the budget ``t`` as its one factor, the trial count as its
repetitions.  It executes through :func:`repro.exec.execute_runtable`:
pass an ``executor`` (e.g. ``SweepExecutor(workers=4, cache=...)``) to
parallelize and memoize; the default is the serial, uncached executor.
Per-trial seeds are derived from ``(seed, scenario_key, trial_index)``
(see :func:`repro.exec.derive_seed`), so the resulting
:class:`SweepPoint` rows are identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.exec import (
    ExecStats,
    RunTable,
    SweepExecutor,
    execute_runtable,
    summarize_rows,
)


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated trials at one fault budget."""

    t: int
    trials: int
    success_fraction: float
    safety_fraction: float
    mean_undecided: float

    def row(self) -> Dict[str, float]:
        """Dict form for tabular reports."""
        return {
            "t": self.t,
            "trials": self.trials,
            "success_fraction": self.success_fraction,
            "safety_fraction": self.safety_fraction,
            "mean_undecided": self.mean_undecided,
        }


@dataclass(frozen=True)
class SweepRun:
    """A sweep's aggregated points plus its execution statistics."""

    points: List[SweepPoint]
    stats: ExecStats


def sharpness_table(
    kind: str,
    r: int,
    budgets: Sequence[int],
    trials: int = 5,
    protocol: Optional[str] = None,
    strategy: str = "fabricator",
    engine: str = "reference",
    metric: str = "linf",
    topology: str = "torus",
) -> RunTable:
    """The run table of one sharpness sweep: one cell per budget ``t``.

    Every cell places faults at random and runs ``trials`` trials.
    ``protocol`` defaults to ``bv-two-hop`` for Byzantine sweeps and
    ``crash-flood`` for crash sweeps; ``strategy`` only matters for
    Byzantine ones.  ``engine`` picks the simulation backend; it does
    not change seeds, rows, or cache keys (the backends are
    observationally identical).  ``metric`` and ``topology`` select the
    orthogonal scenario-axis levels (both paper defaults) and *are*
    scenario identity -- different levels sweep different scenario
    keys.  Budgets must be distinct.
    """
    base = {
        "kind": kind,
        "r": r,
        "protocol": protocol
        or ("bv-two-hop" if kind == "byzantine" else "crash-flood"),
        "strategy": strategy,
        "placement": "random",
        "metric": metric,
        "engine": engine,
        "topology": topology,
    }
    return RunTable(
        factors=(("t", tuple(budgets)),),
        base=tuple(base.items()),
        repetitions=trials,
        name=f"{kind}-sharpness",
    )


def sharpness_run(
    table: RunTable, seed: int = 0, executor: Optional[SweepExecutor] = None
) -> SweepRun:
    """Execute a :func:`sharpness_table`; one :class:`SweepPoint` per cell.

    Crash faults cannot lie, so a crash sweep's ``safety_fraction`` is
    1.0 by construction.
    """
    result = execute_runtable(table, executor=executor, root_seed=seed)
    points = []
    for unit, rows in zip(result.units, result.rows):
        summary = summarize_rows(rows)
        points.append(
            SweepPoint(
                t=unit.spec.t,
                trials=summary["trials"],
                success_fraction=summary["achieved_fraction"],
                safety_fraction=1.0
                if unit.spec.kind == "crash"
                else summary["safe_fraction"],
                mean_undecided=summary["mean_undecided"],
            )
        )
    return SweepRun(points=points, stats=result.stats)


def byzantine_sharpness_run(
    r: int,
    budgets: Sequence[int],
    protocol: str = "bv-two-hop",
    strategy: str = "fabricator",
    trials: int = 5,
    seed: int = 0,
    executor: Optional[SweepExecutor] = None,
    engine: str = "reference",
    metric: str = "linf",
    topology: str = "torus",
) -> SweepRun:
    """Success fraction vs fault budget under random valid placements.

    For each ``t`` the protocol is *told* ``t`` and the adversary places a
    random maximal ``t``-bounded fault set; both sides scale together,
    exactly as in the paper's model.  Returns the aggregated points plus
    the executor's wall-clock / cache statistics.  See
    :func:`sharpness_table` for the parameters.
    """
    table = sharpness_table(
        "byzantine", r, budgets, trials=trials, protocol=protocol,
        strategy=strategy, engine=engine, metric=metric,
        topology=topology,
    )
    return sharpness_run(table, seed=seed, executor=executor)


def byzantine_sharpness_sweep(
    r: int, budgets: Sequence[int], **kwargs: Any
) -> List[SweepPoint]:
    """:func:`byzantine_sharpness_run` returning only the points."""
    return byzantine_sharpness_run(r, budgets, **kwargs).points


def crash_sharpness_run(
    r: int,
    budgets: Sequence[int],
    trials: int = 5,
    seed: int = 0,
    executor: Optional[SweepExecutor] = None,
    engine: str = "reference",
    metric: str = "linf",
    topology: str = "torus",
) -> SweepRun:
    """Crash-stop analogue of :func:`byzantine_sharpness_run`."""
    table = sharpness_table(
        "crash", r, budgets, trials=trials, engine=engine, metric=metric,
        topology=topology,
    )
    return sharpness_run(table, seed=seed, executor=executor)


def crash_sharpness_sweep(
    r: int, budgets: Sequence[int], **kwargs: Any
) -> List[SweepPoint]:
    """:func:`crash_sharpness_run` returning only the points."""
    return crash_sharpness_run(r, budgets, **kwargs).points
