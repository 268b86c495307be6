"""The parallel, cached sweep executor.

:class:`SweepExecutor` turns a list of :class:`~repro.exec.specs.
ScenarioSpec` into per-trial result rows.  One :meth:`SweepExecutor.run`
call walks the whole pipeline:

1. **plan** -- chunk every spec's trial range into content-addressed
   work units (:func:`repro.exec.campaign.plan_units`);
2. **probe** -- look each unit up in the :class:`~repro.exec.cache.
   ResultCache` and keep only the misses;
3. **compute** -- run the misses in the calling process, in order
   (``workers=1``, the default, or at most one pending unit), or on a
   one-box ``multiprocessing`` pool (``workers>1``);
4. **bank** -- write every completed unit to the cache the moment it
   completes, so an interrupted sweep resumes from its last completed
   unit;
5. **assemble** -- concatenate unit rows in plan order, whatever order
   the pool completed them in.

Determinism contract
--------------------
The executor's output is a pure function of ``(specs, root_seed)``:

- every trial's seed comes from :func:`~repro.exec.seeds.derive_seed`
  on ``(root_seed, spec.scenario_key(), trial_index)``, never from
  worker identity or execution order;
- work units are chunks of *trial indices*, chunked the same way
  regardless of worker count;
- rows are assembled in plan order (spec order, trial-index order).

So serial, parallel, cached, and resumed runs all produce byte-identical
row lists -- pinned by ``tests/test_exec_golden.py`` and across worker
counts by ``tests/test_exec_campaign.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exec import campaign
from repro.exec.cache import ResultCache
from repro.exec.seeds import derive_seed
from repro.exec.specs import ScenarioSpec, run_trial

#: One pending work unit as shipped to a worker: its position in the
#: pending list and ``(spec.as_dict(), root_seed, trial_indices)`` --
#: plain data, picklable under every start method.
UnitTask = Tuple[int, Tuple[Dict[str, Any], int, Tuple[int, ...]]]


@dataclass
class ExecStats:
    """Execution accounting for one :meth:`SweepExecutor.run` call."""

    workers: int = 1
    units_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    trials_total: int = 0
    trials_computed: int = 0
    wall_clock_s: float = 0.0
    cache_enabled: bool = False

    @property
    def hit_fraction(self) -> float:
        """Cache hits as a fraction of all work units (0.0 when none)."""
        return self.cache_hits / self.units_total if self.units_total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict form for JSON reports and stats tables."""
        return {
            "workers": self.workers,
            "units_total": self.units_total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_fraction": round(self.hit_fraction, 4),
            "trials_total": self.trials_total,
            "trials_computed": self.trials_computed,
            "wall_clock_s": round(self.wall_clock_s, 4),
            "cache_enabled": self.cache_enabled,
        }


@dataclass
class SweepRunResult:
    """Per-spec trial rows (trial-index order) plus execution stats."""

    rows: List[List[Dict[str, Any]]] = field(default_factory=list)
    stats: ExecStats = field(default_factory=ExecStats)


def _run_unit(task: UnitTask) -> Tuple[int, List[Dict[str, Any]]]:
    """Worker entry point: run one chunk of trials.

    Takes a plain-data task (picklable under every start method) and
    returns its position with the trial rows in index order.
    Module-level so ``multiprocessing`` can ship it by reference.
    """
    position, (spec_dict, root_seed, indices) = task
    spec = ScenarioSpec.from_dict(spec_dict)
    key = spec.scenario_key()
    return position, [
        run_trial(spec, derive_seed(root_seed, key, index))
        for index in indices
    ]


def _compute_units(
    tasks: List[UnitTask], workers: int
) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
    """Yield ``(position, rows)`` for every task as it completes.

    In the calling process and in order for one worker or at most one
    task, so small sweeps and warm reruns never pay pool start-up; else
    in whatever order a ``fork`` pool (the platform default where fork
    is missing) completes them -- the caller re-serializes.
    """
    if workers == 1 or len(tasks) <= 1:
        for task in tasks:
            yield _run_unit(task)
        return
    # imported only here, so `import repro.cli` never loads it
    import multiprocessing

    fork = "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if fork else None)
    with ctx.Pool(processes=min(workers, len(tasks))) as pool:
        yield from pool.imap_unordered(_run_unit, tasks)


class SweepExecutor:
    """Runs scenario sweeps: chunked, optionally parallel, optionally
    cached.

    Parameters
    ----------
    workers:
        Worker-process count.  ``1`` (the default) runs every trial in
        the calling process -- no pool, no pickling; ``>1`` fans out
        over a ``multiprocessing`` pool on this box.
    cache:
        A :class:`ResultCache` for memoization and checkpoint/resume, or
        ``None`` (the default) to always recompute.
    chunk_size:
        Trials per work unit; keep it identical between runs that should
        share cache entries (see
        :data:`~repro.exec.campaign.DEFAULT_CHUNK_SIZE`).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        chunk_size: int = campaign.DEFAULT_CHUNK_SIZE,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.workers = workers
        self.cache = cache
        self.chunk_size = chunk_size

    def checkpointed(
        self, specs: Sequence[ScenarioSpec], root_seed: int = 0
    ) -> Tuple[int, int]:
        """``(cached_units, total_units)`` for a would-be run.

        The resume probe: how much of the sweep an earlier (possibly
        interrupted) run already banked under the current cache root.
        """
        units = campaign.plan_units(specs, root_seed, self.chunk_size)
        if self.cache is None:
            return 0, len(units)
        done = sum(1 for u in units if self.cache.contains(u.key))
        return done, len(units)

    def run(
        self, specs: Sequence[ScenarioSpec], root_seed: int = 0
    ) -> SweepRunResult:
        """Execute every trial of every spec; see the module docstring
        for the pipeline and the determinism contract.

        Returns one row list per spec (in spec order, rows in
        trial-index order) plus :class:`ExecStats`.
        """
        started = time.perf_counter()
        units = campaign.plan_units(specs, root_seed, self.chunk_size)
        pending: List[campaign.UnitState] = []
        for unit in units:
            cached = self.cache.get(unit.key) if self.cache is not None else None
            if cached is not None and len(cached) == len(unit.indices):
                unit.rows = cached
            else:
                pending.append(unit)

        tasks: List[UnitTask] = [
            (i, (specs[u.spec_index].as_dict(), int(root_seed), u.indices))
            for i, u in enumerate(pending)
        ]
        for position, rows in _compute_units(tasks, self.workers):
            unit = pending[position]
            unit.rows = rows
            if self.cache is not None:
                # bank on completion: an interrupted sweep keeps it
                self.cache.put(
                    unit.key,
                    rows,
                    meta={
                        "scenario_key": specs[unit.spec_index].scenario_key(),
                        "root_seed": int(root_seed),
                        "indices": list(unit.indices),
                    },
                )

        per_spec: List[List[Dict[str, Any]]] = [[] for _ in specs]
        for unit in units:
            per_spec[unit.spec_index].extend(unit.rows)
        stats = ExecStats(
            workers=self.workers,
            units_total=len(units),
            cache_hits=len(units) - len(pending),
            cache_misses=len(pending),
            trials_total=sum(s.trials for s in specs),
            trials_computed=sum(len(u.indices) for u in pending),
            wall_clock_s=time.perf_counter() - started,
            cache_enabled=self.cache is not None,
        )
        return SweepRunResult(rows=per_spec, stats=stats)
