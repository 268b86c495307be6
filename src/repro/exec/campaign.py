"""Work-unit planning: how a sweep is cut into content-addressed units.

A sweep is a list of :class:`~repro.exec.specs.ScenarioSpec`; planning
chunks every spec's trial range into *work units* and gives each unit
its cache key.  Chunking is identical for every worker count, because
the key embeds the unit's trial indices: a unit chunked differently
would never be found in the cache again.

:class:`~repro.exec.executor.SweepExecutor` runs the plan: it probes the
cache for each unit, computes the misses, banks each completion, and
assembles rows in plan order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import code_version_tag, content_key
from repro.exec.specs import ScenarioSpec

#: Trials per work unit.  Independent of the worker count on purpose:
#: cache keys embed the unit's trial indices, so chunking must not change
#: when ``--workers`` does or cached units would never be rediscovered.
DEFAULT_CHUNK_SIZE = 4


def unit_cache_key(
    spec: ScenarioSpec, root_seed: int, indices: Sequence[int]
) -> str:
    """The content hash identifying one work unit on disk.

    Covers the scenario parameters, the root seed, the exact trial
    indices, and the code-version tag -- any change to any of them is a
    different key, i.e. a cache miss.  ``collect_metrics`` is excluded
    from the scenario identity (it does not change the simulation) but
    changes the cached row *shape*, so it joins the key when set --
    conditionally, to keep every pre-existing metrics-free cache entry
    valid.  ``spec.engine`` never joins the key: the backends are
    observationally identical (tests/test_fastpath_differential.py), so
    cache rows are shared across engines -- a sweep computed on
    ``reference`` is a 100% cache hit when rerun with ``fastpath``.
    """
    return _unit_key(_key_base(spec, root_seed), indices)


def _key_base(spec: ScenarioSpec, root_seed: int) -> Dict[str, Any]:
    """Every key field of a unit of ``spec`` but its indices.

    Built once per spec by :func:`plan_units`; :func:`unit_cache_key`
    goes through the same two functions, so the keys cannot drift.
    """
    base: Dict[str, Any] = {
        "scenario": spec.key_payload(),
        "root_seed": int(root_seed),
        "code_version": code_version_tag(),
    }
    if spec.collect_metrics:
        base["collect_metrics"] = True
    return base


def _unit_key(base: Dict[str, Any], indices: Sequence[int]) -> str:
    """The key of the unit covering ``indices`` (see :func:`_key_base`)."""
    return content_key(dict(base, indices=[int(i) for i in indices]))


@dataclass
class UnitState:
    """One planned work unit and (once available) its rows."""

    #: index of the owning spec in the sweep's spec list
    spec_index: int
    #: the trial indices this unit covers (ascending, contiguous)
    indices: Tuple[int, ...]
    #: content-address of the unit in the result store
    key: str
    #: trial rows in index order; ``None`` until computed or cache-hit
    rows: Optional[List[Dict[str, Any]]] = None


def plan_units(
    specs: Sequence[ScenarioSpec],
    root_seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> List[UnitState]:
    """Chunk every spec's trial range into content-addressed units.

    Plan order is (spec order, ascending trial index) -- the order rows
    appear in the executor's output.
    """
    units: List[UnitState] = []
    for spec_index, spec in enumerate(specs):
        base = _key_base(spec, root_seed)
        for start in range(0, spec.trials, chunk_size):
            indices = tuple(
                range(start, min(start + chunk_size, spec.trials))
            )
            units.append(
                UnitState(
                    spec_index=spec_index,
                    indices=indices,
                    key=_unit_key(base, indices),
                )
            )
    return units
