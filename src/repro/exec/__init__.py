"""``repro.exec``: the parallel, cached sweep-execution layer.

The repo's hot path is randomized trial sweeps (threshold sharpness,
figure regeneration).  This package runs them at scale without giving up
the simulator's reproducibility contract:

- :mod:`repro.exec.seeds` -- per-trial seeds derived by stable hashing of
  ``(root_seed, scenario_key, trial_index)``, so serial and parallel runs
  agree byte-for-byte;
- :mod:`repro.exec.specs` -- picklable scenario specifications and the
  single-trial worker function;
- :mod:`repro.exec.cache` -- sharded, content-addressed on-disk
  memoization of completed work units (also the checkpoint/resume
  mechanism);
- :mod:`repro.exec.campaign` -- work-unit planning: trial ranges
  chunked into content-addressed units;
- :mod:`repro.exec.executor` -- :class:`SweepExecutor`, which plans,
  probes the cache, computes the misses in-process or on a one-box
  pool, banks each completion, and assembles rows in plan order, plus
  execution statistics.

See ``docs/EXECUTION.md`` for the design and the CLI (``repro sweep``,
``repro runtable``).
"""

from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    ResultCache,
    code_version_tag,
    content_key,
    default_cache_dir,
)
from repro.exec.campaign import (
    DEFAULT_CHUNK_SIZE,
    UnitState,
    plan_units,
    unit_cache_key,
)
from repro.exec.executor import ExecStats, SweepExecutor, SweepRunResult
from repro.exec.runtable import (
    FACTOR_FIELDS,
    RUNTABLE_SCHEMA,
    RunTable,
    RunTableResult,
    RunUnit,
    execute_runtable,
    load_runtable,
    summarize_rows,
)
from repro.exec.seeds import SEED_BITS, derive_seed
from repro.exec.specs import KINDS, ScenarioSpec, build_scenario, run_trial

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CHUNK_SIZE",
    "ExecStats",
    "FACTOR_FIELDS",
    "KINDS",
    "RUNTABLE_SCHEMA",
    "ResultCache",
    "RunTable",
    "RunTableResult",
    "RunUnit",
    "SEED_BITS",
    "ScenarioSpec",
    "SweepExecutor",
    "SweepRunResult",
    "UnitState",
    "build_scenario",
    "code_version_tag",
    "content_key",
    "default_cache_dir",
    "derive_seed",
    "execute_runtable",
    "load_runtable",
    "plan_units",
    "run_trial",
    "summarize_rows",
    "unit_cache_key",
]
