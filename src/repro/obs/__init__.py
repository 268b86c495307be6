"""``repro.obs``: structured observability for simulation runs.

The engine's contract is deterministic execution; this package makes the
execution *legible* without perturbing it.  Three pieces:

- :mod:`repro.obs.metrics` -- the :class:`EngineObserver` hook protocol
  and :class:`RunMetrics`, a collector of per-round / per-node counters,
  commit-latency histograms, and broadcast wave-front radii;
- :mod:`repro.obs.export` -- deterministic JSONL event export
  (:class:`JsonlRecorder`) and the schema-versioned
  :func:`metrics_summary` (byte-reproducible given the same seed);
- :mod:`repro.obs.profile` -- :class:`PhaseProfiler`, opt-in wall-clock
  phase accounting of the engine hot loop.

Observers are pure listeners: the engine emits events at its
transmission / delivery / commit / crash points and never reads anything
back, so an observed run and an unobserved run execute identically (the
golden-trace suite pins this).  When no observers are attached the
engine allocates no collectors and the hot loop pays only a tuple
truthiness check.

See ``docs/OBSERVABILITY.md`` for the observer API, the JSONL schema,
and profiling usage; ``repro trace`` is the CLI entry point.
"""

from repro.obs.export import (
    OBS_SCHEMA_VERSION,
    JsonlRecorder,
    canonical_json,
    metrics_summary,
    validate_event,
    validate_jsonl,
)
from repro.obs.metrics import EngineObserver, RunMetrics
from repro.obs.profile import PhaseProfiler

__all__ = [
    "OBS_SCHEMA_VERSION",
    "EngineObserver",
    "JsonlRecorder",
    "PhaseProfiler",
    "RunMetrics",
    "canonical_json",
    "metrics_summary",
    "validate_event",
    "validate_jsonl",
]
