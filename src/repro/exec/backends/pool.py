"""The multiprocessing pool backend: one-box parallelism behind the
:class:`~repro.exec.backends.base.ExecutionBackend` protocol.

Work units fan out over a ``multiprocessing`` pool (``fork`` start
method where available -- cheap, inherits ``sys.path``) and stream back
as they finish via ``imap_unordered``; completion order is
nondeterministic, which is fine because ordering is the executor's job.
A submission of zero or one pending units short-circuits to in-process
execution so small sweeps never pay pool startup.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, Iterator, List, Tuple

from repro.errors import ConfigurationError
from repro.exec.backends.base import ExecutionBackend, UnitFunction, UnitPayload


def _pool_context() -> multiprocessing.context.BaseContext:
    """The start method for worker pools: ``fork`` where available
    (cheap, inherits ``sys.path``), else the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


def _call_indexed(
    task: Tuple[UnitFunction, int, UnitPayload]
) -> Tuple[int, List[Dict[str, Any]]]:
    """Pool entry point: run one unit, tagged with its payload index.

    Module-level so ``multiprocessing`` can import it by reference; the
    unit function itself crosses the fork as a by-reference pickle too.
    """
    fn, index, payload = task
    return index, fn(payload)


class PoolBackend(ExecutionBackend):
    """Chunk-parallel execution on one box via ``multiprocessing``."""

    name = "pool"

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def run_units(
        self, fn: UnitFunction, payloads: List[UnitPayload]
    ) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
        """Yield ``(index, rows)`` as the pool completes units.

        Completion order is whatever the pool produces; a rerun may
        yield a different order with identical rows (the executor
        re-serializes).  Zero/one pending units run in-process.
        """
        if len(payloads) <= 1 or self.workers == 1:
            for index, payload in enumerate(payloads):
                yield index, fn(payload)
            return
        tasks = [(fn, i, p) for i, p in enumerate(payloads)]
        ctx = _pool_context()
        with ctx.Pool(processes=min(self.workers, len(payloads))) as pool:
            yield from pool.imap_unordered(_call_indexed, tasks)
