"""Execution backends for the sweep executor.

Two implementations of one tiny protocol
(:class:`~repro.exec.backends.base.ExecutionBackend`):

========  ==================================================  ======
name      runs units                                          scale
========  ==================================================  ======
serial    in the calling process, in order                    1 core
pool      across a ``multiprocessing`` pool (fork)            1 box
========  ==================================================  ======

:class:`~repro.exec.executor.SweepExecutor` picks serial for
``workers=1`` and pool otherwise.  Both compute byte-identical rows for
the same plan -- the executor owns ordering and caching, so switching
backends mid-study is invisible in the output.
"""

from __future__ import annotations

from repro.exec.backends.base import (
    BackendError,
    ExecutionBackend,
    UnitFunction,
    UnitPayload,
)
from repro.exec.backends.pool import PoolBackend
from repro.exec.backends.serial import SerialBackend

__all__ = [
    "BackendError",
    "ExecutionBackend",
    "PoolBackend",
    "SerialBackend",
    "UnitFunction",
    "UnitPayload",
]
