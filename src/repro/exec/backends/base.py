"""The :class:`ExecutionBackend` protocol -- the seam the sweep executor
computes through.

A backend executes *work units*: ``(spec_dict, root_seed, indices)``
payloads handed to a module-level worker function (today always
:func:`repro.exec.executor._run_unit`).  The contract is deliberately
tiny:

- :meth:`ExecutionBackend.run_units` receives the worker function and
  the payload list and *yields* ``(payload_index, rows)`` pairs as units
  complete, in **any order** -- ordering for byte-reproducible output is
  the executor's job (:class:`repro.exec.executor.SweepExecutor`), not
  the backend's;
- the worker function must be a picklable module-level callable with no
  shared-state dependencies -- enforced statically by the ``fork-safety``
  lint pass, which treats every ``run_units`` call site as a submission
  boundary (:mod:`repro.lint.analysis.forksafety`).

Determinism contract: because every unit's rows are a pure function of
its payload (seeds are derived, never drawn), *which* backend runs a
unit cannot change the rows.  The executor therefore shares one
content-addressed cache across backends, and identical sweeps rerun at
100% hits on either of them (pinned by ``tests/test_exec_campaign.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.errors import ReproError

#: One work unit as shipped across a process boundary:
#: ``(spec.as_dict(), root_seed, trial_indices)`` -- plain data,
#: picklable under every start method.
UnitPayload = Tuple[Dict[str, Any], int, Tuple[int, ...]]

#: The worker-function shape every backend executes.
UnitFunction = Callable[[UnitPayload], List[Dict[str, Any]]]


class BackendError(ReproError):
    """An execution backend broke its contract.

    Raised by the executor when a backend finishes without yielding
    every unit it was given.  Units already completed remain valid (and
    cached); the sweep fails only for what was not computed.
    """


class ExecutionBackend:
    """Base class for execution backends (see the module docstring).

    Subclasses implement :meth:`run_units`; ``name`` identifies the
    backend in error messages and ``workers`` is the parallelism it
    reports into :class:`~repro.exec.executor.ExecStats`.
    """

    #: backend name, used in error messages
    name: str = "base"
    #: parallelism reported into execution stats
    workers: int = 1

    def run_units(
        self, fn: UnitFunction, payloads: List[UnitPayload]
    ) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
        """Execute ``fn`` over every payload; yield ``(index, rows)``
        pairs as units complete (any order, exactly one per payload)."""
        raise NotImplementedError
