"""The in-process serial backend: no pool, no pickling.

The reference implementation of the :class:`~repro.exec.backends.base.
ExecutionBackend` contract and the default for ``workers=1``.  Also the
arbiter in differential arguments: the pool backend must reproduce
exactly the rows this one computes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.exec.backends.base import ExecutionBackend, UnitFunction, UnitPayload


class SerialBackend(ExecutionBackend):
    """Run every unit in the calling process, in submission order."""

    name = "serial"
    workers = 1

    def run_units(
        self, fn: UnitFunction, payloads: List[UnitPayload]
    ) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
        """Yield ``(index, fn(payload))`` in order, one at a time."""
        for index, payload in enumerate(payloads):
            yield index, fn(payload)
