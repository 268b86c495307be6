"""Execution-backend tests: backend selection, protocol conformance
for serial/pool, and cross-backend row identity."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exec import ScenarioSpec
from repro.exec import SweepExecutor
from repro.exec.backends import PoolBackend, SerialBackend
from repro.exec.executor import _run_unit

def _payloads(n=3, trials_per_unit=2):
    """Real work-unit payloads: n units over one crash spec."""
    spec = ScenarioSpec(
        kind="crash",
        r=1,
        t=1,
        trials=n * trials_per_unit,
        protocol="crash-flood",
    )
    return [
        (
            spec.as_dict(),
            0,
            tuple(range(i * trials_per_unit, (i + 1) * trials_per_unit)),
        )
        for i in range(n)
    ]


def _echo(payload):
    """Cheap unit function for protocol-shape tests."""
    spec_dict, root_seed, indices = payload
    return [{"seed": root_seed, "index": i} for i in indices]


class TestRegistry:
    def test_workers_select_the_backend(self):
        serial = SweepExecutor(workers=1)._resolve_backend()
        pool = SweepExecutor(workers=3)._resolve_backend()
        assert isinstance(serial, SerialBackend)
        assert isinstance(pool, PoolBackend) and pool.workers == 3

    def test_pool_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="workers"):
            PoolBackend(workers=0)


class TestProtocolConformance:
    """Every backend yields each index exactly once with equal rows."""

    def _drain(self, backend, payloads):
        return dict(backend.run_units(_echo, payloads))

    def test_serial_in_order(self):
        out = self._drain(SerialBackend(), _payloads())
        assert sorted(out) == [0, 1, 2]

    def test_pool_covers_all_indices(self):
        out = self._drain(PoolBackend(workers=2), _payloads())
        assert sorted(out) == [0, 1, 2]

    def test_pool_equals_serial_rows(self):
        payloads = _payloads()
        serial = self._drain(SerialBackend(), payloads)
        pooled = self._drain(PoolBackend(workers=2), payloads)
        assert pooled == serial

    def test_real_units_cross_backend_identical(self):
        """The actual _run_unit worker computes identical rows on
        serial and pool backends."""
        payloads = _payloads()
        serial = dict(SerialBackend().run_units(_run_unit, payloads))
        pooled = dict(
            PoolBackend(workers=2).run_units(_run_unit, payloads)
        )
        assert pooled == serial
