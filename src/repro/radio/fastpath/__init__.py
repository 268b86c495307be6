"""``repro.radio.fastpath``: the vectorized array-kernel engine.

A second simulation backend for protocols whose per-round state is a
small per-node lattice (crash-flood, bv-two-hop, and CPA today): node
state lives in dense numpy arrays, neighborhood delivery is an
on-the-fly ball-stencil gather (torus wrap folded into the
arithmetic), crash faults are boolean masks, and fixed-strategy
Byzantine value faults (silent / liar / duplicitous / fabricator, on
CPA) are compiled message plans.  Each kernel hands its run's message
order to one statistics pass (:mod:`repro.radio.fastpath.stats`).  The backend is selected per
scenario via ``ScenarioSpec(engine="fastpath")`` /
``BroadcastScenario(engine="fastpath")`` and must be *observationally
identical* to the reference engine: the differential harness
(``tests/test_fastpath_differential.py``) pins byte-equal
``metrics_summary`` JSON and identical per-node commit maps between
backends.  See ``docs/ENGINES.md`` for the equivalence contract.

numpy is an optional dependency (the ``fast`` extra); requesting the
backend without it raises :class:`~repro.errors.ConfigurationError`,
never a bare ``ImportError``.
"""

from repro.radio.engines import (
    FASTPATH_BYZANTINE_PROTOCOLS,
    FASTPATH_FIXED_STRATEGIES,
)
from repro.radio.fastpath.compat import HAVE_NUMPY, require_numpy
from repro.radio.fastpath.lattice import Lattice
from repro.radio.fastpath.result import FastSimulationResult
from repro.radio.fastpath.runner import (
    ENGINES,
    FASTPATH_PROTOCOLS,
    fastpath_unsupported_reason,
    run_fastpath_broadcast,
    validate_engine,
)

__all__ = [
    "ENGINES",
    "FASTPATH_BYZANTINE_PROTOCOLS",
    "FASTPATH_FIXED_STRATEGIES",
    "FASTPATH_PROTOCOLS",
    "FastSimulationResult",
    "HAVE_NUMPY",
    "Lattice",
    "fastpath_unsupported_reason",
    "require_numpy",
    "run_fastpath_broadcast",
    "validate_engine",
]
