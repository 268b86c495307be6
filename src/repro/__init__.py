"""repro: a reproduction of "On Reliable Broadcast in a Radio Network".

Bhandari & Vaidya (PODC 2005 / UIUC technical report, May 2005) study
reliable broadcast on an infinite grid (or finite toroidal) radio network
under *locally bounded* Byzantine and crash-stop failures: an adversary may
place at most ``t`` faults inside any single neighborhood.  Their results:

- Byzantine, L-infinity: achievable iff ``t < r(2r+1)/2`` (exact threshold,
  via a protocol with indirect reports);
- crash-stop, L-infinity: achievable iff ``t < r(2r+1)`` (exact threshold);
- Byzantine, L2 (informal): achievable around ``t < 0.23*pi*r^2``,
  impossible around ``t >= 0.3*pi*r^2``;
- the simple protocol of Koo (CPA) achieves ``t <= (2/3) r^2`` in
  L-infinity.

This package implements the whole stack: lattice geometry, grid/torus
topologies, a TDMA radio simulator with reliable local broadcast, the
locally-bounded fault adversary, all four broadcast protocols, the paper's
constructive proofs as executable witnesses, and an experiment harness that
regenerates every figure/table-shaped result.

Quickstart
----------
>>> from repro import byzantine_broadcast_scenario
>>> scenario = byzantine_broadcast_scenario(r=2, t=4)   # t < r(2r+1)/2 = 5
>>> outcome = scenario.run()
>>> outcome.achieved
True
"""

from repro._version import __version__
from repro.errors import (
    ReproError,
    ConfigurationError,
    InvalidPlacementError,
    SpoofingError,
    ProtocolViolationError,
    WitnessError,
)
from repro.geometry import Point, L1, L2, LINF, get_metric
from repro.grid import Torus, InfiniteGrid, nbd, pnbd
from repro.radio import Engine, run_broadcast, BroadcastOutcome

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "InvalidPlacementError",
    "SpoofingError",
    "ProtocolViolationError",
    "WitnessError",
    "Point",
    "L1",
    "L2",
    "LINF",
    "get_metric",
    "Torus",
    "InfiniteGrid",
    "nbd",
    "pnbd",
    "Engine",
    "run_broadcast",
    "BroadcastOutcome",
]

from repro.core.thresholds import (  # noqa: E402
    byzantine_linf_threshold,
    byzantine_linf_max_t,
    koo_impossibility_bound,
    crash_linf_threshold,
    crash_linf_max_t,
    cpa_linf_bound,
    cpa_linf_max_t,
    threshold_table,
)
from repro.protocols import (  # noqa: E402
    CPAProtocol,
    BVIndirectProtocol,
    BVTwoHopProtocol,
    CrashFloodProtocol,
)
from repro.experiments.scenarios import (  # noqa: E402
    BroadcastScenario,
    byzantine_broadcast_scenario,
    crash_broadcast_scenario,
    recommended_torus,
    strip_torus,
)

__all__ += [
    "byzantine_linf_threshold",
    "byzantine_linf_max_t",
    "koo_impossibility_bound",
    "crash_linf_threshold",
    "crash_linf_max_t",
    "cpa_linf_bound",
    "cpa_linf_max_t",
    "threshold_table",
    "CPAProtocol",
    "BVIndirectProtocol",
    "BVTwoHopProtocol",
    "CrashFloodProtocol",
    "BroadcastScenario",
    "byzantine_broadcast_scenario",
    "crash_broadcast_scenario",
    "recommended_torus",
    "strip_torus",
]
