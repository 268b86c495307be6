"""Fastpath entry point: gating, dispatch, and result assembly.

:func:`run_fastpath_broadcast` is the backend's one public door.  It
refuses -- with a :class:`~repro.errors.ConfigurationError` naming the
reason -- any scenario or instrumentation the kernels cannot reproduce
*exactly* (the equivalence contract in ``docs/ENGINES.md`` is byte-level
and unconditional: there is no "approximately supported" tier), runs
the protocol kernel, and assembles the same artifact set the reference
path produces: a populated :class:`~repro.radio.trace.Trace`, populated
:class:`~repro.obs.metrics.RunMetrics` observers, a
:class:`~repro.radio.engine.SimulationResult`-compatible result, and a
graded :class:`~repro.radio.run.BroadcastOutcome`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.geometry.coords import Coord
from repro.grid.torus import Torus
from repro.obs.metrics import RunMetrics
from repro.radio.engines import (
    ENGINES,
    FASTPATH_BYZANTINE_PROTOCOLS,
    FASTPATH_PROTOCOLS,
    validate_engine,
)
from repro.radio.fastpath.bv_two_hop import run_bv_two_hop_kernel
from repro.radio.fastpath.byzantine import (
    build_plans,
    classify_unsupported_reason,
)
from repro.radio.fastpath.compat import require_numpy
from repro.radio.fastpath.cpa import run_cpa_kernel
from repro.radio.fastpath.crash_flood import run_crash_flood_kernel
from repro.radio.fastpath.lattice import Lattice
from repro.radio.fastpath.result import (
    FastSimulationResult,
    build_processes,
    build_trace,
)
from repro.radio.fastpath.stats import SourceTracker
from repro.radio.run import BroadcastOutcome, grade_outcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenarios import BroadcastScenario

__all__ = [
    "ENGINES",
    "FASTPATH_PROTOCOLS",
    "fastpath_unsupported_reason",
    "get_lattice",
    "run_fastpath_broadcast",
    "validate_engine",
]

#: Crash-round sentinel for nodes that never crash (any value above
#: every reachable round works; rounds are bounded by max_rounds).
_NEVER = 2**62


@lru_cache(maxsize=4)
def _lattice(width: int, height: int, r: int, metric: str) -> Lattice:
    """The shared :class:`Lattice` for one torus shape.

    The tables are pure geometry and dominate setup cost for repeated
    runs on the same torus; ``metric`` is a metric *name*, so the cache
    key is plain data.
    """
    return Lattice(Torus(width, height, r, metric))


def get_lattice(topology: Torus) -> Lattice:
    """The (memoized) :class:`Lattice` for a torus."""
    if not isinstance(topology, Torus):
        return Lattice(topology)  # raises the named ConfigurationError
    return _lattice(
        topology.width, topology.height, topology.r, topology.metric.name
    )


def fastpath_unsupported_reason(
    scenario: "BroadcastScenario",
) -> Optional[str]:
    """Why ``scenario`` cannot run on the fastpath backend, or ``None``.

    The checks cover scenario *structure*; per-run instrumentation
    (profilers, non-RunMetrics observers) is checked at
    :func:`run_fastpath_broadcast` time.
    """
    if scenario.protocol not in FASTPATH_PROTOCOLS:
        return (
            f"protocol {scenario.protocol!r} has no fastpath kernel "
            f"(supported: {FASTPATH_PROTOCOLS})"
        )
    if scenario.byzantine_processes:
        if scenario.protocol not in FASTPATH_BYZANTINE_PROTOCOLS:
            return (
                f"protocol {scenario.protocol!r} has no "
                "Byzantine-capable fastpath kernel (supported: "
                f"{FASTPATH_BYZANTINE_PROTOCOLS}); Byzantine scenarios "
                "for other protocols need the reference engine"
            )
        reason = classify_unsupported_reason(scenario.byzantine_processes)
        if reason is not None:
            return reason
    if scenario.channel is not None:
        return "channel imperfections require the reference engine"
    if scenario.delivery != "immediate":
        return (
            f'delivery={scenario.delivery!r} is not vectorized; only '
            '"immediate" is'
        )
    if scenario.protocol_kwargs:
        return (
            "protocol_kwargs "
            f"{sorted(scenario.protocol_kwargs)} are not supported by "
            "the fastpath kernels"
        )
    if not isinstance(scenario.topology, Torus):
        return (
            "the fastpath engine supports only Torus topologies, got "
            f"{type(scenario.topology).__name__}"
        )
    return None


def _check_run_args(
    scenario: "BroadcastScenario",
    observers: Optional[Sequence[object]],
    profiler: Optional[object],
) -> List[RunMetrics]:
    reason = fastpath_unsupported_reason(scenario)
    if reason is not None:
        raise ConfigurationError(f'engine="fastpath" cannot run this scenario: {reason}')
    # same guard (and message) the reference engine raises at
    # construction time -- rejection parity is part of the contract
    if scenario.max_rounds < 1:
        raise ConfigurationError(
            f"max_rounds must be >= 1, got {scenario.max_rounds}"
        )
    for node, rnd in scenario.crash_round.items():
        if rnd < 0:
            raise ConfigurationError(
                f"crash round for {node} must be >= 0, got {rnd}"
            )
    # same error the reference source process raises in on_start --
    # a None source value means "not the source" to every protocol
    if scenario.value is None:
        raise ConfigurationError(
            f"source node {scenario.source} has no source_value"
        )
    if profiler is not None:
        raise ConfigurationError(
            'engine="fastpath" has no phase profiler; use '
            'engine="reference" to profile'
        )
    checked: List[RunMetrics] = []
    for obs in observers or ():
        # exact-type check: a RunMetrics *subclass* may override hooks
        # the fastpath never calls, silently collecting nothing
        if type(obs) is not RunMetrics:
            raise ConfigurationError(
                'engine="fastpath" supports only plain RunMetrics '
                f"observers, got {type(obs).__name__}"
            )
        checked.append(obs)
    return checked


def run_fastpath_broadcast(
    scenario: "BroadcastScenario",
    observers: Optional[Sequence[object]] = None,
    profiler: Optional[object] = None,
) -> BroadcastOutcome:
    """Run ``scenario`` on the fastpath backend and grade the outcome.

    Drop-in equivalent of the reference path taken by
    :meth:`repro.experiments.scenarios.BroadcastScenario.run`: same
    grading, same trace aggregates, same observer contents -- enforced
    byte-for-byte by the differential suite.
    """
    np = require_numpy()
    metrics_observers = _check_run_args(scenario, observers, profiler)
    lattice = get_lattice(scenario.topology)
    n = lattice.num_nodes

    flat = lattice.flat
    correct_mask = np.ones(n, dtype=bool)
    for node in sorted(scenario.faulty_nodes):
        correct_mask[flat(node)] = False
    crash_rounds = np.full(n, _NEVER, dtype=np.int64)
    for node, rnd in scenario.crash_round.items():
        crash_rounds[flat(node)] = rnd
    source_idx = lattice.flat(scenario.source)

    trackers_by_source: Dict[Coord, SourceTracker] = {}
    for obs in metrics_observers:
        if obs.source is None:
            continue
        src = scenario.topology.canonical(obs.source)
        if src not in trackers_by_source:
            trackers_by_source[src] = SourceTracker(
                src, lattice.distance_from(src)
            )
    trackers = list(trackers_by_source.values())

    if scenario.protocol == "crash-flood":
        stats = run_crash_flood_kernel(
            lattice,
            source_idx=source_idx,
            correct=correct_mask,
            crash_rounds=crash_rounds,
            max_rounds=scenario.max_rounds,
            max_messages=scenario.max_messages,
            trackers=trackers,
        )
    elif scenario.protocol == "cpa":
        plans = build_plans(
            scenario.byzantine_processes, scenario.topology.r
        )
        stats = run_cpa_kernel(
            lattice,
            source_idx=source_idx,
            value=scenario.value,
            t=scenario.t,
            correct=correct_mask,
            crash_rounds=crash_rounds,
            byz_plans={
                lattice.flat(node): plan for node, plan in plans.items()
            },
            max_rounds=scenario.max_rounds,
            max_messages=scenario.max_messages,
            trackers=trackers,
        )
    else:
        stats = run_bv_two_hop_kernel(
            lattice,
            source_idx=source_idx,
            value=scenario.value,
            t=scenario.t,
            correct=correct_mask,
            crash_rounds=crash_rounds,
            max_rounds=scenario.max_rounds,
            max_messages=scenario.max_messages,
            trackers=trackers,
        )

    trace = build_trace(
        rounds=stats.rounds,
        transmissions=stats.transmissions,
        deliveries=stats.fanout_deliveries,
        crashes=stats.crashes,
        tx_by_node=stats.tx_by_node,
        tx_by_round=stats.tx_by_round,
    )
    result = FastSimulationResult(
        rounds=stats.rounds,
        quiescent=stats.quiescent,
        hit_round_limit=stats.hit_round_limit,
        hit_message_limit=stats.hit_message_limit,
        trace=trace,
        processes=build_processes(
            lattice.coords_all,
            stats.committed_mask,
            scenario.value,
            stats.wrong_values,
        ),
        crash_round=dict(scenario.crash_round),
    )

    for obs in metrics_observers:
        src = (
            scenario.topology.canonical(obs.source)
            if obs.source is not None
            else None
        )
        tracker = trackers_by_source.get(src) if src is not None else None
        obs.ingest_run(
            source=src,
            transmissions=stats.transmissions,
            deliveries=stats.obs_deliveries,
            crashes=stats.crashes,
            rounds=stats.rounds,
            quiescent=stats.quiescent,
            tx_by_round=dict(stats.tx_by_round),
            deliveries_by_round=dict(stats.deliveries_by_round),
            commits_by_round=dict(stats.commits_by_round),
            tx_by_node=dict(stats.tx_by_node),
            rx_by_node=dict(stats.rx_by_node),
            commit_round=dict(stats.commit_round),
            commit_wavefront_by_round=(
                dict(tracker.commit_wavefront) if tracker else {}
            ),
            delivery_wavefront_by_round=(
                dict(tracker.delivery_wavefront) if tracker else {}
            ),
        )

    # same set as scenario.correct_nodes, built from the mask instead of
    # a 40k-node generator walk (grading is on the hot sweep path)
    correct_nodes = set(compress(lattice.coords_all, correct_mask.tolist()))
    return grade_outcome(result, scenario.value, correct_nodes)
