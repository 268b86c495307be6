"""High-level broadcast runner and outcome classification.

:func:`run_broadcast` wires a process map into an engine, runs it, and
grades the run against the paper's two requirements:

- **safety** (paper Thm 2): no *correct* node commits to a value other
  than the source's;
- **liveness / completeness** (paper Thm 3): every correct node eventually
  commits.

Reliable broadcast is *achieved* on a run iff both hold.  Faulty nodes
(Byzantine or crashed) are excluded from both checks -- the paper demands
nothing of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Set,
)

from repro.geometry.coords import Coord
from repro.grid.tdma import TDMASchedule
from repro.grid.topology import Topology
from repro.radio.engine import Engine, SimulationResult
from repro.radio.node import NodeProcess


@dataclass
class BroadcastOutcome:
    """A graded broadcast run.

    Attributes
    ----------
    safe:
        ``True`` iff no correct node committed a wrong value.
    live:
        ``True`` iff every correct node committed.
    achieved:
        ``safe and live`` -- the paper's "reliable broadcast achieved".
    wrong_commits / undecided:
        The offending nodes, for diagnosis (both empty on success).
    result:
        The underlying :class:`~repro.radio.engine.SimulationResult`.
    """

    value: Any
    correct_nodes: FrozenSet[Coord]
    safe: bool
    live: bool
    wrong_commits: Dict[Coord, Any]
    undecided: List[Coord]
    result: SimulationResult

    @property
    def achieved(self) -> bool:
        """Whether reliable broadcast was achieved on this run."""
        return self.safe and self.live

    @property
    def rounds(self) -> int:
        """Rounds the run took."""
        return self.result.rounds

    @property
    def messages(self) -> int:
        """Total transmissions on the channel."""
        return self.result.trace.transmissions

    def summary(self) -> Dict[str, Any]:
        """Compact log-friendly summary."""
        return {
            "achieved": self.achieved,
            "safe": self.safe,
            "live": self.live,
            "wrong_commits": len(self.wrong_commits),
            "undecided": len(self.undecided),
            "rounds": self.rounds,
            "messages": self.messages,
        }


def grade_outcome(
    result: SimulationResult,
    value: Any,
    correct_nodes: AbstractSet[Coord],
) -> BroadcastOutcome:
    """Grade a finished simulation against safety and liveness.

    The result names its failing correct nodes in node order
    (:meth:`~repro.radio.engine.SimulationResult.failing_nodes`: a walk
    of the processes, or a fastpath run's masks), so ``undecided`` and
    ``wrong_commits`` come out in node order.
    """
    processes = result.processes
    wrong: Dict[Coord, Any] = {}
    undecided: List[Coord] = []
    for node in result.failing_nodes(value, correct_nodes):
        committed = processes[node].committed_value()
        if committed is None:
            undecided.append(node)
        else:
            wrong[node] = committed
    return BroadcastOutcome(
        value=value,
        correct_nodes=frozenset(correct_nodes),
        safe=not wrong,
        live=not undecided,
        wrong_commits=wrong,
        undecided=undecided,
        result=result,
    )


def run_broadcast(
    topology: Topology,
    processes: Mapping[Coord, NodeProcess],
    value: Any,
    correct_nodes: Set[Coord],
    *,
    schedule: Optional[TDMASchedule] = None,
    crash_round: Optional[Mapping[Coord, int]] = None,
    max_rounds: int = 10_000,
    max_messages: Optional[int] = None,
    channel=None,
    delivery: str = "immediate",
    observers=None,
    profiler=None,
) -> BroadcastOutcome:
    """Run a configured broadcast and grade the outcome.

    ``correct_nodes`` is the set the grading quantifies over; the caller
    (usually a :mod:`repro.faults` scenario builder) knows which nodes are
    faulty.  Crashed nodes must *not* appear in ``correct_nodes``.
    ``observers`` / ``profiler`` pass straight through to the
    :class:`~repro.radio.engine.Engine` (see :mod:`repro.obs`).
    """
    canon_correct = {topology.canonical(n) for n in correct_nodes}
    for node in crash_round or {}:
        if topology.canonical(node) in canon_correct:
            raise ValueError(
                f"node {node} is listed both correct and crashing"
            )
    return _run_graded(
        topology,
        processes,
        value,
        canon_correct,
        schedule=schedule,
        crash_round=crash_round,
        max_rounds=max_rounds,
        max_messages=max_messages,
        channel=channel,
        delivery=delivery,
        observers=observers,
        profiler=profiler,
    )


def _run_graded(
    topology: Topology,
    processes: Mapping[Coord, NodeProcess],
    value: Any,
    correct_nodes: AbstractSet[Coord],
    **engine_kwargs: Any,
) -> BroadcastOutcome:
    """:func:`run_broadcast` after its checks: ``correct_nodes`` must be
    canonical and disjoint from the crash map.  A
    :class:`~repro.experiments.scenarios.BroadcastScenario`, which
    canonicalizes its fault maps once, calls it directly."""
    result = Engine(topology, processes, **engine_kwargs).run()
    return grade_outcome(result, value, correct_nodes)
