"""Simulation tracing.

A :class:`Trace` keeps a run's channel aggregates: transmissions,
channel-level deliveries (every transmission counts its sender's whole
neighborhood), crashes and rounds, with transmissions also counted per
node and per round.  Traces power the protocol-cost benchmarks (message
and round complexity).  The per-event log of a run is
:class:`~repro.obs.export.JsonlRecorder`, an engine observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.geometry.coords import Coord
from repro.radio.messages import Envelope


@dataclass
class Trace:
    """Accumulates aggregates during a simulation run."""

    transmissions: int = 0
    deliveries: int = 0
    rounds: int = 0
    crashes: int = 0
    tx_by_node: Dict[Coord, int] = field(default_factory=dict)
    tx_by_round: Dict[int, int] = field(default_factory=dict)

    def on_transmission(self, env: Envelope, fanout: int) -> None:
        """Record a transmission delivered to ``fanout`` receivers."""
        self.transmissions += 1
        self.deliveries += fanout
        self.tx_by_node[env.sender] = self.tx_by_node.get(env.sender, 0) + 1
        self.tx_by_round[env.round] = self.tx_by_round.get(env.round, 0) + 1

    def on_crash(self, node: Coord, round_: int) -> None:
        """Record a crash taking effect at the start of ``round_``.

        The engine announces each crash exactly once.
        """
        self.crashes += 1

    def on_round_end(self, round_: int) -> None:
        """Mark a completed round."""
        self.rounds = max(self.rounds, round_ + 1)

    def transmissions_of(self, node: Coord) -> int:
        """Total transmissions made by ``node``."""
        return self.tx_by_node.get(node, 0)

    def busiest_round(self) -> Tuple[int, int]:
        """``(round, tx_count)`` of the round with the most transmissions;
        ``(-1, 0)`` if nothing was transmitted."""
        if not self.tx_by_round:
            return (-1, 0)
        rd = max(self.tx_by_round, key=lambda k: (self.tx_by_round[k], -k))
        return (rd, self.tx_by_round[rd])

    def summary(self) -> Dict[str, int]:
        """Aggregate counters as a plain dict (stable keys, log-friendly)."""
        return {
            "rounds": self.rounds,
            "transmissions": self.transmissions,
            "deliveries": self.deliveries,
            "transmitting_nodes": len(self.tx_by_node),
            "crashes": self.crashes,
        }
