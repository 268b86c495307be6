"""Radio-network simulation engine.

Implements the paper's idealized channel model (Section II):

- **reliable local broadcast**: a transmission by node ``u`` is heard,
  correctly and atomically, by *every* node within distance ``r`` of ``u``;
- **per-sender ordering**: if ``u`` transmits ``m1`` before ``m2``, every
  neighbor receives them in that order;
- **no spoofing**: receivers learn the true sender identity (the engine
  stamps it; node code cannot forge it);
- **no collisions**: nodes transmit in a pre-determined TDMA schedule.

The engine is a deterministic synchronous-round simulator: each round runs
one TDMA frame; in its slot a node drains its outbox (configurable), and
each transmission is delivered to the full neighborhood immediately.
Crash-stop faults are an engine-level concern (a crashed node stops
transmitting); Byzantine faults are a process-level concern (the node runs
an adversarial :class:`~repro.radio.node.NodeProcess`).
"""

from repro.radio.channel import ChannelImperfections, PERFECT_CHANNEL
from repro.radio.messages import Envelope
from repro.radio.node import NodeProcess, Context, SilentProcess
from repro.radio.trace import Trace
from repro.radio.engine import Engine, SimulationResult
from repro.radio.resilience import RetransmittingProcess
from repro.radio.run import run_broadcast, BroadcastOutcome

__all__ = [
    "ChannelImperfections",
    "PERFECT_CHANNEL",
    "Envelope",
    "NodeProcess",
    "Context",
    "SilentProcess",
    "Trace",
    "Engine",
    "SimulationResult",
    "RetransmittingProcess",
    "run_broadcast",
    "BroadcastOutcome",
]
