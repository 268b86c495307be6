"""Node processes and their interface to the engine.

A :class:`NodeProcess` is the program a node runs.  The engine calls its
hooks and hands each a :class:`Context`, through which the process can
broadcast (enqueue a payload for transmission in its next TDMA slot) and
inspect local information.  Processes never see the engine or other nodes
directly -- all interaction flows through the radio channel, exactly as in
the paper's model.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.geometry.coords import Coord
from repro.radio.messages import Envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.topology import Topology
    from repro.radio.channel import ChannelImperfections


class World:
    """The engine state a node's context may read or touch.

    One per engine, shared by all of its contexts: the round counter, the
    topology and its torus wrap, the radius, the channel model, the jam
    bookkeeping and the ``deaf`` mask.  It points at neither the engine
    nor the contexts, so a finished engine is freed by reference
    counting alone -- no Engine <-> Context cycle is left for the cyclic
    collector.
    """

    __slots__ = (
        "round", "topology", "r", "wrap", "channel", "jammers", "jam_counts",
        "deaf",
    )

    def __init__(
        self,
        topology: "Topology",
        channel: "ChannelImperfections",
        size: int,
    ) -> None:
        #: current round (TDMA frame) index; -1 before round 0
        self.round = -1
        self.topology = topology
        self.r = topology.r
        #: ``(width, height, width // 2, height // 2)`` on a torus, else
        #: ``None``: what :meth:`Context.localize` wraps by
        self.wrap: Optional[Tuple[int, int, int, int]] = None
        if getattr(topology, "toroidal_delta", None) is not None:
            w, h = topology.width, topology.height
            self.wrap = (w, h, w // 2, h // 2)
        self.channel = channel
        #: nodes jamming in the current round (the engine clears it)
        self.jammers: Set[Coord] = set()
        #: rounds jammed so far, per node
        self.jam_counts: Dict[Coord, int] = {}
        #: ``deaf[i]`` once node ``i`` (the engine's flat node index) has
        #: crashed or halted: the engine delivers nothing more to it
        self.deaf = bytearray(size)

    def register_jam(self, node: Coord) -> bool:
        """Activate ``node``'s jammer for the current round (within the
        configured per-node budget).  Returns whether the jam is live."""
        budget = self.channel.max_jam_rounds_per_node
        spent = self.jam_counts.get(node, 0)
        if budget is not None and spent >= budget:
            return False
        if node not in self.jammers:
            self.jammers.add(node)
            self.jam_counts[node] = spent + 1
        return True


class Context:
    """A node's handle on the simulated world.

    One context exists per node per simulation.  It exposes exactly what
    the model allows a node to know and do: its own identity, the current
    time (round/slot), the radio parameters, and a ``broadcast`` primitive.
    """

    __slots__ = ("node", "_world", "_index", "_outbox", "halted")

    def __init__(self, node: Coord, world: World, index: int) -> None:
        self.node = node
        self._world = world
        #: this node's flat index in the engine, where ``halt`` marks it
        #: in ``world.deaf``
        self._index = index
        #: queued (payload, claimed_sender) pairs; ``claimed_sender`` is
        #: ``None`` for honest broadcasts and the forged coordinate for
        #: :meth:`broadcast_as` transmissions.  A deque: the engine drains
        #: it FIFO from the left every slot, and ``popleft`` keeps that
        #: O(1) where a list's ``pop(0)`` made chatty protocols O(n^2).
        self._outbox: Deque[Tuple[Any, Optional[Coord]]] = deque()
        #: set True by :meth:`halt` only (a crashed node that never halted
        #: reads False); the engine stops delivering to a halted node (pure
        #: optimization -- a halted process ignores input by definition).
        self.halted: bool = False

    @property
    def r(self) -> int:
        """The transmission radius."""
        return self._world.r

    @property
    def metric_name(self) -> str:
        """Name of the distance metric in force."""
        return self._world.topology.metric.name

    @property
    def round(self) -> int:
        """Current round (TDMA frame) index."""
        return self._world.round

    @property
    def pending(self) -> int:
        """Number of payloads queued in this node's outbox."""
        return len(self._outbox)

    def localize(self, other: Coord) -> Coord:
        """Map another node's canonical coordinate into this node's
        unwrapped local frame.

        Nodes know the network topology (the paper's model: nodes are
        identified by grid location).  On a torus the canonical coordinate
        of a nearby node may sit across the wrap; this helper returns the
        representative of ``other`` nearest to this node, so protocol
        geometry (balls, adjacency, covering centers) can be computed in
        plain infinite-grid arithmetic.
        """
        wrap = self._world.wrap
        if wrap is None:
            return (other[0], other[1])
        # node + Torus.toroidal_delta(node, other), inline: the node is
        # canonical, so only ``other`` needs reducing
        width, height, half_w, half_h = wrap
        x, y = self.node
        dx = (int(other[0]) - x) % width
        if dx > half_w:
            dx -= width
        dy = (int(other[1]) - y) % height
        if dy > half_h:
            dy -= height
        return (x + dx, y + dy)

    def broadcast(self, payload: Any) -> None:
        """Queue ``payload`` for local broadcast in this node's next slot.

        Queued payloads are transmitted in FIFO order; the channel
        preserves that order at every receiver (reliable local broadcast,
        paper Section II).
        """
        self._outbox.append((payload, None))

    def broadcast_as(self, claimed_sender: Coord, payload: Any) -> None:
        """ATTACK PRIMITIVE: queue a transmission with a forged sender.

        The paper's model forbids address spoofing; unless the engine was
        explicitly configured with
        :class:`~repro.radio.channel.ChannelImperfections`
        (``allow_spoofing=True``) this raises
        :class:`~repro.errors.SpoofingError` -- the engine *enforces* the
        assumption rather than trusting node code.  Section X experiments
        enable it to demonstrate how broadcast breaks.
        """
        from repro.errors import SpoofingError

        if not self._world.channel.allow_spoofing:
            raise SpoofingError(
                f"node {self.node} attempted to transmit as "
                f"{claimed_sender}, but the channel model forbids address "
                "spoofing (enable it via ChannelImperfections)"
            )
        canonical = self._world.topology.canonical(claimed_sender)
        self._outbox.append((payload, canonical))

    def jam(self) -> bool:
        """ATTACK PRIMITIVE: emit noise for the rest of this round.

        Every receiver within this node's radius hears collisions (i.e.
        nothing) for the round.  Requires ``allow_jamming`` in the
        engine's :class:`~repro.radio.channel.ChannelImperfections`
        (otherwise :class:`~repro.errors.ProtocolViolationError`); when a
        per-node jam budget is configured, returns ``False`` once the
        budget is spent (the jam has no effect).
        """
        from repro.errors import ProtocolViolationError

        if not self._world.channel.allow_jamming:
            raise ProtocolViolationError(
                f"node {self.node} attempted to jam, but the channel model "
                "forbids deliberate collisions (enable via "
                "ChannelImperfections)"
            )
        return self._world.register_jam(self.node)

    def halt(self) -> None:
        """Terminate local protocol execution.

        Already-queued payloads are still transmitted (the node finishes
        its sends, then goes quiet) -- this matches the paper's protocols,
        which "re-broadcast once ... and then may terminate local
        execution".  Deliveries stop from the engine's next one on.
        """
        self.halted = True
        self._world.deaf[self._index] = 1


class NodeProcess:
    """Base class for node programs.

    Subclasses override the hooks they need.  The default implementation
    does nothing (a correct but mute node).

    Hooks
    -----
    ``on_start(ctx)``
        Called once before round 0.
    ``on_receive(ctx, env)``
        Called for every envelope transmitted by a neighbor.
    ``on_round(ctx)``
        Called at the start of every round (before any slot fires).
    """

    def on_start(self, ctx: Context) -> None:
        """One-time initialization hook."""

    def on_receive(self, ctx: Context, env: Envelope) -> None:
        """Handle a received envelope."""

    def on_round(self, ctx: Context) -> None:
        """Per-round hook (timers, retries, ...)."""

    def on_round_end(self, ctx: Context) -> None:
        """Hook run after all of a round's slots have fired.

        Protocols with expensive commit rules batch their evaluation here:
        everything delivered during the round is visible, and any commit
        enqueues its ``COMMITTED`` broadcast before the engine's quiescence
        check, so the run cannot end with a decidable node undecided.
        """

    # -- introspection used by the harness / experiments ------------------

    def committed_value(self) -> Optional[Any]:
        """The value this node has committed to, or ``None``.

        Protocol processes override this; the harness polls it to decide
        success, safety and liveness of a broadcast run.
        """
        return None

    def is_decided(self) -> bool:
        """Whether the node has committed to some value."""
        return self.committed_value() is not None


class SilentProcess(NodeProcess):
    """A node that never transmits and ignores all input.

    Doubles as the simplest Byzantine strategy (a mute adversary) and as a
    placeholder for crashed-from-the-start nodes in analytical setups.
    """


class FunctionProcess(NodeProcess):
    """Adapt a plain receive-function into a :class:`NodeProcess`.

    Convenient in tests::

        def echo(ctx, env):
            ctx.broadcast(("echo", env.payload))

        proc = FunctionProcess(on_receive=echo)
    """

    def __init__(
        self,
        on_start: Optional[Callable[[Context], None]] = None,
        on_receive: Optional[Callable[[Context, Envelope], None]] = None,
        on_round: Optional[Callable[[Context], None]] = None,
        on_round_end: Optional[Callable[[Context], None]] = None,
    ) -> None:
        self._start = on_start
        self._receive = on_receive
        self._round = on_round
        self._round_end = on_round_end

    def on_start(self, ctx: Context) -> None:
        if self._start:
            self._start(ctx)

    def on_receive(self, ctx: Context, env: Envelope) -> None:
        if self._receive:
            self._receive(ctx, env)

    def on_round(self, ctx: Context) -> None:
        if self._round:
            self._round(ctx)

    def on_round_end(self, ctx: Context) -> None:
        if self._round_end:
            self._round_end(ctx)
