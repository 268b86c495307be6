"""The synchronous TDMA simulation engine.

One engine ``run()`` simulates the paper's channel model to quiescence:

1. every process gets ``on_start`` (round -1, before any transmission);
2. each round executes one TDMA frame: slots fire in order, and each node
   scheduled in the firing slot drains its outbox, one envelope at a time;
3. every transmission is delivered *atomically* to the transmitter's whole
   neighborhood, in global transmission order (reliable local broadcast);
4. the run ends when a round completes with every outbox empty
   (quiescence) or a safety valve (``max_rounds`` / ``max_messages``)
   trips.

Determinism: given the same topology, schedule, processes and crash map,
two runs produce identical traces.  Randomized adversaries draw from their
own seeded generators, never from global state.

State comes in two halves.  The wiring (node order, each node's receivers
and the TDMA slots, all as flat node indices) depends only on the
topology and schedule; one is shared per torus shape under the default
schedule and built per engine otherwise.  Per-trial state (processes,
contexts, the dead mask) lives in lists addressed by those indices, so a
delivery is a list lookup rather than a coordinate hash.

Crash-stop faults live here: a node with ``crash_round[v] = k`` executes
correctly during rounds ``0 .. k-1`` and is inert from round ``k`` on (it
neither transmits -- its outbox is discarded -- nor processes receptions).
``k = 0`` models a node that was dead from the start.  Because the channel
is atomic, there is no "partial broadcast" failure mode to model: each
transmission reaches all neighbors or (if the sender crashed before its
slot) none, which is exactly the paper's crash-stop semantics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import add
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.errors import ConfigurationError
from repro.radio.channel import PERFECT_CHANNEL, ChannelImperfections
from repro.geometry.coords import Coord
from repro.grid.stencil import torus_stencil
from repro.grid.tdma import TDMASchedule, make_schedule
from repro.grid.topology import Topology
from repro.grid.torus import Torus
from repro.radio.messages import Envelope
from repro.radio.node import Context, NodeProcess, SilentProcess, World
from repro.radio.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import EngineObserver
    from repro.obs.profile import PhaseProfiler

_INFINITY = float("inf")


@dataclass
class SimulationResult:
    """Outcome of an engine run.

    ``processes`` and ``contexts`` give post-mortem access to final node
    state; ``quiescent`` distinguishes a clean finish from a safety-valve
    stop.
    """

    rounds: int
    quiescent: bool
    hit_round_limit: bool
    hit_message_limit: bool
    trace: Trace
    processes: Dict[Coord, NodeProcess]
    crash_round: Dict[Coord, int] = field(default_factory=dict)

    def committed(self) -> Dict[Coord, Any]:
        """Map of node -> committed value, for nodes that decided."""
        out: Dict[Coord, Any] = {}
        for node, proc in self.processes.items():
            value = proc.committed_value()
            if value is not None:
                out[node] = value
        return out

    def decided_nodes(self) -> List[Coord]:
        """Nodes that committed to some value."""
        return sorted(n for n, p in self.processes.items() if p.is_decided())

    def undecided_nodes(self) -> List[Coord]:
        """Nodes that never committed."""
        return sorted(n for n, p in self.processes.items() if not p.is_decided())


class _Wiring:
    """Who hears whom and who sends when, on flat node indices.

    The trial-invariant half of an engine, for one topology and schedule:

    - ``nodes``: the canonical nodes in ``topology.neighbor_map()`` order
      (flat order ``x * height + y`` on a torus, i.e. sorted order);
    - ``receivers[i]``: node ``i``'s neighborhood as node indices, in
      ball order;
    - ``slots``: ``schedule.slots`` as node indices, slot order and
      in-slot order kept;
    - ``schedule``: the :class:`~repro.grid.tdma.TDMASchedule` itself;
    - ``index(p)``: the index of node ``p``, or ``None`` when ``p`` is
      not a node as given (a torus wiring reduces ``p`` first).

    It holds nothing a trial creates, so :func:`_torus_wiring` shares
    one per torus shape across engines.
    """

    __slots__ = ("nodes", "receivers", "slots", "schedule", "index")

    def __init__(
        self,
        nodes: List[Coord],
        receivers: List[Tuple[int, ...]],
        schedule: TDMASchedule,
        index: Callable[[Coord], Optional[int]],
    ) -> None:
        for node in nodes:
            if node not in schedule:
                raise ConfigurationError(f"schedule misses node {node}")
        slots = []
        for group in schedule.slots:
            ids = tuple(map(index, group))
            if None in ids:
                stray = group[ids.index(None)]
                raise ConfigurationError(f"schedule names non-node {stray}")
            slots.append(ids)
        self.nodes = nodes
        self.receivers = receivers
        self.slots: Tuple[Tuple[int, ...], ...] = tuple(slots)
        self.schedule = schedule
        self.index = index

    @classmethod
    def of(cls, topology: Topology, schedule: TDMASchedule) -> "_Wiring":
        """The wiring of any finite topology, from its neighbor map."""
        neighbors = topology.neighbor_map()
        position = {node: i for i, node in enumerate(neighbors)}
        at = position.__getitem__
        receivers = [tuple(map(at, ball)) for ball in neighbors.values()]
        return cls(list(neighbors), receivers, schedule, position.get)


@lru_cache(maxsize=4)
def _torus_wiring(width: int, height: int, r: int, metric: str) -> _Wiring:
    """The shared wiring of one torus shape under the default schedule.

    Built from the :class:`~repro.grid.stencil.TorusStencil` tables in
    the order of :meth:`~repro.grid.stencil.TorusStencil.neighbor_map`,
    with every index taken from one ``range`` list so the receiver
    table holds one int object per node.  A coordinate is indexed by
    the stencil's flat arithmetic; no coordinate map is kept.  Keyed by
    plain data (``metric`` is a name), like
    :func:`~repro.grid.stencil.torus_stencil`.
    """
    stencil = torus_stencil(width, height, r, metric)
    at = list(range(stencil.size)).__getitem__
    receivers = [
        tuple(map(at, map(add, xf, yw)))
        for xf in stencil.x_flat
        for yw in stencil.y_wrap
    ]

    def index(p: Coord) -> int:
        # TorusStencil.flat, inline
        return at((int(p[0]) % width) * height + int(p[1]) % height)

    return _Wiring(
        list(product(range(width), range(height))),
        receivers,
        make_schedule(Torus(width, height, r, metric)),
        index,
    )


class Engine:
    """Deterministic synchronous-round radio network simulator."""

    def __init__(
        self,
        topology: Topology,
        processes: Mapping[Coord, NodeProcess],
        *,
        schedule: Optional[TDMASchedule] = None,
        crash_round: Optional[Mapping[Coord, int]] = None,
        max_rounds: int = 10_000,
        max_messages: Optional[int] = None,
        channel: Optional["ChannelImperfections"] = None,
        quiescent_after_idle_rounds: int = 1,
        delivery: str = "immediate",
        observers: Optional[Sequence["EngineObserver"]] = None,
        profiler: Optional["PhaseProfiler"] = None,
    ) -> None:
        """Configure a simulation.

        Parameters
        ----------
        topology:
            A finite topology (typically :class:`~repro.grid.torus.Torus`).
        processes:
            Node -> program.  Nodes of the topology absent from the mapping
            run :class:`~repro.radio.node.SilentProcess` (useful for
            analytic setups); keys not on the topology and ``None``
            programs are an error.  Keys may be non-canonical; when two
            keys name one node, the later one wins.
        schedule:
            TDMA schedule; defaults to
            :func:`repro.grid.tdma.make_schedule`.  It must give every
            node a slot and name no non-node.
        crash_round:
            Crash-stop fault map (see module docstring); keys not on the
            topology are an error.
        max_rounds / max_messages:
            Safety valves.  A tripped valve ends the run with the
            corresponding flag set on the result.
        channel:
            Channel-model deviations (spoofing, jamming, loss,
            retransmission); defaults to the paper's perfect channel.  See
            :mod:`repro.radio.channel`.
        quiescent_after_idle_rounds:
            How many consecutive silent rounds (zero transmissions, all
            live outboxes empty) end the run.  The default (1) suits
            message-driven protocols; raise it when processes schedule
            transmissions for future rounds.
        delivery:
            ``"immediate"`` (default): a transmission is processed by
            receivers within its own slot, so reactions can cascade
            through one TDMA frame (the realistic channel timing).
            ``"end-of-round"``: receptions are buffered and processed at
            the start of the next round -- the classic synchronous-rounds
            model, under which wave/latency measurements count protocol
            *steps* (one pnbd hop per round).  Both modes satisfy every
            ordering/atomicity invariant; only timing granularity differs.
        observers:
            :class:`~repro.obs.metrics.EngineObserver` instances notified
            at transmission / delivery / commit / crash / round points.
            Observers are pure listeners: the simulation computes exactly
            the same run with or without them.  Default: none (and then
            no collector state is allocated).
        profiler:
            A :class:`~repro.obs.profile.PhaseProfiler` accumulating
            wall-clock time per hot-loop phase; ``None`` (default)
            disables profiling at the cost of one ``is not None`` check
            per phase boundary.
        """
        if not topology.is_finite:
            raise ConfigurationError("the engine requires a finite topology")
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.topology = topology
        if schedule or not isinstance(topology, Torus):
            wiring = _Wiring.of(topology, schedule or make_schedule(topology))
        else:
            wiring = _torus_wiring(
                topology.width,
                topology.height,
                topology.r,
                topology.metric.name,
            )
        self._wiring = wiring
        self.schedule = wiring.schedule
        nodes = wiring.nodes
        # per-trial state lives in lists addressed by node index
        procs: List[Optional[NodeProcess]] = [None] * len(nodes)
        for node, proc in processes.items():
            i = self._index_of(node)
            if i is None:
                raise ConfigurationError(f"process given for non-node {node}")
            # explicit None check: a process whose class defines a falsy
            # __bool__/__len__ is still a real process, not a silent node
            if proc is None:
                raise ConfigurationError(f"process given for {node} is None")
            procs[i] = proc
        self._procs: List[NodeProcess] = [
            SilentProcess() if proc is None else proc for proc in procs
        ]
        self.processes: Dict[Coord, NodeProcess] = dict(
            zip(nodes, self._procs)
        )
        crashes: Dict[int, int] = {}
        for node, rnd in (crash_round or {}).items():
            if rnd < 0:
                raise ConfigurationError(
                    f"crash round for {node} must be >= 0, got {rnd}"
                )
            i = self._index_of(node)
            if i is None:
                raise ConfigurationError(
                    f"crash round given for non-node {node}"
                )
            crashes[i] = int(rnd)
        self.crash_round: Dict[Coord, int] = {
            nodes[i]: rnd for i, rnd in crashes.items()
        }
        #: ``(round, node index)`` in round order, drained into ``_dead``
        #: as the rounds reach it
        self._crash_schedule: Deque[Tuple[int, int]] = deque(
            sorted((rnd, i) for i, rnd in crashes.items())
        )
        #: ``_dead[i]`` once node ``i`` has crashed by the current round
        #: (``_is_crashed`` at it); ``_any_dead`` once any has
        self._dead = bytearray(len(nodes))
        self._any_dead = False
        self.max_rounds = max_rounds
        self.max_messages = max_messages
        if quiescent_after_idle_rounds < 1:
            raise ConfigurationError(
                "quiescent_after_idle_rounds must be >= 1, got "
                f"{quiescent_after_idle_rounds}"
            )
        if delivery not in ("immediate", "end-of-round"):
            raise ConfigurationError(
                f'delivery must be "immediate" or "end-of-round", '
                f"got {delivery!r}"
            )
        self.delivery = delivery
        self._pending_deliveries: List[Tuple[Envelope, Tuple[Coord, ...]]] = []
        self.quiescent_after_idle_rounds = quiescent_after_idle_rounds
        self.channel = channel or PERFECT_CHANNEL
        self._loss_rng = (
            self.channel.make_rng() if self.channel.loss_rate > 0 else None
        )
        #: what the contexts reach of the engine (round counter, radius,
        #: torus wrap, channel, jams); no context points back at us
        self._world = World(topology, self.channel)
        self._jammers_this_round: Set[Coord] = self._world.jammers
        self.trace = Trace()
        self._seq = 0
        self._contexts: List[Context] = [
            Context(node, self._world) for node in nodes
        ]
        self._started = False
        self._observers: Tuple["EngineObserver", ...] = tuple(observers or ())
        self._profiler = profiler
        #: nodes whose commit has already been reported to observers
        self._decided: Set[Coord] = set()
        #: nodes whose crash has already been announced (a node dead from
        #: the start would otherwise be announced twice: once in _start,
        #: once when round 0 skips it)
        self._announced_crashes: Set[Coord] = set()

    # ------------------------------------------------------------------

    @property
    def round(self) -> int:
        """Current round (TDMA frame) index; -1 during ``on_start``."""
        return self._world.round

    @round.setter
    def round(self, value: int) -> None:
        self._world.round = value

    def _index_of(self, node: Coord) -> Optional[int]:
        """The index of the node ``node`` names in any coordinate form,
        or ``None`` when it names no node."""
        index = self._wiring.index
        i = index(node)
        return index(self.topology.canonical(node)) if i is None else i

    def context_of(self, node: Coord) -> Context:
        """The context object of a node (post-mortem inspection)."""
        i = self._index_of(node)
        if i is None:
            raise KeyError(node)
        return self._contexts[i]

    def _is_crashed(self, node: Coord, at_round: int) -> bool:
        """Whether ``node`` has crashed by ``at_round``.  The round loop
        and ``_start`` test ``_dead`` instead; this serves the end-of-round
        flush and the quiescence look-ahead."""
        rnd = self.crash_round.get(node)
        return rnd is not None and at_round >= rnd

    def _mark_crashes(self, round_: int) -> None:
        """Mark in ``_dead`` every node crashed by ``round_``."""
        crashes = self._crash_schedule
        while crashes and crashes[0][0] <= round_:
            self._dead[crashes.popleft()[1]] = 1
            self._any_dead = True

    def _announce_crash(self, node: Coord, round_: int) -> None:
        """Record a crash exactly once in the trace and to observers."""
        if node in self._announced_crashes:
            return
        self._announced_crashes.add(node)
        self.trace.on_crash(node, round_)
        for obs in self._observers:
            obs.on_crash(node, round_)

    def _sweep_commits(self) -> None:
        """Report newly committed nodes to observers (observer runs only).

        A process commits inside its own hooks; the engine notices the
        transition by polling ``committed_value`` once per node per
        round, in canonical node order, so commit events are emitted
        deterministically and at round granularity.
        """
        for node, proc in zip(self._wiring.nodes, self._procs):
            if node in self._decided:
                continue
            value = proc.committed_value()
            if value is not None:
                self._decided.add(node)
                for obs in self._observers:
                    obs.on_commit(node, self.round, value)

    def _start(self) -> None:
        self._started = True
        for obs in self._observers:
            obs.on_run_start(self)
        self._mark_crashes(0)
        for ctx, proc, gone in zip(self._contexts, self._procs, self._dead):
            if gone:
                # dead from the start: never runs a single instruction
                self._announce_crash(ctx.node, 0)
                continue
            proc.on_start(ctx)
        if self._observers:
            # commits made during on_start are reported at round -1
            self._sweep_commits()

    def _is_jammed(self, receiver: int) -> bool:
        """Whether node ``receiver`` (an index) is inside any active
        jammer's radius (or is itself jamming -- a transmitting radio
        cannot listen)."""
        wiring = self._wiring
        if wiring.nodes[receiver] in self._jammers_this_round:
            return True
        return any(
            receiver in wiring.receivers[wiring.index(j)]
            for j in sorted(self._jammers_this_round)
        )

    def _transmit(self, node: int, slot: int) -> bool:
        """Drain node ``node``'s (an index) outbox in its slot.  Returns
        False when the message budget tripped; every on-air copy counts
        against it."""
        nodes = self._wiring.nodes
        receivers = self._wiring.receivers[node]
        contexts = self._contexts
        outbox = contexts[node]._outbox
        processes = self._procs
        observers = self._observers
        # observers see coordinates; the channel itself runs on indices
        fanout = tuple(map(nodes.__getitem__, receivers)) if observers else ()
        me = nodes[node]
        trace = self.trace
        limit = self.max_messages
        round_ = self._world.round
        dead = self._dead
        any_dead = self._any_dead
        jammers = self._jammers_this_round
        is_jammed = self._is_jammed
        loss_rng = self._loss_rng
        loss_rate = self.channel.loss_rate
        copies = self.channel.tx_copies
        buffered = self.delivery == "end-of-round"
        prof = self._profiler
        while outbox:
            payload, claimed = outbox.popleft()
            sender = me if claimed is None else claimed
            for _copy in range(copies):
                if limit is not None and trace.transmissions >= limit:
                    return False
                env = Envelope(
                    sender=sender,
                    payload=payload,
                    seq=self._seq,
                    round=round_,
                    slot=slot,
                )
                self._seq += 1
                trace.on_transmission(env, len(receivers))
                for obs in observers:
                    obs.on_transmission(env, fanout)
                if jammers or loss_rng is not None:
                    # dead, then jammed, then one loss draw: the RNG is
                    # drawn only for receivers alive and not jammed
                    survivors = [
                        nb
                        for nb in receivers
                        if not dead[nb]
                        and not (jammers and is_jammed(nb))
                        and (
                            loss_rng is None
                            or loss_rng.random() >= loss_rate
                        )
                    ]
                elif any_dead:
                    survivors = [nb for nb in receivers if not dead[nb]]
                else:
                    survivors = receivers
                if buffered:
                    self._pending_deliveries.append(
                        (env, tuple(map(nodes.__getitem__, survivors)))
                    )
                    continue
                t0 = prof.begin() if prof is not None else 0.0
                if observers:
                    for nb in survivors:
                        receiver = nodes[nb]
                        for obs in observers:
                            obs.on_delivery(receiver, env)
                        nb_ctx = contexts[nb]
                        if not nb_ctx.halted:
                            processes[nb].on_receive(nb_ctx, env)
                else:
                    for nb in survivors:
                        nb_ctx = contexts[nb]
                        if not nb_ctx.halted:
                            processes[nb].on_receive(nb_ctx, env)
                if prof is not None:
                    prof.end("deliver", t0)
        return True

    def _flush_pending_deliveries(self) -> None:
        """End-of-round mode: hand last round's receptions to receivers
        (in global transmission order) before this round's hooks run."""
        pending, self._pending_deliveries = self._pending_deliveries, []
        index = self._wiring.index
        for env, receivers in pending:
            for nb in receivers:
                if self._is_crashed(nb, self.round):
                    continue
                for obs in self._observers:
                    obs.on_delivery(nb, env)
                i = index(nb)
                nb_ctx = self._contexts[i]
                if nb_ctx.halted:
                    continue
                self._procs[i].on_receive(nb_ctx, env)

    def _close_round(self) -> None:
        """Account the current round in the trace and to observers.

        Called for completed frames *and* for frames truncated by the
        message budget: a partially executed round still happened, so
        ``SimulationResult.rounds`` and ``engine.round`` agree either
        way (the budget-stop accounting fix).
        """
        prof = self._profiler
        t0 = prof.begin() if prof is not None else 0.0
        if self._observers:
            self._sweep_commits()
            for obs in self._observers:
                obs.on_round_end(self.round)
        if prof is not None:
            prof.end("observe", t0)
        self.trace.on_round_end(self.round)

    def _run_round(self) -> bool:
        """Execute one TDMA frame.  Returns False if a message-budget stop
        occurred mid-frame."""
        self._jammers_this_round.clear()
        round_ = self.round
        self._mark_crashes(round_)
        dead = self._dead
        contexts = self._contexts
        processes = self._procs
        prof = self._profiler
        for obs in self._observers:
            obs.on_round_start(round_)
        if self._pending_deliveries:
            t0 = prof.begin() if prof is not None else 0.0
            self._flush_pending_deliveries()
            if prof is not None:
                prof.end("deliver", t0)
        t0 = prof.begin() if prof is not None else 0.0
        for ctx, proc, gone in zip(contexts, processes, dead):
            if gone:
                if self.crash_round[ctx.node] == round_:
                    self._announce_crash(ctx.node, round_)
                    ctx._outbox.clear()
                continue
            if not ctx.halted:
                proc.on_round(ctx)
        if prof is not None:
            prof.end("round_hooks", t0)
            t0 = prof.begin()
        for slot, group in enumerate(self._wiring.slots):
            for node in group:
                outbox = contexts[node]._outbox
                if not outbox:
                    continue
                if dead[node]:
                    outbox.clear()
                    continue
                if not self._transmit(node, slot):
                    if prof is not None:
                        prof.end("transmit", t0)
                    self._close_round()
                    return False
        if prof is not None:
            prof.end("transmit", t0)
            t0 = prof.begin()
        for ctx, proc, gone in zip(contexts, processes, dead):
            if not gone and not ctx.halted:
                proc.on_round_end(ctx)
        if prof is not None:
            prof.end("round_end_hooks", t0)
        self._close_round()
        return True

    def _quiescent(self, tx_this_round: int) -> bool:
        """A run is quiescent after a round that transmitted nothing and
        left every live outbox empty.  Requiring zero transmissions (not
        just empty outboxes) keeps timer-driven processes (``on_round``
        producers) running: they get re-invoked until a whole round passes
        in silence."""
        if tx_this_round or self._pending_deliveries:
            return False
        return all(
            not ctx._outbox or self._is_crashed(ctx.node, self.round + 1)
            for ctx in self._contexts
        )

    def run(self) -> SimulationResult:
        """Run to quiescence (or a safety valve) and return the result."""
        if not self._started:
            self._start()
        hit_rounds = False
        hit_messages = False
        quiescent = False
        idle_streak = 0
        while True:
            self.round += 1
            if self.round >= self.max_rounds:
                hit_rounds = True
                self.round -= 1
                break
            tx_before = self.trace.transmissions
            budget_ok = self._run_round()
            if not budget_ok:
                hit_messages = True
                break
            if self._quiescent(self.trace.transmissions - tx_before):
                idle_streak += 1
                if idle_streak >= self.quiescent_after_idle_rounds:
                    quiescent = True
                    break
            else:
                idle_streak = 0
        result = SimulationResult(
            rounds=self.trace.rounds,
            quiescent=quiescent,
            hit_round_limit=hit_rounds,
            hit_message_limit=hit_messages,
            trace=self.trace,
            processes=dict(self.processes),
            crash_round=dict(self.crash_round),
        )
        for obs in self._observers:
            obs.on_run_end(result)
        return result
