"""Declarative broadcast scenarios.

A :class:`BroadcastScenario` bundles everything one simulated broadcast
needs -- topology, protocol, fault placement, adversary behavior -- and
produces a graded :class:`~repro.radio.run.BroadcastOutcome`.  The two
builders cover the experiment axes of the paper:

- :func:`byzantine_broadcast_scenario`: Byzantine faults placed by a named
  scheme (the half-density strip construction, random budget-respecting
  placements, or an explicit caller-supplied fault set) running a named
  strategy;
- :func:`crash_broadcast_scenario`: crash faults placed by the full-strip
  construction, randomly, or explicitly; dead-from-start or staggered.

The ``placement="explicit"`` mode (``faults=...``) exists for the
adversary search engine (:mod:`repro.adversary`): candidate placements
are evaluated by round-tripping them through the same builders every
other experiment uses, so a searched counterexample replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import AbstractSet, Any, Dict, Iterable, Mapping, Optional, Set

from repro.errors import ConfigurationError
from repro.faults.byzantine import make_byzantine
from repro.faults.constructions import (
    torus_byzantine_strip,
    torus_crash_partition,
)
from repro.faults.crash import dead_from_start, staggered_crashes
from repro.faults.placement import trim_to_budget, validate_placement
from repro.faults.random_faults import random_bounded_placement
from repro.geometry.coords import Coord
from repro.geometry.metrics import get_metric
from repro.grid.factory import TOPOLOGY_KINDS, make_topology
from repro.grid.topology import Topology
from repro.grid.torus import Torus
from repro.protocols.registry import _process_map, correct_process_map
from repro.radio.engine import shared_node_order
from repro.radio.engines import validate_engine
from repro.radio.node import NodeProcess
from repro.radio.run import BroadcastOutcome, _run_graded


def recommended_torus(r: int, metric="linf", slack: int = 0) -> Torus:
    """A square torus large enough that protocol geometry never wraps
    ambiguously: side ``max(4r + 3, 6r + 1) + slack``.

    ``4r + 3`` keeps four-hop relay halos from self-intersecting;
    ``6r + 1`` makes every local unwrap (points up to ``3r`` away) unique.
    """
    side = max(4 * r + 3, 6 * r + 1) + max(0, slack)
    return Torus.square(side, r, metric)


def strip_torus(r: int, metric="linf", slack: int = 0) -> Torus:
    """A torus wide enough for the two-strip impossibility constructions:
    two width-``r`` strips plus two bands of width ``>= 2r + 2`` (so the
    far band holds nodes outside both strips' reach)."""
    side = max(6 * r + 5, 6 * r + 1, 4 * r + 3) + max(0, slack)
    return Torus.square(side, r, metric)


@dataclass
class BroadcastScenario:
    """A fully specified broadcast experiment.

    ``byzantine_processes`` maps faulty nodes to adversarial processes;
    ``crash_round`` maps crashing nodes to their crash rounds.  A node must
    not appear in both.  A built scenario holds both canonicalized and
    read-only.
    """

    topology: Topology
    protocol: str
    t: int
    value: Any = 1
    source: Coord = (0, 0)
    byzantine_processes: Mapping[Coord, NodeProcess] = field(
        default_factory=dict
    )
    crash_round: Mapping[Coord, int] = field(default_factory=dict)
    max_rounds: int = 200
    max_messages: Optional[int] = None
    protocol_kwargs: Dict[str, Any] = field(default_factory=dict)
    channel: Optional[Any] = None  # ChannelImperfections; None = perfect
    delivery: str = "immediate"  # or "end-of-round" (synchronous steps)
    #: simulation backend: "reference" (per-node objects) or "fastpath"
    #: (vectorized kernels, see :mod:`repro.radio.fastpath`).  The two
    #: are observationally identical wherever fastpath is supported, so
    #: the choice never changes results -- only wall-clock.
    engine: str = "reference"

    def __post_init__(self) -> None:
        validate_engine(self.engine)
        canon = self.topology.canonical
        self.source = canon(self.source)
        byzantine = {canon(n): p for n, p in self.byzantine_processes.items()}
        crash_round = {canon(n): r for n, r in self.crash_round.items()}
        overlap = set(byzantine) & set(crash_round)
        if overlap:
            raise ConfigurationError(
                f"nodes {sorted(overlap)} are both Byzantine and crashing"
            )
        # taken from the dicts, whose stored hashes a set reuses; a set
        # built from a read-only view hashes every coordinate again
        self._faulty = frozenset(byzantine).union(crash_round)
        if self.source in self._faulty:
            raise ConfigurationError("the designated source must be correct")
        # read-only, so what run() trusts of them holds for the life of
        # the scenario; dataclasses.replace builds a changed one
        self.byzantine_processes = MappingProxyType(byzantine)
        self.crash_round = MappingProxyType(crash_round)

    @property
    def faulty_nodes(self) -> Set[Coord]:
        """All faulty (Byzantine or crashing) nodes."""
        return set(self._faulty)

    @property
    def correct_nodes(self) -> Set[Coord]:
        """All nodes the outcome grading quantifies over."""
        faulty = self.faulty_nodes
        return {n for n in self.topology.nodes() if n not in faulty}

    def validate(self) -> None:
        """Check the fault placement against the ``t`` budget."""
        validate_placement(
            self.faulty_nodes,
            self.t,
            self.topology.r,
            metric=self.topology.metric,
            topology=self.topology,
        )

    def run(
        self,
        observers=None,
        profiler=None,
    ) -> BroadcastOutcome:
        """Simulate and grade.

        ``observers`` / ``profiler`` attach :mod:`repro.obs`
        instrumentation to the underlying engine; both default to off.
        """
        if self.engine == "fastpath":
            # imported lazily: the fastpath stack (and numpy) is an
            # optional dependency the reference path never touches
            from repro.radio.fastpath import run_fastpath_broadcast

            return run_fastpath_broadcast(
                self, observers=observers, profiler=profiler
            )
        order = shared_node_order(self.topology)
        correct: AbstractSet[Coord]
        if order is None:
            correct = self.correct_nodes
            processes: Dict[Coord, NodeProcess] = (
                self.byzantine_processes.copy()
            )
            processes.update(
                correct_process_map(
                    self.topology,
                    self.protocol,
                    self.t,
                    self.source,
                    self.value,
                    correct,
                    **self.protocol_kwargs,
                )
            )
        else:
            # one pass in the engine's node order, which the engine takes
            # whole; the read-only maps of __post_init__ are canonical, so
            # each node is looked up as it stands
            processes, correct = _process_map(
                self.protocol,
                self.t,
                self.source,
                self.value,
                self.topology.metric,
                order,
                self.byzantine_processes,
                self.crash_round,
                **self.protocol_kwargs,
            )
        # __post_init__ canonicalized the fault maps, so ``correct`` is
        # canonical and disjoint from the crash map: run_broadcast's
        # checks hold by construction
        return _run_graded(
            self.topology,
            processes,
            self.value,
            correct,
            crash_round=self.crash_round,
            max_rounds=self.max_rounds,
            max_messages=self.max_messages,
            channel=self.channel,
            delivery=self.delivery,
            observers=observers,
            profiler=profiler,
        )


def _resolve_topology(
    r: int,
    metric,
    placement: str,
    torus: Optional[Torus],
    torus_side: Optional[int],
    topology_kind: str = "torus",
) -> Topology:
    """The topology a scenario runs on.

    Either an explicit ``torus`` object (the legacy escape hatch: any
    pre-built topology wins, but its ``r`` and metric must be the
    scenario's), or a square topology of the named
    ``topology_kind`` (see :data:`repro.grid.factory.TOPOLOGY_KINDS`)
    with side ``torus_side`` or the placement-appropriate default (strip
    constructions need the wider two-strip torus).
    """
    if torus is not None:
        if topology_kind != "torus":
            raise ConfigurationError(
                f"pass either an explicit topology object or "
                f"topology_kind={topology_kind!r}, not both"
            )
        if torus_side is not None and torus.width != torus_side:
            raise ConfigurationError(
                f"both torus ({torus.width} wide) and torus_side="
                f"{torus_side} given; pass one"
            )
        if torus.r != r:
            raise ConfigurationError(
                f"torus has r={torus.r} but the scenario asks for r={r}"
            )
        wanted = get_metric(metric).name
        if torus.metric.name != wanted:
            raise ConfigurationError(
                f"torus has metric={torus.metric.name!r} but the scenario "
                f"asks for metric={wanted!r}"
            )
        return torus
    if topology_kind not in TOPOLOGY_KINDS:
        raise ConfigurationError(
            f"unknown topology kind {topology_kind!r}; expected one of "
            f"{TOPOLOGY_KINDS}"
        )
    if placement == "strip" and topology_kind != "torus":
        raise ConfigurationError(
            'placement="strip" uses the toroidal two-strip construction '
            f"and is torus-only, got topology {topology_kind!r}; use "
            'placement="random" or "explicit"'
        )
    if torus_side is not None:
        side = torus_side
    elif placement in ("strip", "explicit"):
        side = strip_torus(r, metric).width
    else:
        side = recommended_torus(r, metric).width
    return make_topology(topology_kind, side, r, metric)


def _explicit_faults(
    faults: Optional[Iterable[Coord]], topology: Topology
) -> Set[Coord]:
    """Canonicalize a caller-supplied fault set for ``explicit`` mode."""
    if faults is None:
        raise ConfigurationError(
            'placement="explicit" needs faults=<iterable of coordinates>'
        )
    out = {topology.canonical(tuple(f)) for f in faults}
    missing = sorted(q for q in out if not topology.contains(q))
    if missing:
        raise ConfigurationError(
            f"explicit faults {missing} host no node on {topology!r}"
        )
    return out


def _reject_stray_faults(
    faults: Optional[Iterable[Coord]], placement: str
) -> None:
    """Refuse a ``faults=`` argument that ``placement`` would ignore."""
    if faults is not None and placement != "explicit":
        raise ConfigurationError(
            f'faults=... only makes sense with placement="explicit", '
            f"got placement={placement!r}"
        )


def byzantine_broadcast_scenario(
    r: int,
    t: int,
    protocol: str = "bv-two-hop",
    strategy: str = "fabricator",
    placement: str = "strip",
    metric="linf",
    value: Any = 1,
    seed: int = 0,
    torus: Optional[Torus] = None,
    torus_side: Optional[int] = None,
    faults: Optional[Iterable[Coord]] = None,
    enforce_budget: bool = True,
    max_rounds: int = 200,
    engine: str = "reference",
    topology_kind: str = "torus",
    **protocol_kwargs: Any,
) -> BroadcastScenario:
    """Build a Byzantine broadcast experiment.

    Parameters
    ----------
    placement:
        ``"strip"`` -- the half-density two-strip construction, trimmed to
        the budget ``t`` (the paper's worst case); ``"random"`` -- a random
        maximal budget-respecting placement; ``"explicit"`` -- the exact
        fault set passed as ``faults`` (the adversary-search evaluation
        path).
    strategy:
        A name from :data:`repro.faults.byzantine.BYZANTINE_STRATEGIES`.
    torus_side:
        Side of the square topology to run on (mutually exclusive with
        ``torus``); defaults to the placement-appropriate recommendation.
    enforce_budget:
        Trim the placement down to the budget.  Disable to *exceed* the
        budget deliberately (impossibility demonstrations run the strip at
        ``t`` equal to the bound while telling the protocol the same
        ``t``), or to trust a placement already maintained under budget
        (explicit placements from :mod:`repro.adversary`).  A random
        placement is valid by construction and is never trimmed.
    topology_kind:
        A :data:`~repro.grid.factory.TOPOLOGY_KINDS` level; the strip
        placement is torus-only (the construction wraps).
    """
    _reject_stray_faults(faults, placement)
    topology = _resolve_topology(
        r, metric, placement, torus, torus_side, topology_kind
    )
    source = (0, 0)
    rng = random.Random(seed)
    if placement == "strip":
        faults = torus_byzantine_strip(topology, source)
    elif placement == "random":
        faults = random_bounded_placement(
            topology, t, rng=rng, protect=source
        )
    elif placement == "explicit":
        faults = _explicit_faults(faults, topology)
    else:
        raise ConfigurationError(
            f"unknown placement {placement!r}; expected "
            '"strip", "random", or "explicit"'
        )
    if enforce_budget and placement != "random":
        faults = trim_to_budget(
            faults, t, r, metric=topology.metric, topology=topology, rng=rng
        )
    wrong = 1 - value if isinstance(value, int) else None
    byz = {
        node: make_byzantine(strategy, wrong, metric=topology.metric, seed=seed + i)
        for i, node in enumerate(sorted(faults))
    }
    return BroadcastScenario(
        topology=topology,
        protocol=protocol,
        t=t,
        value=value,
        source=source,
        byzantine_processes=byz,
        max_rounds=max_rounds,
        protocol_kwargs=protocol_kwargs,
        engine=engine,
    )


def mixed_broadcast_scenario(
    r: int,
    t: int,
    byzantine_fraction: float = 0.5,
    protocol: str = "bv-two-hop",
    strategy: str = "fabricator",
    placement: str = "strip",
    metric="linf",
    value: int = 1,
    seed: int = 0,
    torus: Optional[Torus] = None,
    enforce_budget: bool = True,
    max_rounds: int = 200,
    **protocol_kwargs: Any,
) -> BroadcastScenario:
    """A mixed-fault experiment: the budget ``t`` is shared between
    Byzantine nodes (running ``strategy``) and crash-stop nodes (dead from
    the start).

    The locally-bounded model counts *all* faults against the same
    budget, and crash faults are strictly weaker than Byzantine ones
    (a crashed node is a silent adversary), so every guarantee proved for
    ``t`` Byzantine faults must survive any mix -- which the mixed tests
    verify.
    """
    if not 0.0 <= byzantine_fraction <= 1.0:
        raise ConfigurationError(
            f"byzantine_fraction must be in [0, 1], got {byzantine_fraction}"
        )
    base = byzantine_broadcast_scenario(
        r=r,
        t=t,
        protocol=protocol,
        strategy=strategy,
        placement=placement,
        metric=metric,
        value=value,
        seed=seed,
        torus=torus,
        enforce_budget=enforce_budget,
        max_rounds=max_rounds,
        **protocol_kwargs,
    )
    rng = random.Random(seed ^ 0x5EED)
    faulty = sorted(base.byzantine_processes)
    rng.shuffle(faulty)
    keep_byzantine = int(round(len(faulty) * byzantine_fraction))
    byzantine_nodes = set(faulty[:keep_byzantine])
    crash_nodes = set(faulty[keep_byzantine:])
    return BroadcastScenario(
        topology=base.topology,
        protocol=protocol,
        t=t,
        value=value,
        source=base.source,
        byzantine_processes={
            n: p
            for n, p in base.byzantine_processes.items()
            if n in byzantine_nodes
        },
        crash_round={n: 0 for n in crash_nodes},
        max_rounds=max_rounds,
        protocol_kwargs=dict(protocol_kwargs),
    )


def crash_broadcast_scenario(
    r: int,
    t: int,
    placement: str = "strip",
    metric="linf",
    value: Any = 1,
    seed: int = 0,
    torus: Optional[Torus] = None,
    torus_side: Optional[int] = None,
    faults: Optional[Iterable[Coord]] = None,
    enforce_budget: bool = True,
    staggered_max_round: Optional[int] = None,
    max_rounds: int = 200,
    protocol: str = "crash-flood",
    engine: str = "reference",
    topology_kind: str = "torus",
) -> BroadcastScenario:
    """Build a crash-stop broadcast experiment.

    ``placement="strip"`` uses the Theorem 4 two-strip partition; trimmed
    to the budget when ``enforce_budget`` (yielding the Theorem 5
    achievable regime), untrimmed otherwise (the impossibility regime).
    ``placement="random"`` is valid by construction and never trimmed.
    ``placement="explicit"`` runs the exact ``faults`` set (the
    adversary-search evaluation path); ``torus_side`` picks the square
    topology side.  ``staggered_max_round`` switches from dead-from-start
    to random crash rounds.  ``topology_kind`` picks the topology factor
    level (the strip placement is torus-only).
    """
    _reject_stray_faults(faults, placement)
    topology = _resolve_topology(
        r, metric, placement, torus, torus_side, topology_kind
    )
    source = (0, 0)
    rng = random.Random(seed)
    if placement == "strip":
        faults = torus_crash_partition(topology, source)
    elif placement == "random":
        faults = random_bounded_placement(topology, t, rng=rng, protect=source)
    elif placement == "explicit":
        faults = _explicit_faults(faults, topology)
    else:
        raise ConfigurationError(
            f"unknown placement {placement!r}; expected "
            '"strip", "random", or "explicit"'
        )
    if enforce_budget and placement != "random":
        faults = trim_to_budget(
            faults, t, r, metric=topology.metric, topology=topology, rng=rng
        )
    if staggered_max_round is None:
        crash_round = dead_from_start(faults)
    else:
        crash_round = staggered_crashes(faults, staggered_max_round, rng)
    return BroadcastScenario(
        topology=topology,
        protocol=protocol,
        t=t,
        value=value,
        source=source,
        crash_round=crash_round,
        max_rounds=max_rounds,
        engine=engine,
    )
