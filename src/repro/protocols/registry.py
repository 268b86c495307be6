"""Protocol registry: build process maps by protocol name.

The experiment harness and benches refer to protocols by short names; this
module centralizes the name -> class mapping and the boilerplate of
instantiating one process per correct node (faulty nodes get their
processes from :mod:`repro.faults`).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterable, Mapping, Type

from repro.errors import ConfigurationError
from repro.geometry.coords import Coord
from repro.grid.topology import Topology
from repro.protocols.base import BroadcastProtocolNode
from repro.protocols.bv_earmarked import BVEarmarkedProtocol
from repro.protocols.bv_indirect import BVIndirectProtocol
from repro.protocols.bv_two_hop import BVTwoHopProtocol
from repro.protocols.cpa import CPAProtocol
from repro.protocols.crash_flood import CrashFloodProtocol

PROTOCOLS: Mapping[str, Type[BroadcastProtocolNode]] = MappingProxyType({
    "crash-flood": CrashFloodProtocol,
    "cpa": CPAProtocol,
    "bv-two-hop": BVTwoHopProtocol,
    "bv-indirect": BVIndirectProtocol,
    "bv-earmarked": BVEarmarkedProtocol,
})
"""Short name -> protocol class (read-only: the registry is consulted
from forked sweep workers, so a runtime mutation could diverge between
parent and worker -- the ``fork-safety`` lint pass enforces this)."""


def protocol_names() -> Iterable[str]:
    """All registered protocol names (stable order)."""
    return tuple(PROTOCOLS)


def make_protocol(
    name: str,
    t: int,
    source: Coord,
    source_value: Any = None,
    metric="linf",
    **kwargs: Any,
) -> BroadcastProtocolNode:
    """Instantiate a protocol process by registry name.

    ``kwargs`` pass through to the protocol constructor (e.g.
    ``max_relays`` for ``bv-indirect``).
    """
    return protocol_class(name)(
        t, source, source_value=source_value, metric=metric, **kwargs
    )


def protocol_class(name: str) -> Type[BroadcastProtocolNode]:
    """The registered class of protocol ``name``."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}"
        ) from None


def correct_process_map(
    topology: Topology,
    protocol: str,
    t: int,
    source: Coord,
    value: Any,
    correct_nodes: Iterable[Coord],
    **kwargs: Any,
) -> Dict[Coord, BroadcastProtocolNode]:
    """One protocol process per correct node; the source gets the value.

    Faulty nodes are simply absent from the returned map -- the scenario
    builder overlays their adversarial processes.
    """
    cls = protocol_class(protocol)
    canonical = topology.canonical
    metric = topology.metric
    src = canonical(source)
    processes: Dict[Coord, BroadcastProtocolNode] = {}
    # correct_nodes is typically a set; build in sorted order so the
    # map's iteration order (and any rng consumed per process in the
    # future) cannot depend on hash seeding
    for node in sorted(correct_nodes):
        cn = canonical(node)
        processes[cn] = cls(
            t,
            src,
            source_value=value if cn == src else None,
            metric=metric,
            **kwargs,
        )
    return processes
