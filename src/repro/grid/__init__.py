"""Grid network substrate: topologies, neighborhoods, and TDMA schedules.

The paper's network is the infinite unit grid (or a finite torus, which
eliminates boundary anomalies).  This package provides:

- :mod:`repro.grid.topology` -- the :class:`~repro.grid.topology.Topology`
  interface and the analytically-handled infinite grid;
- :mod:`repro.grid.torus` -- the finite torus used for simulation;
- :mod:`repro.grid.neighborhoods` -- ``nbd`` / ``pnbd`` helpers matching
  the paper's Section IV notation;
- :mod:`repro.grid.tdma` -- collision-free TDMA schedules (Section II
  assumes one exists; we construct it);
- :mod:`repro.grid.graphs` -- adjacency-structure exports for the analysis
  layer.
"""

from repro.grid.topology import Topology, InfiniteGrid
from repro.grid.torus import Torus
from repro.grid.bounded import BoundedGrid
from repro.grid.factory import TOPOLOGY_KINDS, make_topology
from repro.grid.neighborhoods import nbd, pnbd, pnbd_frontier, nbd_centers_covering
from repro.grid.tdma import (
    TDMASchedule,
    grid_coloring_schedule,
    sequential_schedule,
    make_schedule,
    validate_schedule,
)
from repro.grid.graphs import adjacency_map, induced_adjacency, connected_components

__all__ = [
    "Topology",
    "InfiniteGrid",
    "Torus",
    "BoundedGrid",
    "TOPOLOGY_KINDS",
    "make_topology",
    "nbd",
    "pnbd",
    "pnbd_frontier",
    "nbd_centers_covering",
    "TDMASchedule",
    "grid_coloring_schedule",
    "sequential_schedule",
    "make_schedule",
    "validate_schedule",
    "adjacency_map",
    "induced_adjacency",
    "connected_components",
]
