"""The topology factor: named kinds -> concrete :class:`Topology` objects.

Scenario specifications name their topology by *kind* (a plain string
that can sit in a frozen dataclass and a JSON cache key) and materialize
it here:

- ``"torus"`` -- :class:`~repro.grid.torus.Torus`: the paper's
  boundary-free simulation substrate (the default everywhere);
- ``"bounded"`` -- :class:`~repro.grid.bounded.BoundedGrid`: real
  boundaries, truncated corner neighborhoods.

Both kinds are fully determined by ``(side, r, metric)``, so the
run-table harness can treat the topology as one orthogonal factor.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.grid.bounded import BoundedGrid
from repro.grid.topology import Topology
from repro.grid.torus import Torus

#: the topology-factor levels, in documentation order
TOPOLOGY_KINDS = ("torus", "bounded")


def make_topology(kind: str, side: int, r: int, metric="linf") -> Topology:
    """Materialize a square topology of the named ``kind``."""
    if kind == "torus":
        return Torus.square(side, r, metric)
    if kind == "bounded":
        return BoundedGrid.square(side, r, metric)
    raise ConfigurationError(
        f"unknown topology kind {kind!r}; expected one of {TOPOLOGY_KINDS}"
    )
