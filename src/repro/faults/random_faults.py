"""Random fault placement.

Two distinct random models:

- :func:`iid_failures` -- Section XI's model: every node fails
  independently with probability ``p_f``.  This placement does **not**
  respect the locally-bounded budget (that is the point: it is the
  percolation regime);
- :func:`random_bounded_placement` -- a random placement that *does*
  respect the ``t``-per-neighborhood budget, for averaging protocol
  behavior over many adversarial layouts rather than just the worst-case
  constructions.
"""

from __future__ import annotations

import random
from typing import Optional, Set

from repro.exec.seeds import derive_seed
from repro.faults.placement import _greedy_on_mask, greedy_random_placement
from repro.geometry.coords import Coord
from repro.grid.topology import Topology


def iid_failures(
    topology: Topology,
    p_fail: float,
    rng: Optional[random.Random] = None,
    protect: Coord = (0, 0),
) -> Set[Coord]:
    """Independent failures with probability ``p_fail`` per node.

    The designated source (``protect``) never fails -- broadcast from a
    dead source is vacuous.
    """
    if not 0.0 <= p_fail <= 1.0:
        raise ValueError(f"p_fail must be in [0, 1], got {p_fail}")
    if rng is None:
        rng = random.Random(
            derive_seed(0, "repro.faults.random_faults.iid_failures", 0)
        )
    src = topology.canonical(protect)
    return {
        node
        for node in topology.nodes()
        if node != src and rng.random() < p_fail
    }


def random_bounded_placement(
    topology: Topology,
    t: int,
    rng: Optional[random.Random] = None,
    protect: Coord = (0, 0),
    target_count: Optional[int] = None,
) -> Set[Coord]:
    """A random maximal placement respecting the ``t`` budget.

    ``protect`` (the source) is never chosen.  With ``target_count`` the
    placement stops early once that many faults are placed.
    """
    if rng is None:
        rng = random.Random(
            derive_seed(
                0, "repro.faults.random_faults.random_bounded_placement", 0
            )
        )
    stencil = topology.ball_stencil(topology.r, topology.metric)
    if stencil is not None:
        # the flat indices of ``Torus.nodes()``, y outer and x inner: the
        # shuffle permutes positions, so this order fixes the placement
        h, src = stencil.height, stencil.flat(protect)
        order = [
            i for y in range(h) for i in range(y, stencil.size, h) if i != src
        ]
        return _greedy_on_mask(order, t, stencil, rng, target_count)
    src = topology.canonical(protect)
    candidates = [n for n in topology.nodes() if n != src]
    return greedy_random_placement(
        candidates,
        t,
        topology.r,
        metric=topology.metric,
        topology=topology,
        rng=rng,
        target_count=target_count,
    )
