"""The full Bhandari-Vaidya indirect-report protocol (paper, Section VI).

Message flow (quoting the protocol):

- the source locally broadcasts the value; its neighbors commit instantly
  and announce ``COMMITTED``;
- on receipt of ``COMMITTED(i, v)`` from neighbor ``i``: record it and
  broadcast ``HEARD(j, i, v)``;
- on receipt of ``HEARD(k, i, v)``: record and broadcast
  ``HEARD(j, k, i, v)``;
- on receipt of ``HEARD(l, k, i, v)``: record and broadcast
  ``HEARD(j, l, k, i, v)``;
- on receipt of ``HEARD(g, l, k, i, v)``: record, do not re-propagate
  (reports travel at most four hops from the committing node);
- on committing, broadcast ``COMMITTED(j, v)`` once.

Commit rule (two-level):

1. **Reliable determination.**  Node ``j`` reliably determines that ``i``
   committed to ``v`` if ``i`` is a neighbor and ``j`` heard the
   announcement directly, or ``j`` holds reports of it along ``t + 1``
   node-disjoint relay paths that -- endpoints ``i`` and ``j`` included --
   all lie within some single neighborhood.  At most ``t`` nodes of that
   neighborhood are faulty, so the ``t + 1`` disjoint paths cannot all be
   poisoned and the determination is always truthful (Theorem 2).
2. **Commitment.**  ``j`` commits to ``v`` once it has reliably determined
   that ``t + 1`` nodes lying in some single neighborhood committed to
   ``v`` -- at least one of them is correct, and correct nodes only commit
   the source value.

Theorem 3's construction shows the topology supplies ``2t + 1``-strength
connectivity whenever ``t < r(2r+1)/2``, making the rule live.

Implementation notes
--------------------
- Relay chains are validated for *plausibility* (consecutive relays must
  be mutual neighbors, the deepest relay must neighbor the origin): nodes
  know the grid, so implausible fabrications are discarded on arrival.
- A locality filter drops reports that could never participate in any
  determination (some chain node or the origin farther than ``2r`` from
  the receiver); the paper's own remark that state can be reduced by
  "earmarking exact messages that a node should look out for" licenses
  much stronger pruning than this.
- Determination evaluation is batched per round end and indexed per
  candidate neighborhood center, so only evidence that actually changed is
  re-examined.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple, Union

from repro.errors import ConfigurationError
from repro.geometry.coords import Coord
from repro.geometry.metrics import Metric
from repro.protocols.base import (
    BroadcastProtocolNode,
    CommittedMsg,
    HeardMsg,
    SourceMsg,
    hashable_value,
)
from repro.protocols.evidence import CenterIndex, covering_centers
from repro.radio.messages import Envelope
from repro.radio.node import Context


class BVIndirectProtocol(BroadcastProtocolNode):
    """Four-hop indirect-report protocol achieving ``t < r(2r+1)/2``."""

    def __init__(
        self,
        t: int,
        source: Coord,
        source_value: Any = None,
        metric: "Union[str, Metric]" = "linf",
        max_relays: int = 3,
        locality_filter: bool = True,
    ) -> None:
        """``max_relays`` is the maximum relay-chain length a report may
        accumulate (3 in the paper: HEARD messages carry up to three
        forwarder identifiers).  ``locality_filter`` enables the
        useless-report pruning described in the module docstring; disable
        it to run the literal protocol text."""
        super().__init__(t, source, source_value, metric)
        if not 1 <= max_relays <= 3:
            raise ConfigurationError(
                f"max_relays must be in 1..3, got {max_relays}"
            )
        self.max_relays = max_relays
        self.locality_filter = locality_filter
        #: first announced value per localized neighbor (duplicity guard)
        self._announced: Dict[Coord, Any] = {}
        #: reliably determined commitments: node -> value (first wins)
        self._determined: Dict[Coord, Any] = {}
        #: relay-path evidence per (origin, value), center-indexed
        self._paths: Optional[CenterIndex] = None
        #: commit-level tallies: (center, value) -> set of determined nodes
        self._commit_support: Dict[Tuple[Coord, Any], Set[Coord]] = {}

    # -- helpers -------------------------------------------------------------

    def _ensure_paths(self, ctx: Context) -> CenterIndex:
        if self._paths is None:
            self._paths = CenterIndex(ctx.r, self.metric)
        return self._paths

    def _plausible_chain(
        self, ctx: Context, chain: Tuple[Coord, ...], origin: Coord
    ) -> bool:
        """Adjacency-validate a localized relay chain ending at ``origin``.

        ``chain[0]`` is the node we physically heard (adjacency with us is
        guaranteed); each consecutive pair must be mutual neighbors and the
        deepest relay must neighbor the claimed origin.
        """
        r = ctx.r
        nodes = set(chain)
        if len(nodes) != len(chain):
            return False  # repeated relays are never produced honestly
        if origin in nodes or ctx.node in nodes or origin == ctx.node:
            return False
        for a, b in zip(chain, chain[1:]):
            if not self.metric.within(a, b, r):
                return False
        return self.metric.within(chain[-1], origin, r)

    def _local_enough(
        self, ctx: Context, chain: Tuple[Coord, ...], origin: Coord
    ) -> bool:
        """Locality filter: a report is useful to us (or to anyone we might
        forward it to) only if every node involved sits within ``2r``."""
        if not self.locality_filter:
            return True
        reach = 2 * ctx.r
        if not self.metric.within(origin, ctx.node, reach):
            return False
        return all(self.metric.within(f, ctx.node, reach) for f in chain)

    # -- message handling ------------------------------------------------------

    def on_receive(self, ctx: Context, env: Envelope) -> None:
        payload = env.payload
        if isinstance(payload, SourceMsg):
            self.handle_source_msg(ctx, env)
            return
        if not hashable_value(getattr(payload, "value", None)):
            return  # malformed Byzantine value: cannot key the evidence maps
        if isinstance(payload, CommittedMsg):
            self._on_committed(ctx, env, payload)
            return
        if isinstance(payload, HeardMsg):
            self._on_heard(ctx, env, payload)

    def _on_committed(
        self, ctx: Context, env: Envelope, msg: CommittedMsg
    ) -> None:
        sender = self.note_announcement(ctx, env, self._announced)
        if sender is None:
            return  # duplicity: first announcement counts
        # Direct hearing is the strongest determination.
        self._determine(ctx, sender, msg.value)
        # Report for indirect listeners (the paper's first HEARD level).
        ctx.broadcast(HeardMsg(origin=env.sender, value=msg.value, relays=()))

    def _on_heard(self, ctx: Context, env: Envelope, msg: HeardMsg) -> None:
        relays_canonical = ((env.sender,) + tuple(msg.relays))
        if len(relays_canonical) > self.max_relays:
            return  # over-deep report: malformed (honest nodes stop earlier)
        chain = tuple(ctx.localize(f) for f in relays_canonical)
        origin = ctx.localize(msg.origin)
        if not self._plausible_chain(ctx, chain, origin):
            return
        if not self._local_enough(ctx, chain, origin):
            return
        if self._committed is None and origin not in self._determined:
            # Record as determination evidence: the covering neighborhood
            # must contain the whole path *including both endpoints*.
            self._ensure_paths(ctx).add(
                (origin, msg.value),
                frozenset(chain),
                anchor_points=(origin, ctx.node),
            )
        if len(chain) < self.max_relays:
            ctx.broadcast(
                HeardMsg(
                    origin=msg.origin,
                    value=msg.value,
                    relays=relays_canonical,
                )
            )

    def evidence_state_size(self) -> int:
        """Announcements, determinations and distinct stored relay
        chains."""
        chains = self._paths.distinct_chain_count() if self._paths else 0
        return len(self._announced) + len(self._determined) + chains

    # -- determination and commitment -------------------------------------------

    def _determine(self, ctx: Context, node: Coord, value: Any) -> None:
        """Record a reliable determination and update commit tallies."""
        if node in self._determined:
            return  # determinations are truthful; the first one stands
        self._determined[node] = value
        for center in covering_centers((node,), ctx.r, self.metric):
            support = self._commit_support.setdefault((center, value), set())
            support.add(node)
            if self._committed is None and len(support) >= self.t + 1:
                self.commit(ctx, value)

    def on_round_end(self, ctx: Context) -> None:
        if self._paths is None:
            return
        if self._committed is not None:
            self._paths.pop_dirty()  # drop stale work; we only relay now
            return
        k = self.t + 1
        for (origin, value), center in self._paths.pop_dirty():
            if origin in self._determined:
                continue
            if self._paths.has_packing((origin, value), center, k):
                self._determine(ctx, origin, value)
