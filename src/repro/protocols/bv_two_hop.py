"""The simplified Bhandari-Vaidya protocol (paper, Section VI-B).

"only the immediate neighbors of a node that sent a COMMITTED message
send out a HEARD message reporting it.  Thus, information about the value
committed to by a node propagates only upto its two hop neighborhood.
This suffices to achieve reliable broadcast."

Evidence chains
---------------
For an evaluating node ``P`` and a value ``v``, a chain is either

- ``{N}``: ``P`` heard ``COMMITTED(v)`` from ``N`` directly, or
- ``{N, m}``: ``P`` heard ``HEARD(m, N, v)`` from ``m`` directly
  (``m`` claims ``N`` announced ``v``).

Commit rule: ``P`` commits to ``v`` once ``t + 1`` pairwise node-disjoint
chains for ``v`` all lie within some single neighborhood.  Safety: at most
``t`` of the nodes in that neighborhood are faulty, and every node of a
chain must be faulty-free for the chain to lie about ``v`` -- so disjoint
chains can only be poisoned ``t`` at a time, and one truthful chain means
some *correct* node committed ``v``; by the paper's first-wrong-decision
induction (Theorem 2) that value is the source's.  Liveness: the
completeness construction (Section VI-B's connectivity condition) supplies
``2t + 1`` collectively node-disjoint chains inside one neighborhood, of
which at least ``t + 1`` are faulty-free whenever ``t < r(2r+1)/2``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from repro.geometry.coords import Coord
from repro.protocols.base import (
    BroadcastProtocolNode,
    CommittedMsg,
    HeardMsg,
    SourceMsg,
    hashable_value,
)
from repro.protocols.evidence import CenterIndex
from repro.radio.messages import Envelope
from repro.radio.node import Context


class BVTwoHopProtocol(BroadcastProtocolNode):
    """Two-hop indirect-report protocol achieving ``t < r(2r+1)/2``."""

    def __init__(self, t, source, source_value=None, metric="linf") -> None:
        super().__init__(t, source, source_value, metric)
        self._index: Optional[CenterIndex] = None
        #: first announced value per localized neighbor
        self._announced: Dict[Coord, Any] = {}
        #: (reporter, origin) pairs already recorded (first report wins)
        self._reports_seen: Set[Tuple[Coord, Coord]] = set()

    def _ensure_index(self, ctx: Context) -> CenterIndex:
        if self._index is None:
            self._index = CenterIndex(ctx.r, self.metric)
        return self._index

    # -- message handling ---------------------------------------------------

    def on_receive(self, ctx: Context, env: Envelope) -> None:
        payload = env.payload
        # HEARD reports are nearly all of the traffic, and evidence only
        # matters pre-commit (we never relay HEARDs): settle them first.
        if isinstance(payload, HeardMsg):
            if self._committed is None and hashable_value(payload.value):
                self._on_heard(ctx, env, payload)
            return
        if isinstance(payload, SourceMsg):
            self.handle_source_msg(ctx, env)
            return
        if not hashable_value(getattr(payload, "value", None)):
            return  # malformed Byzantine value: cannot key the evidence index
        if isinstance(payload, CommittedMsg):
            self._on_committed(ctx, env, payload)

    def _on_committed(
        self, ctx: Context, env: Envelope, msg: CommittedMsg
    ) -> None:
        sender = self.note_announcement(ctx, env, self._announced)
        if sender is None:
            return  # duplicity: the first announcement counts
        # Report it for the benefit of two-hop listeners (even after our
        # own commitment -- others may still need the report).
        ctx.broadcast(HeardMsg(origin=env.sender, value=msg.value, relays=()))
        if self._committed is None:
            self._ensure_index(ctx).add(msg.value, frozenset((sender,)))

    def _on_heard(self, ctx: Context, env: Envelope, msg: HeardMsg) -> None:
        if msg.relays:
            return  # deeper relays belong to the 4-hop protocol; ignore
        reporter = ctx.localize(env.sender)
        origin = ctx.localize(msg.origin)
        if origin == reporter or origin == ctx.node:
            return  # self-reports carry no extra evidence
        report = (reporter, origin)
        if report in self._reports_seen:
            return  # first report by this reporter about this origin wins
        index = self._ensure_index(ctx)
        if not self.metric.within(reporter, origin, index.r):
            return  # implausible: reporter could not have heard origin
        self._reports_seen.add(report)
        index.add(msg.value, frozenset((origin, reporter)))

    def evidence_state_size(self) -> int:
        """Announcements plus distinct stored evidence chains."""
        chains = self._index.distinct_chain_count() if self._index else 0
        return len(self._announced) + chains

    # -- commit evaluation ----------------------------------------------------

    def on_round_end(self, ctx: Context) -> None:
        index = self._index
        if self._committed is not None or index is None:
            return
        k = self.t + 1
        for value, center in index.pop_dirty():
            if index.has_packing(value, center, k):
                self.commit(ctx, value)
                return
