"""Shared protocol message types and the protocol node base class.

Message vocabulary (paper, Section VI):

- :class:`SourceMsg` -- the designated source's initial local broadcast;
- :class:`CommittedMsg` -- ``COMMITTED(i, v)``: node ``i`` announces it
  committed to ``v``.  The announcing node's identity is *not* carried in
  the payload: receivers take it from the engine-stamped envelope sender,
  which is unforgeable under the paper's no-spoofing assumption.
- :class:`HeardMsg` -- ``HEARD(j, ..., i, v)``: a relayed report that
  ``i`` committed to ``v``.  The outermost relay is again the envelope
  sender; ``relays`` holds the *earlier* relays innermost-last, so a
  receiver reconstructs the full relay chain as ``(sender,) + relays``
  (nearest relay first, the relay that heard ``i`` directly last).

All coordinates inside payloads are canonical topology coordinates;
receivers localize them (:meth:`repro.radio.node.Context.localize`) before
doing geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple, Union

from repro.errors import ConfigurationError
from repro.geometry.coords import Coord
from repro.geometry.metrics import Metric, get_metric
from repro.radio.messages import Envelope
from repro.radio.node import Context, NodeProcess


@dataclass(frozen=True)
class SourceMsg:
    """The source's one-time local broadcast of the value."""

    value: Any


@dataclass(frozen=True)
class CommittedMsg:
    """``COMMITTED(i, v)`` with ``i`` = the (unforgeable) envelope sender."""

    value: Any


@dataclass(frozen=True)
class HeardMsg:
    """A relayed report that ``origin`` committed to ``value``.

    ``relays`` lists earlier relays, nearest-to-the-transmitter first;
    the transmitter itself is the envelope sender and is *not* repeated in
    the payload.  A receiver's full relay chain is ``(env.sender,) +
    relays`` and its claim is: ``relays[-1]`` (or the transmitter, when
    ``relays`` is empty) heard ``origin`` broadcast ``COMMITTED(value)``
    directly.
    """

    origin: Coord
    value: Any
    relays: Tuple[Coord, ...] = ()


def hashable_value(value: Any) -> bool:
    """Whether ``value`` can key a tally / evidence dict.

    Byzantine processes may announce arbitrary payload values, including
    unhashable ones (lists, dicts, sets).  Every protocol counts
    announcements in dicts keyed by the announced value, so a malformed
    value must be dropped at the receive boundary -- treated exactly like
    any other garbage transmission -- instead of raising ``TypeError``
    deep inside the tally bookkeeping and killing the whole run.  Dropped
    values do not consume the sender's first-announcement slot: a later
    well-formed announcement from the same sender still counts.
    """
    try:
        hash(value)
    except TypeError:
        return False
    return True


class BroadcastProtocolNode(NodeProcess):
    """Common machinery for all broadcast protocol implementations.

    Parameters
    ----------
    t:
        The locally-bounded fault budget the protocol must tolerate.
    source:
        Canonical coordinate of the designated source.  Nodes know it (the
        paper places it at the origin w.l.o.g.).
    source_value:
        Set only on the source's own process: the value to broadcast.
    metric:
        Distance metric; must match the topology the node runs on.

    Subclasses implement message handling and call :meth:`commit` exactly
    once; the base class then performs the one-time ``COMMITTED``
    broadcast.
    """

    def __init__(
        self,
        t: int,
        source: Coord,
        source_value: Any = None,
        metric: Union[str, Metric] = "linf",
    ) -> None:
        if t < 0:
            raise ConfigurationError(f"fault budget t must be >= 0, got {t}")
        self.t = int(t)
        self.source = (int(source[0]), int(source[1]))
        self.source_value = source_value
        self.metric: Metric = get_metric(metric)
        self._committed: Optional[Any] = None
        self._commit_round: Optional[int] = None
        #: neighbors caught announcing two different values (Section V:
        #: on a broadcast channel "duplicity would stand detected")
        self.detected_duplicity: Set[Coord] = set()

    # -- introspection -----------------------------------------------------

    def committed_value(self) -> Optional[Any]:
        """The committed value, or ``None`` while undecided."""
        return self._committed

    @property
    def commit_round(self) -> Optional[int]:
        """Round in which this node committed (−1 = during start)."""
        return self._commit_round

    # -- lifecycle ---------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        if self.is_source(ctx):
            if self.source_value is None:
                raise ConfigurationError(
                    f"source node {ctx.node} has no source_value"
                )
            ctx.broadcast(SourceMsg(self.source_value))
            self.commit(ctx, self.source_value)

    def is_source(self, ctx: Context) -> bool:
        """Whether this process runs on the designated source."""
        return ctx.is_at(self.source)

    def evidence_state_size(self) -> int:
        """Units of evidence this node currently stores (protocol-defined:
        announcements, chains, determinations).  The protocol-cost bench
        compares these across protocols -- the paper's 'state may be
        reduced by earmarking' claim, measured."""
        return 0

    def commit(self, ctx: Context, value: Any) -> None:
        """Commit to ``value`` (idempotent; the first commitment wins) and
        broadcast ``COMMITTED`` once."""
        if self._committed is not None:
            return
        self._committed = value
        self._commit_round = ctx.round
        ctx.broadcast(CommittedMsg(value))
        self.on_commit(ctx, value)

    def on_commit(self, ctx: Context, value: Any) -> None:
        """Subclass hook run right after committing."""

    # -- shared receive plumbing -------------------------------------------

    def sender_is_source(self, ctx: Context, env: Envelope) -> bool:
        """Whether the envelope was transmitted by the designated source."""
        return ctx.localize(env.sender) == ctx.localize(self.source)

    def note_announcement(
        self, ctx: Context, env: Envelope, first_values: Dict[Coord, Any]
    ) -> Optional[Coord]:
        """Record a ``COMMITTED`` announcement with duplicity detection.

        ``first_values`` is the protocol's first-announcement map (keyed
        by localized sender).  Returns the localized sender when this is
        its *first* announcement (the one that counts); returns ``None``
        for repeats -- flagging the sender in :attr:`detected_duplicity`
        when the repeat contradicts the first value (the broadcast channel
        makes the lie visible to every neighbor simultaneously).
        """
        sender = ctx.localize(env.sender)
        value = env.payload.value
        if sender in first_values:
            if first_values[sender] != value:
                self.detected_duplicity.add(sender)
            return None
        first_values[sender] = value
        return sender

    def handle_source_msg(self, ctx: Context, env: Envelope) -> bool:
        """Commit on a genuine direct source transmission.

        Returns ``True`` when the envelope was a source message (whether or
        not it led to a commit), so subclasses can dispatch simply.  A
        ``SourceMsg`` from anyone but the true source is adversarial noise
        and is ignored.
        """
        if not isinstance(env.payload, SourceMsg):
            return False
        if self.sender_is_source(ctx, env):
            self.commit(ctx, env.payload.value)
        return True
