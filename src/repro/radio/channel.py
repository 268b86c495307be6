"""Channel imperfections: the knobs Section X talks about.

The paper's results assume a *perfect* channel: no address spoofing, no
collisions, loss-free reliable local broadcast.  Section X discusses what
breaks when those assumptions fall; this module makes the discussion
executable.  A :class:`ChannelImperfections` object configures the
engine with any mix of:

- **spoofing** (``allow_spoofing``): Byzantine processes may stamp a
  forged sender on their transmissions
  (:meth:`repro.radio.node.Context.broadcast_as`).  With the default
  (``False``) the engine *enforces* the paper's assumption: a forgery
  attempt raises :class:`~repro.errors.SpoofingError`.
- **deliberate collisions** (``allow_jamming``): a process may jam its
  neighborhood for the current round (:meth:`Context.jam`): every
  receiver within its radius hears only noise.  ``max_jam_rounds_per_node``
  bounds the attack (the paper: with *bounded* collisions, retransmission
  recovers; unbounded collisions make broadcast impossible).
- **random loss** (``loss_rate``): each (transmission, receiver) delivery
  is independently dropped -- the "probabilistic local broadcast" regime
  the paper sketches for real wireless channels.  ``tx_copies``
  retransmits every payload that many times, the standard counter-measure
  (per-receiver delivery probability becomes ``1 - loss_rate**tx_copies``).

Determinism: loss draws come from a private generator seeded by ``seed``,
so runs remain reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ChannelImperfections:
    """Configuration of channel-model deviations (all off by default)."""

    allow_spoofing: bool = False
    allow_jamming: bool = False
    loss_rate: float = 0.0
    tx_copies: int = 1
    seed: int = 0
    max_jam_rounds_per_node: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if self.tx_copies < 1:
            raise ConfigurationError(
                f"tx_copies must be >= 1, got {self.tx_copies}"
            )
        if (
            self.max_jam_rounds_per_node is not None
            and self.max_jam_rounds_per_node < 0
        ):
            raise ConfigurationError("max_jam_rounds_per_node must be >= 0")

    @property
    def is_perfect(self) -> bool:
        """Whether this configuration equals the paper's ideal channel."""
        return (
            not self.allow_spoofing
            and not self.allow_jamming
            and self.loss_rate == 0.0
            and self.tx_copies == 1
        )

    def make_rng(self) -> random.Random:
        """The private loss generator for one engine run.

        Seeded through :func:`repro.exec.seeds.derive_seed` so the loss
        stream is process-independent and statistically unrelated to any
        scenario stream sharing the same integer seed.
        """
        from repro.exec.seeds import derive_seed

        return random.Random(derive_seed(self.seed, "channel-loss", 0))


PERFECT_CHANNEL = ChannelImperfections()
"""The paper's channel: the engine default."""
