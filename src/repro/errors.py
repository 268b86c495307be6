"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library signals with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A simulation, protocol, or experiment was configured inconsistently.

    Examples: a torus too small for the transmission radius, a negative
    fault budget, or a protocol attached to a node that already runs one.
    """


class InvalidPlacementError(ReproError):
    """A fault placement violates the locally bounded adversary constraint.

    Raised by :func:`repro.faults.placement.validate_placement` when some
    neighborhood contains more than ``t`` faulty nodes.
    """


class SpoofingError(ReproError):
    """A node attempted to transmit a message claiming another sender.

    The paper's model rules out address spoofing; the channel enforces this
    invariant and raises this error if a (buggy or adversarial) node object
    tries to violate it.
    """


class ProtocolViolationError(ReproError):
    """A protocol implementation broke one of the model's ground rules.

    For instance, transmitting after crashing, or a *correct* node's
    protocol attempting duplicitous per-neighbor delivery (impossible on a
    broadcast channel).
    """


class WitnessError(ReproError):
    """A constructive witness failed verification.

    Raised by :mod:`repro.core.witnesses` when a claimed set of
    node-disjoint paths is not disjoint, leaves the claimed neighborhood, or
    has the wrong cardinality.
    """
