"""Result types for fastpath runs.

The reference engine's :class:`~repro.radio.engine.SimulationResult`
exposes per-node :class:`~repro.radio.node.NodeProcess` objects; the
fastpath kernels keep no such objects.  To stay drop-in compatible with
:func:`~repro.radio.run.grade_outcome` and every downstream consumer,
a fastpath run materializes a ``processes`` map of tiny *views*: every
committed node shares one flyweight carrying the broadcast value, every
undecided node shares another.  Two objects total, regardless of grid
size.  Grading does not walk that map: the result keeps the kernel's
masks and answers :meth:`FastSimulationResult.failing_nodes` from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, Iterable, List, Optional, Sequence

from repro.geometry.coords import Coord
from repro.radio.engine import SimulationResult
from repro.radio.fastpath.compat import require_numpy
from repro.radio.trace import Trace


class _CommitView:
    """Read-only stand-in for a :class:`NodeProcess` after a run.

    Supports exactly the post-mortem surface ``SimulationResult`` and
    ``grade_outcome`` use: :meth:`committed_value` / :meth:`is_decided`.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Any) -> None:
        self._value = value

    def committed_value(self) -> Any:
        return self._value

    def is_decided(self) -> bool:
        return self._value is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_CommitView(value={self._value!r})"


@dataclass
class FastSimulationResult(SimulationResult):
    """A :class:`SimulationResult` produced by the fastpath backend.

    Identical shape and semantics; the subclass exists so callers (and
    tests) can tell which backend produced a result.  It also keeps the
    kernel's view of the run for grading, outside equality and repr:
    ``nodes`` (canonical node per flat index), the ``(N,)`` bool
    ``correct_mask`` and ``committed_mask``, and ``wrong_values``
    (committed nodes holding some value other than the source's).
    """

    engine: str = "fastpath"
    nodes: Sequence[Coord] = field(default=(), repr=False, compare=False)
    correct_mask: Any = field(default=None, repr=False, compare=False)
    committed_mask: Any = field(default=None, repr=False, compare=False)
    wrong_values: Dict[Coord, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    def failing_nodes(
        self, value: Any, correct_nodes: AbstractSet[Coord]
    ) -> List[Coord]:
        """The base class's answer, read off the masks.

        When ``correct_nodes`` is the run's correct set, which
        ``correct_mask`` holds, a committed node outside
        ``wrong_values`` holds ``value`` itself, so it passes unless
        ``value`` is unequal to itself (a NaN), as in the base class's
        walk.  Flat order is sorted order, so only the wrong commits
        are merged in by a sort.  Any other set (told apart by its
        size, one count) gets the base class's walk.
        """
        if len(correct_nodes) != int(self.correct_mask.sum()):
            return super().failing_nodes(value, correct_nodes)
        np = require_numpy()
        failing = self.correct_mask.copy()
        wrong: List[Coord] = []
        if not value != value:
            failing &= ~self.committed_mask
            wrong = [n for n, got in self.wrong_values.items() if got != value]
        nodes = self.nodes
        out = [nodes[i] for i in np.flatnonzero(failing).tolist()]
        return sorted(out + wrong) if wrong else out


def build_processes(
    all_nodes: Iterable[Coord],
    committed_flags: Iterable[bool],
    value: Any,
    wrong_values: Optional[Dict[Coord, Any]] = None,
) -> Dict[Coord, _CommitView]:
    """The post-mortem ``processes`` map: shared views, not node objects.

    ``all_nodes`` and ``committed_flags`` are aligned (flat-index
    order); flagged nodes commit to ``value``, every other node
    (including faulty ones, mirroring the reference engine's
    ``SilentProcess`` entries) reports undecided.  ``wrong_values``
    patches in the (Byzantine-induced) exceptions: nodes that committed
    some other value get a view of their own.
    """
    committed_view = _CommitView(value)
    undecided_view = _CommitView(None)
    processes = {
        node: committed_view if flag else undecided_view
        for node, flag in zip(all_nodes, committed_flags)
    }
    for node, wrong in (wrong_values or {}).items():
        processes[node] = _CommitView(wrong)
    return processes


def build_trace(
    *,
    rounds: int,
    transmissions: int,
    deliveries: int,
    crashes: int,
    tx_by_node: Dict[Coord, int],
    tx_by_round: Dict[int, int],
) -> Trace:
    """A populated :class:`Trace`.

    Fills every aggregate the reference engine would have filled, so
    ``trace.summary()`` and the cost benchmarks agree byte-for-byte.
    """
    trace = Trace()
    trace.rounds = rounds
    trace.transmissions = transmissions
    trace.deliveries = deliveries
    trace.crashes = crashes
    trace.tx_by_node = dict(tx_by_node)
    trace.tx_by_round = dict(tx_by_round)
    return trace
