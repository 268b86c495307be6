"""Exact maximum set packing.

Both commit rules in the paper reduce to the same combinatorial question:
*how many pairwise node-disjoint evidence chains exist inside a candidate
neighborhood?*  An evidence chain is a small set of nodes (one endpoint
plus at most three relays), and chains must be pairwise disjoint so that at
most ``t`` of them can be poisoned by ``t`` faulty nodes.

Maximum set packing is NP-hard in general, but the instances the protocols
produce are small (a neighborhood holds at most ``(2r+1)^2`` nodes) and
highly structured, so an exact branch-and-bound with greedy seeding and
dominance reduction solves them in microseconds.  A work budget guards
against pathological inputs: exceeding it raises
:class:`PackingBudgetExceeded` rather than silently returning a wrong
answer -- the commit rules treat that as "cannot determine yet", which
preserves safety.

The solver is *exact*: when it returns ``k`` (without raising), no packing
of size ``k+1`` exists, and when asked for a ``target`` it finds a packing
of that size whenever one exists.  This matters because the paper's
thresholds are exact; an approximate packer would blur them.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.errors import ReproError


class PackingBudgetExceeded(ReproError):
    """The branch-and-bound search exceeded its node budget."""


def _preprocess(sets: Iterable[Iterable[Hashable]]) -> List[FrozenSet[Hashable]]:
    """Deduplicate and apply dominance reduction.

    If ``A`` is a subset of ``B``, any packing using ``B`` stays a packing
    after replacing ``B`` with ``A``, so ``B`` is dominated and dropped.
    Keeping only inclusion-minimal sets shrinks the search space without
    changing the optimum.
    """
    frozen = {frozenset(s) for s in sets}
    frozen.discard(frozenset())
    ordered = sorted(frozen, key=len)
    minimal: List[FrozenSet[Hashable]] = []
    for candidate in ordered:
        if not any(kept <= candidate for kept in minimal):
            minimal.append(candidate)
    return minimal


def _greedy(sets: Sequence[FrozenSet[Hashable]]) -> List[FrozenSet[Hashable]]:
    """Greedy packing, smallest sets first (good lower bound seed)."""
    used: set = set()
    picked: List[FrozenSet[Hashable]] = []
    for s in sets:
        if used.isdisjoint(s):
            picked.append(s)
            used |= s
    return picked


def find_set_packing(
    sets: Iterable[Iterable[Hashable]],
    target: Optional[int] = None,
    budget: int = 200_000,
) -> List[FrozenSet[Hashable]]:
    """Find a maximum packing (or one of size ``target``, whichever is
    smaller work).

    Parameters
    ----------
    sets:
        The candidate sets; duplicates and dominated supersets are pruned.
    target:
        If given, the search stops as soon as a packing of this size is
        found and returns it.  The commit rules always pass a target
        (``t + 1`` or ``2t + 1``), which keeps typical calls near-greedy
        cost.
    budget:
        Maximum number of branch-and-bound nodes to expand.

    Returns
    -------
    A list of pairwise-disjoint frozensets; maximum-size (or of size
    ``target``).

    :raises PackingBudgetExceeded: when the search budget trips before the
        answer is certain.
    """
    if target is not None and target <= 0:
        return []
    # Fast path: greedy on the deduplicated sets often hits the target
    # (honest evidence is disjoint by construction) without paying for
    # the quadratic dominance reduction.
    deduped = sorted({frozenset(s) for s in sets if s}, key=len)
    quick = _greedy(deduped)
    if target is not None and len(quick) >= target:
        return quick[:target]
    if deduped and len(deduped[-1]) <= 2:
        # Sets of size <= 2: exact in polynomial time via maximum
        # matching (see repro.analysis.blossom) -- this is the two-hop
        # commit rule's shape, including the expensive "prove no packing
        # exists" case at the impossibility bound.
        from repro.analysis.blossom import max_small_set_packing

        packing = max_small_set_packing(deduped)
        if target is not None and len(packing) >= target:
            return packing[:target]
        return packing
    minimal = _preprocess(deduped)
    best = _greedy(minimal)
    if target is not None and len(best) >= target:
        return best[:target]
    if len(quick) > len(best):
        best = quick

    # Branch and bound over sets ordered smallest-first.  At each step we
    # branch on the first still-available set: either it is in the packing
    # or it is not.
    nodes_expanded = 0

    def search(
        available: List[FrozenSet[Hashable]],
        chosen: List[FrozenSet[Hashable]],
    ) -> Optional[List[FrozenSet[Hashable]]]:
        nonlocal best, nodes_expanded
        nodes_expanded += 1
        if nodes_expanded > budget:
            raise PackingBudgetExceeded(
                f"set packing exceeded budget of {budget} nodes "
                f"({len(minimal)} sets after reduction)"
            )
        if len(chosen) > len(best):
            best = list(chosen)
            if target is not None and len(best) >= target:
                return best[:target]
        # Upper bound: even if every remaining set were packable.
        if len(chosen) + len(available) <= len(best):
            return None
        if not available:
            return None
        head, *rest = available
        # Branch 1: take head.
        filtered = [s for s in rest if s.isdisjoint(head)]
        result = search(filtered, chosen + [head])
        if result is not None:
            return result
        # Branch 2: skip head.
        return search(rest, chosen)

    result = search(minimal, [])
    if result is not None:
        return result
    return best


def max_set_packing(
    sets: Iterable[Iterable[Hashable]],
    target: Optional[int] = None,
    budget: int = 200_000,
) -> int:
    """Size of the maximum packing (capped at ``target`` when given).

    See :func:`find_set_packing` for parameters and the budget contract.
    """
    return len(find_set_packing(sets, target=target, budget=budget))


def hitting_set(
    sets: Sequence[FrozenSet[Hashable]], picks: int
) -> Optional[Set[Hashable]]:
    """A greedy pick of at most ``picks`` elements that hits every
    non-empty set, or ``None`` when the greedy pick needs more.

    A hitting set of at most ``k - 1`` elements proves that no ``k``
    pairwise-disjoint sets exist: each of them would need its own
    hitting element.  ``None`` proves nothing (the greedy pick is not a
    minimum hitting set), so callers fall through to the exact solver.
    Ties in the pick are free: whichever hitting set is found, the proof
    is the same.
    """
    remaining = [s for s in sets if s]
    picked: Set[Hashable] = set()
    while remaining:
        if len(picked) >= picks:
            return None
        counts: Dict[Hashable, int] = {}
        for s in remaining:
            for x in s:
                counts[x] = counts.get(x, 0) + 1
        pick = max(counts, key=counts.__getitem__)
        picked.add(pick)
        remaining = [s for s in remaining if pick not in s]
    return picked


def has_packing_of_size(
    sets: Iterable[Iterable[Hashable]],
    k: int,
    budget: int = 200_000,
) -> bool:
    """Whether ``k`` pairwise-disjoint sets can be chosen.

    Convenience predicate used by the protocol commit rules; ``k <= 0`` is
    vacuously ``True``.  It first tries to certify ``False`` with a greedy
    hitting set of at most ``k - 1`` elements -- under Byzantine
    fabricators nearly every failing commit check is settled this way --
    and only then asks :func:`find_set_packing`, so every ``True`` still
    comes from the exact solver.  A certified ``False`` can also answer
    an input on which the exact search would have exceeded its budget;
    the commit rules treat both outcomes as "not yet".
    """
    if k <= 0:
        return True
    family = [frozenset(s) for s in sets]
    if hitting_set(family, k - 1) is not None:
        return False
    return len(find_set_packing(family, target=k, budget=budget)) >= k
