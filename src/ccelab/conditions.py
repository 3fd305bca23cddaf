"""Foot/head sets of vertex sets and the four neighborhood-chain conditions.

For a vertex set S the foot sets collect members whose (out- or in-)
neighborhood is contained in every member's; head sets use containment the
other way.  A digraph satisfies the condition of a kind at level p when the
corresponding set is non-empty for every p-subset of vertices.

The containment tests collapse to one equality each: x is a foot of S iff
its neighborhood equals the intersection of the members' neighborhoods, and
a head iff it equals the union.
"""

from __future__ import annotations

import enum
import itertools
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .digraph import Digraph


class ConditionKind(enum.Enum):
    """Which of the four foot/head sets must be non-empty on every p-set."""

    C = "C"                  # foot sets of out-neighborhoods
    C_PRIME = "Cp"           # foot sets of in-neighborhoods
    C_STAR = "Cs"            # head sets of out-neighborhoods
    C_STAR_PRIME = "Csp"     # head sets of in-neighborhoods

    def label(self, p: int) -> str:
        """The condition's name at level p, e.g. C'(3)."""
        return {
            ConditionKind.C: f"C({p})",
            ConditionKind.C_PRIME: f"C'({p})",
            ConditionKind.C_STAR: f"C*({p})",
            ConditionKind.C_STAR_PRIME: f"C*'({p})",
        }[self]

    @property
    def uses_in_masks(self) -> bool:
        return self in (ConditionKind.C_PRIME, ConditionKind.C_STAR_PRIME)

    @property
    def uses_head(self) -> bool:
        return self in (ConditionKind.C_STAR, ConditionKind.C_STAR_PRIME)


class ConditionReport(NamedTuple):
    """Verdict for one condition kind at one level p.

    violating_set is present exactly when satisfied is False; it is the
    lexicographically first p-set whose foot/head set is empty.
    """

    kind: ConditionKind
    p: int
    satisfied: bool
    violating_set: Optional[FrozenSet[int]] = None


def _foot_members(masks: Sequence[int], members: Sequence[int]) -> List[int]:
    it = iter(members)
    inter = masks[next(it)]
    for v in it:
        inter &= masks[v]
    return [x for x in members if masks[x] == inter]


def _head_members(masks: Sequence[int], members: Sequence[int]) -> List[int]:
    union = 0
    for v in members:
        union |= masks[v]
    return [x for x in members if masks[x] == union]


def _kind_set(
    kind: ConditionKind, d: Digraph, vertices: Iterable[int]
) -> FrozenSet[int]:
    """The foot or head set of S on the out- or in-rows, as the kind reads them."""
    members = sorted(set(int(v) for v in vertices))
    for v in members:
        if not (0 <= v < d.n):
            raise ValueError(f"vertex {v} out of range for n={d.n}")
    if not members:
        return frozenset()
    masks = d.in_masks if kind.uses_in_masks else d.out_masks
    pick = _head_members if kind.uses_head else _foot_members
    return frozenset(pick(masks, members))


def foot_set_plus(d: Digraph, vertices: Iterable[int]) -> FrozenSet[int]:
    """Members of S whose out-neighborhood is contained in every member's."""
    return _kind_set(ConditionKind.C, d, vertices)


def foot_set_minus(d: Digraph, vertices: Iterable[int]) -> FrozenSet[int]:
    """Members of S whose in-neighborhood is contained in every member's."""
    return _kind_set(ConditionKind.C_PRIME, d, vertices)


def head_set_plus(d: Digraph, vertices: Iterable[int]) -> FrozenSet[int]:
    """Members of S whose out-neighborhood contains every member's."""
    return _kind_set(ConditionKind.C_STAR, d, vertices)


def head_set_minus(d: Digraph, vertices: Iterable[int]) -> FrozenSet[int]:
    """Members of S whose in-neighborhood contains every member's."""
    return _kind_set(ConditionKind.C_STAR_PRIME, d, vertices)


def first_empty_foot(
    masks: Sequence[int], subsets: Iterable[Sequence[int]]
) -> Optional[Sequence[int]]:
    """First of the given subsets whose foot set is empty, or None."""
    for subset in subsets:
        inter = masks[subset[0]]
        for v in subset[1:]:
            inter &= masks[v]
        for x in subset:
            if masks[x] == inter:
                break
        else:
            return subset
    return None


def first_empty_head(
    masks: Sequence[int], subsets: Iterable[Sequence[int]]
) -> Optional[Sequence[int]]:
    """First of the given subsets whose head set is empty, or None."""
    for subset in subsets:
        union = 0
        for v in subset:
            union |= masks[v]
        for x in subset:
            if masks[x] == union:
                break
        else:
            return subset
    return None


def condition_violation(
    masks: Sequence[int], n: int, p: int, use_head: bool
) -> Optional[Tuple[int, ...]]:
    """First p-subset (lexicographic) whose foot/head set is empty, or None.

    `masks` is the out- or in-neighborhood table.  The enumeration sweeps
    call first_empty_foot / first_empty_head directly with their subsets
    computed once per sweep.
    """
    first_empty = first_empty_head if use_head else first_empty_foot
    return first_empty(masks, itertools.combinations(range(n), p))


def satisfies_condition(d: Digraph, kind: ConditionKind, p: int) -> ConditionReport:
    """Check the condition of the given kind at level p.

    Vacuously satisfied when n < p (there are no p-subsets to quantify
    over).  p < 2 is rejected.
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    masks = d.in_masks if kind.uses_in_masks else d.out_masks
    witness = condition_violation(masks, d.n, p, kind.uses_head)
    if witness is None:
        return ConditionReport(kind, p, True, None)
    return ConditionReport(kind, p, False, frozenset(witness))
