"""Foot/head sets of vertex sets and the four neighborhood-chain conditions.

For a vertex set S the foot sets collect members whose (out- or in-)
neighborhood is contained in every member's; head sets use containment the
other way.  A digraph satisfies the condition of a kind at level p when the
corresponding set is non-empty for every p-subset of vertices.

The containment tests collapse to one equality each: x is a foot of S iff
its neighborhood equals the intersection of the members' neighborhoods, and
a head iff it equals the union.  Whether some p-set has no foot or head is
decided without listing the p-sets, by the peel lemma (peel_left).
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


def peel_left(rows: Iterable[int], head: bool = False) -> int:
    """How many rows are left after peeling: repeatedly remove a row
    contained in every remaining row (with head, one containing every
    remaining row).  The rows meet C(p) (C*(p) with head) iff fewer than p
    are left, for every p >= 2: the peel lemma.

    Proof.  Take a p-set S of rows.  If fewer than p rows are left, a member
    of S was peeled; the first one peeled lies in every member of S, all
    still there, so it is a foot.  If at least p are left, no left row lies
    in every left row.  Take a minimal left row a, a left row b with a not
    in b, and a minimal left row b' inside b.  Then a and b' are
    incomparable: a not in b' as b' is in b, and b' in a would make b' = a
    by a's minimality.  A p-set of left rows holding a and b' has no foot:
    a foot lies in a, so equals a, yet it lies in b'.  Heads are the dual
    case, with containment reversed.

    A row inside every remaining row is numerically their least, so the
    peel takes the rows in ascending order (descending for heads) and stops
    at the first row that is not the meet (join) of itself and the rows
    after it.  The loop walks that order backwards, so seen counts the rows
    from the one at hand to the end.
    """
    left, bound = 0, 0 if head else -1
    for seen, row in enumerate(sorted(rows, reverse=not head), 1):
        bound = bound | row if head else bound & row
        if row != bound:
            left = seen
    return left


def condition_violation(
    masks: Sequence[int], n: int, p: int, use_head: bool
) -> Optional[Tuple[int, ...]]:
    """First p-subset (lexicographic) whose foot/head set is empty, or None.

    `masks` is the out- or in-neighborhood table.  The sweeps ask only
    whether such a p-set exists, and use peel_left for that.
    """
    pick = _head_members if use_head else _foot_members
    for subset in itertools.combinations(range(n), p):
        if not pick(masks, subset):
            return subset
    return None


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
