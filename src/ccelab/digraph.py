"""Immutable labeled digraphs on dense vertex indices 0..n-1.

Neighborhoods are kept as integer bitmasks so that the subset/superset
tests done by the condition checks cost one AND plus one compare each.
Vertex labels beyond plain indices belong to the I/O layer, not here.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Sequence, Tuple

Arc = Tuple[int, int]


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask`` in ascending order, starting with 0."""
    row = 0
    while True:
        yield row
        if row == mask:
            return
        row = (row - mask) & mask


def rows_mask(n: int, out: Sequence[int]) -> int:
    """The arc mask of the digraph on n vertices with the given out-rows."""
    return sum(row << v * n for v, row in enumerate(out))


def ancestors(v: int, ins: Sequence[int]) -> int:
    """Mask of the vertices with a directed path to v, given in-rows."""
    found = frontier = ins[v]
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = ins[low.bit_length() - 1] & ~found
        found |= new
        frontier |= new
    return found


class Digraph:
    """A directed graph with vertex set {0, .., n-1} and a set of ordered arcs.

    Loops (v, v) are permitted.  Instances are immutable values: share them
    freely across workers, compare them with ``==``, use them as dict keys.
    """

    __slots__ = ("n", "arcs", "out_masks", "in_masks")

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        arc_set = frozenset((int(u), int(v)) for u, v in arcs)
        out = [0] * n
        inc = [0] * n
        for u, v in arc_set:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            out[u] |= 1 << v
            inc[v] |= 1 << u
        self.n = n
        self.arcs = arc_set
        self.out_masks = tuple(out)
        self.in_masks = tuple(inc)

    # -- neighborhoods -------------------------------------------------

    def _check_vertex(self, x: int) -> None:
        if not (0 <= x < self.n):
            raise ValueError(f"vertex {x} out of range for n={self.n}")

    def out_neighbors(self, x: int) -> FrozenSet[int]:
        """The set of v with an arc (x, v)."""
        self._check_vertex(x)
        return frozenset(bits_of(self.out_masks[x]))

    def in_neighbors(self, x: int) -> FrozenSet[int]:
        """The set of v with an arc (v, x)."""
        self._check_vertex(x)
        return frozenset(bits_of(self.in_masks[x]))

    # -- structural predicates ------------------------------------------

    def is_loopless(self) -> bool:
        return not any(u == v for (u, v) in self.arcs)

    def is_acyclic(self) -> bool:
        """True iff the arc relation has no directed cycle (a loop counts):
        no vertex reaches itself (ancestors over out-rows finds descendants)."""
        out = self.out_masks
        return not any(ancestors(v, out) >> v & 1 for v in range(self.n))

    def reverse(self) -> "Digraph":
        """The digraph with every arc (u, v) replaced by (v, u)."""
        return Digraph(self.n, ((v, u) for (u, v) in self.arcs))

    # -- bitmask codec ---------------------------------------------------
    #
    # Arc (u, v) <-> bit u*n + v.  This is the canonical enumeration order
    # and the tiebreak used for deterministic counterexamples.

    def arc_mask(self) -> int:
        return rows_mask(self.n, self.out_masks)

    @classmethod
    def from_arc_mask(cls, n: int, mask: int) -> "Digraph":
        arcs = []
        for b in bits_of(mask):
            arcs.append((b // n, b % n))
        return cls(n, arcs)

    # -- value semantics --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        arcs = sorted(self.arcs)
        return f"Digraph({self.n}, {arcs})"
