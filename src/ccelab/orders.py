"""Semiorders and interval orders: construction from representations,
and recognition of digraphs that admit one.

A semiorder representation is a vertex valuation f plus a threshold
delta > 0 with arcs exactly where f(x) > f(y) + delta.  An interval
representation assigns each vertex a closed interval [lo, hi] with arcs
exactly where lo(x) > hi(y).

Recognition is a search for an exactly-regenerating representation:

* semiorders: the arc/non-arc pattern is a system of difference
  constraints (arc: f(x) - f(y) > delta, non-arc: f(x) - f(y) <= delta;
  delta normalized to 1).  The search runs a longest-path relaxation over
  values graded as (integer, epsilon-count) pairs - a discrete value
  space that is complete for every n - and then instantiates epsilon as
  an exact Fraction small enough to keep all strict margins.
* interval orders: a representation with integer endpoints exists iff
  the distinct out-neighborhoods form a containment chain; the chain
  ranks give the endpoints directly.

Both recognizers return representations normalized per the package
conventions (minimum f value 0 and delta = 1; small non-negative integer
endpoints) and both regenerate the input arc set exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .digraph import Digraph

if TYPE_CHECKING:
    from fractions import Fraction
    from numbers import Real


class SemiorderRep(NamedTuple):
    """Vertex valuation plus positive threshold."""

    f: Tuple[Real, ...]
    delta: Real


class IntervalRep(NamedTuple):
    """Closed interval [lo, hi] per vertex, lo <= hi."""

    intervals: Tuple[Tuple[Real, Real], ...]


# -- construction -------------------------------------------------------------


def semiorder_from(rep: SemiorderRep) -> Digraph:
    """Digraph with arcs (x, y) exactly where f(x) > f(y) + delta.

    Always loopless and acyclic: f strictly decreases along arcs.  It is
    the interval order of the intervals [f, f + delta].
    """
    if rep.delta <= 0:
        raise ValueError(f"threshold must be positive, got {rep.delta}")
    return interval_order_from(IntervalRep(tuple((x, x + rep.delta) for x in rep.f)))


def interval_order_from(rep: IntervalRep) -> Digraph:
    """Digraph with arcs (x, y) exactly where min J(x) > max J(y)."""
    iv = rep.intervals
    for v, (lo, hi) in enumerate(iv):
        if lo > hi:
            raise ValueError(f"malformed interval [{lo}, {hi}] at vertex {v}")
    n = len(iv)
    arcs = [
        (x, y)
        for x in range(n)
        for y in range(n)
        if x != y and iv[x][0] > iv[y][1]
    ]
    return Digraph(n, arcs)


# -- semiorder recognition -----------------------------------------------------


def _semiorder_potentials(
    n: int, out: Sequence[int]
) -> Optional[List[Tuple[int, int]]]:
    """Least solution of the difference constraints, graded as (int, eps-count).

    Returns None when the system has a positive cycle, i.e. no valuation
    exists.  Values compare lexicographically, standing for a + b*eps with
    eps an arbitrarily small positive real.
    """
    # Every semiorder is an interval order, so rows that are not a chain are
    # rejected at once.  Bellman-Ford below finds 2-cycles and transitivity
    # gaps as positive cycles, but it skips w == u, so the chain test's loop
    # check stays.
    if _out_chain(out) is None:
        return None
    pot: List[Tuple[int, int]] = [(0, 0)] * n
    for _ in range(n + 1):
        changed = False
        for u in range(n):
            ou = out[u]
            for w in range(n):
                if w == u:
                    continue
                if (ou >> w) & 1:
                    # arc: f(u) >= f(w) + 1 + eps
                    pw = pot[w]
                    cand = (pw[0] + 1, pw[1] + 1)
                    if cand > pot[u]:
                        pot[u] = cand
                        changed = True
                else:
                    # non-arc: f(u) <= f(w) + 1
                    pu = pot[u]
                    cand = (pu[0] - 1, pu[1])
                    if cand > pot[w]:
                        pot[w] = cand
                        changed = True
        if not changed:
            return pot
    return None


def semiorder_feasible_masks(n: int, out: Sequence[int]) -> bool:
    """Mask-level semiorder test used by the enumeration sweeps."""
    return _semiorder_potentials(n, out) is not None


def recognize_semiorder(d: Digraph) -> Optional[SemiorderRep]:
    """A representation regenerating d exactly, or None if none exists."""
    from fractions import Fraction

    n = d.n
    if n == 0:
        return SemiorderRep((), Fraction(1))
    pot = _semiorder_potentials(n, d.out_masks)
    if pot is None:
        return None
    bs = [b for _, b in pot]
    brange = max(bs) - min(bs)
    arcs = d.arcs
    for eps in (Fraction(1, 2), Fraction(1, brange + 1)):
        f = [a + b * eps for a, b in pot]
        lowest = min(f)
        f = tuple(v - lowest for v in f)
        if _regenerates(f, n, arcs):
            return SemiorderRep(f, Fraction(1))
    raise AssertionError("safe epsilon failed to regenerate a feasible system")


def _regenerates(f: Sequence[Fraction], n: int, arcs) -> bool:
    for x in range(n):
        fx = f[x]
        for y in range(n):
            if x != y and ((fx > f[y] + 1) != ((x, y) in arcs)):
                return False
    return True


# -- interval order recognition ------------------------------------------------


def _out_chain(out: Sequence[int]) -> Optional[List[int]]:
    """Distinct out-masks sorted descending if no vertex has a loop and they
    form a containment chain; None otherwise.

    A proper subset is numerically smaller, so a chain ascends by value, and
    rows whose consecutive values are nested form a chain."""
    for v, row in enumerate(out):
        if (row >> v) & 1:
            return None
    distinct = sorted(set(out))
    for prev, nxt in zip(distinct, distinct[1:]):
        if prev & ~nxt:
            return None
    return distinct[::-1]


def interval_feasible_masks(n: int, out: Sequence[int]) -> bool:
    """Mask-level interval-order test used by the enumeration sweeps."""
    return _out_chain(out) is not None


def recognize_interval_order(d: Digraph) -> Optional[IntervalRep]:
    """A representation regenerating d exactly, or None if none exists."""
    n = d.n
    out = d.out_masks
    chain = _out_chain(out)
    if chain is None:
        return None
    levels = [m for m in chain if m]
    k = len(levels)
    rank = {m: i for i, m in enumerate(levels)}   # 0-based, largest set first
    intervals = []
    for v in range(n):
        contained = sum(1 for m in levels if (m >> v) & 1)
        hi = k - contained
        lo = k - rank[out[v]] if out[v] else 0
        intervals.append((lo, hi))
    return IntervalRep(tuple(intervals))
