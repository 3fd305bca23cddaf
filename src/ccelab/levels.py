"""Ferrers level matrices: one digraph per isomorphism class of the
digraphs whose out-rows are pairwise nested.

At p = 2 each of C, C', C* and C*' says that the rows are pairwise nested,
so the p = 2 class sweeps range over the Ferrers digraphs (biorders), whose
nested out-rows make nested in-rows too.  Give each vertex a pair (a, b) of
levels in 0 .. k - 1, with x -> y iff a(x) > b(y), and count the pairs in a
k x k matrix.  With row i non-zero for i >= 1 and column j non-zero for
j <= k - 2, the a-levels match the distinct out-rows and the b-levels the
distinct in-rows, so each isomorphism class has one matrix, an automorphism
only permutes equal pairs, and a matrix stands for n!/prod m_ij! labeled
digraphs.  The loopless ones (a <= b, upper triangular) are the Fishburn
matrices of the unlabeled interval orders (P. C. Fishburn, Interval Orders
and Interval Graphs, 1985; OEIS A022493).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .digraph import rows_mask


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> Tuple[Tuple[int, ...], ...]:
    """The weak compositions of total into parts > 0 parts."""
    if parts == 1:
        return ((total,),)
    return tuple(
        (first,) + rest
        for first in range(total + 1)
        for rest in _compositions(total - first, parts - 1)
    )


def level_matrices(
    n: int, loopless: bool, progress: Optional[Callable[[int, int], None]] = None
) -> Iterator[Tuple[int, List[int], List[int]]]:
    """Every level matrix with entries summing to n, level count by level
    count, as (weight n!/prod m_ij!, out-rows, in-rows) of one
    representative: the vertices fill the non-zero cells in row-major order,
    and x -> y iff a(x) > b(y).  With loopless, only cells with i <= j are
    used.  A matrix is built row by row, each row a weak composition of its
    sum over the row's cells.  progress(i, total), when given, follows the
    i-th level count's last matrix."""
    fact = [math.factorial(i) for i in range(n + 1)]
    # rows 1 .. k - 1 are non-zero, and a loopless matrix's diagonal is too
    levels = (0,) if n == 0 else range(1, n + 2 - loopless)
    for step, k in enumerate(levels, 1):

        def rows(i: int, left: int, zero: int, denom: int) -> Iterator[int]:
            """Fill rows i .. k - 1 with left vertices, given the columns
            0 .. k - 2 still zero and prod m! so far; yields the denominator
            of each finished matrix, whose cells are in pairs."""
            if i == k:
                if not zero:
                    yield denom
                return
            first, after = (i if loopless else 0), k - 1 - i
            least = left if after == 0 else int(i > 0)
            for total in range(least, left - after + 1):
                for comp in _compositions(total, k - first):
                    z, d, mark = zero, denom, len(pairs)
                    for j, m in enumerate(comp, first):
                        if m:
                            z &= ~(1 << j)
                            d *= fact[m]
                            pairs.extend([(i, j)] * m)
                    # a loopless column j gets no cell below row j, so its
                    # zero is final; else the vertices left must fill the
                    # zero columns
                    if loopless:
                        dead = z & ((2 << i) - 1)
                    else:
                        dead = bin(z).count("1") > left - total
                    if not dead:
                        yield from rows(i + 1, left - total, z, d)
                    del pairs[mark:]

        pairs: List[Tuple[int, int]] = []
        for denom in rows(0, n, (1 << max(k - 1, 0)) - 1, 1):
            below = [0] * (k + 1)   # below[j]: the vertices with b < j
            above = [0] * (k + 1)   # above[i]: the vertices with a > i
            for x, (a, b) in enumerate(pairs):
                below[b + 1] |= 1 << x
                if a:
                    above[a - 1] |= 1 << x
            for j in range(k):
                below[j + 1] |= below[j]
            for i in range(k - 1, 0, -1):
                above[i - 1] |= above[i]
            out = [below[a] for a, _ in pairs]
            yield fact[n] // denom, out, [above[b] for _, b in pairs]
        if progress:
            progress(step, len(levels))


def least_relabeled_mask(n: int, out: Sequence[int], ins: Sequence[int]) -> int:
    """The least arc mask among the relabelings of the digraph with the given
    rows.  Vertices with equal out- and in-rows are twins, so it walks the
    orders of the twin classes' multiset: n!/prod m_ij! of them for a level
    matrix's representative."""
    kinds = sorted(set(zip(out, ins)))
    members = [[x for x in range(n) if (out[x], ins[x]) == kind] for kind in kinds]
    succ = [
        [t for t, ys in enumerate(members) if out[xs[0]] >> ys[0] & 1] for xs in members
    ]
    left = [len(xs) for xs in members]
    labels, kind_of = [0] * len(kinds), [0] * n   # per class its new labels

    def masks(u: int) -> Iterator[int]:
        """The masks of every way to give labels u .. n - 1 to the classes."""
        if u == n:
            yield rows_mask(n, [sum(labels[t] for t in succ[s]) for s in kind_of])
            return
        for s, count in enumerate(left):
            if count:
                left[s], labels[s], kind_of[u] = count - 1, labels[s] | 1 << u, s
                yield from masks(u + 1)
                left[s], labels[s] = count, labels[s] ^ 1 << u

    return min(masks(0))


def least_tagged_relabeling(
    n: int,
    digraphs: Iterable[Tuple[int, List[int], List[int]]],
    tag_of: Callable[[List[int], List[int]], Optional[str]],
) -> Optional[Tuple[int, str]]:
    """The least (least relabeled mask, tag) over the digraphs, given as
    (anything, out-rows, in-rows) like level_matrices' items, that
    tag_of(out-rows, in-rows) tags, or None; masks are built, and the
    relabelings walked, for the tagged digraphs only.  When tag_of gives
    every relabeling the same tag, the mask is the least tagged one among
    the labeled digraphs isomorphic to those given."""
    return min(
        (
            (least_relabeled_mask(n, out, inc), tag)
            for _, out, inc in digraphs
            for tag in (tag_of(out, inc),)
            if tag is not None
        ),
        default=None,
    )
