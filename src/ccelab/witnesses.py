"""Constructive witnesses for the K_r u I_q characterizations.

Vertex placement is fixed so the arc sets are bit-exact and testable:
clique vertices first (0..r-1), then the designated isolated vertices
a = r and b = r+1, then any remaining isolated vertices.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .conditions import peel_left
from .digraph import Digraph
from .graphs import cce_graph, decompose_kr_iq
from .orders import SemiorderRep


def witness_loopless(r: int, q: int) -> Digraph:
    """A loopless digraph whose CCE graph is K_r u I_q (needs r >= 2, q >= 2).

    Arcs: a feeds every clique vertex and b; every clique vertex feeds b.
    The vertex a is the common enemy and b the common prey of the clique,
    while a and b themselves stay isolated in the CCE graph.
    """
    if r < 2 or q < 2:
        raise ValueError(
            f"construction needs r >= 2 and q >= 2 (two designated isolated "
            f"vertices), got r={r}, q={q}"
        )
    a, b = r, r + 1
    arcs = [(a, x) for x in range(r)]
    arcs += [(x, b) for x in range(r)]
    arcs.append((a, b))
    return Digraph(r + q, arcs)


def loopless_witness_failure(p: int, n: int) -> Optional[Tuple[Digraph, str]]:
    """The first witness_loopless(r, n - r), p <= r <= n - 2, whose CCE
    graph is not K_r u I_(n-r) or which fails a foot condition at p, with a
    tag, or None: the if direction of the loopless characterization."""
    for r in range(p, n - 1):
        q = n - r
        w = witness_loopless(r, q)
        shape = decompose_kr_iq(cce_graph(w))
        if shape is None or (shape.r, shape.q) != (r, q):
            return (w, f"witness CCE graph is not K_{r} u I_{q}")
        if any(peel_left(rows) >= p for rows in (w.out_masks, w.in_masks)):
            return (w, f"witness violates a foot condition at p={p}")
    return None


def witness_semiorder(r: int, q: int) -> SemiorderRep:
    """A semiorder valuation whose CCE graph is K_r u I_q.

    r = 0 gives the constant valuation (empty digraph, CCE = I_q).  For
    r >= 2, q >= 2: clique vertices get 0, the designated isolated vertex
    a = r gets 2, the remaining isolated vertices get -2; threshold 1.
    """
    from fractions import Fraction

    if r == 0:
        return SemiorderRep((Fraction(0),) * q, Fraction(1))
    if r < 2 or q < 2:
        raise ValueError(
            f"construction needs r = 0, or r >= 2 and q >= 2, got r={r}, q={q}"
        )
    f = [Fraction(0)] * r + [Fraction(2)] + [Fraction(-2)] * (q - 1)
    return SemiorderRep(tuple(f), Fraction(1))
