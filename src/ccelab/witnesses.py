"""Constructive witnesses for the K_r u I_q characterizations.

Vertex placement is fixed so the arc sets are bit-exact and testable:
clique vertices first (0..r-1), then the designated isolated vertices
a = r and b = r+1, then any remaining isolated vertices.
"""

from __future__ import annotations

from .digraph import Digraph
from .orders import SemiorderRep


def witness_loopless(r: int, q: int) -> Digraph:
    """A loopless digraph whose CCE graph is K_r u I_q (needs r >= 2, q >= 2),
    which proves the "if" direction of the loopless characterization.

    Arcs: a feeds every clique vertex and b; every clique vertex feeds b.
    With K the clique, the out-rows are K u {b} (a), {b} (each of K) and
    empty (the rest), and the in-rows K u {a} (b), {a} (each of K) and
    empty: two chains, so peel_left peels every row, and by its lemma C(p)
    and C'(p) hold at every p >= 2.  Only a and K have out-neighbours, and a
    has no in-neighbour, so only pairs inside K can be CCE adjacent, and
    each shares prey b and enemy a: the CCE graph is K_r u I_q.
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
