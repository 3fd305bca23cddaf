"""The loopless and acyclic characterization sweeps and the props clique
check: the theorem sweeps that run on the level matrices.

At p = 2 each condition says the rows are nested, so these sweeps take one
representative per isomorphism class from the level matrices
(levels.level_matrices), weighted by its number of labelings.  The loopless
and acyclic sweeps at p = 3 take the same representatives: the other
digraphs meeting C(3) and C'(3) are two-arc matchings, which no theorem
checker can flag (_violation).  They run in one process, and each
counterexample is the least mask of the labeled space.  At p >= 4 the
loopless and acyclic sweeps run the gated labeled scan of the enumeration
module, imported only then, so a sweep at p <= 3 loads neither it nor the
conditions and orders.  The order-family sweeps (main0, kr) and explore are
in enumeration.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .caps import check_cap
from .digraph import Digraph
from .graphs import cce_adj, core_clique
from .levels import least_tagged_relabeling, level_matrices


class EnumerationFilter(NamedTuple):
    """Which labeled digraphs on n vertices to generate."""

    n: int
    loopless: bool = False
    acyclic: bool = False


class SweepOutcome(NamedTuple):
    """Result of one verification sweep.

    checked is the size of the swept space, in closed form: 2^(n(n-1))
    loopless digraphs, A003024(n) DAGs (_dag_count), 2^(n^2) digraphs for
    props and explore; for the order-family sweeps it is the labeled
    interval orders (A079144), the summed weights of the Fishburn matrices
    they sweep.
    counterexample carries the least-arc-mask offender, over the labeled
    digraphs even where a sweep takes one per class, and a short tag;
    missing_shape is (r, q, family) when an order-family sweep finds that
    no order of the family realizes K_r u I_q, a failure no single digraph
    witnesses.  The swept property held universally exactly when both are
    None.
    """

    checked: int
    counterexample: Optional[Tuple[Digraph, str]] = None
    missing_shape: Optional[Tuple[int, int, str]] = None

    @property
    def verified(self) -> bool:
        return self.counterexample is None and self.missing_shape is None


@lru_cache(maxsize=None)
def _dag_count(n: int) -> int:
    """Labeled DAGs on n vertices (OEIS A003024) by Robinson's recurrence:
    inclusion-exclusion over the k-sets of sources."""
    return 1 if n == 0 else sum(
        (-1) ** (k + 1) * math.comb(n, k) * 2 ** (k * (n - k)) * _dag_count(n - k)
        for k in range(1, n + 1)
    )


def _checker_core_shape(p, out, inc):
    """For a digraph meeting both foot conditions at p, as every leaf of a
    foot-gated scan does: a CCE core of at least p vertices must be a clique
    beside at least 2 isolated vertices.  That is the loopless only-if
    direction, and all of the acyclic classification that can fail (see
    verify_theorem_acyclic)."""
    core, clique = core_clique(cce_adj(out, inc))
    if core < p:
        return None
    if not clique:
        return "CCE core is not a clique"
    if len(out) - core < 2:
        return "CCE graph has fewer than 2 isolated vertices"
    return None


def _checker_clique(p, out, inc):
    """The clique proposition at p, for a digraph meeting both foot
    conditions at p, as every leaf of a foot-gated scan does: a CCE core of
    at least p vertices is a clique."""
    core, clique = core_clique(cce_adj(out, inc))
    return f"clique proposition fails at p={p}" if core >= p and not clique else None


# sweep -> checker(p, out_rows, in_rows), returning None or a key: a
# violation tag or a class; n is len(out_rows).  The enumeration module adds
# its class checkers to this one table.
#
# A checker run at p = 2 or 3 sees one representative per isomorphism class
# of Ferrers digraphs (_violation), so it must give every relabeling of a
# digraph the same key.  One that _violation runs must also pass every
# digraph whose CCE core has fewer than p vertices, as core_shape and clique
# do: it never sees the two-arc matchings at p = 3, whose CCE graph is
# edgeless, nor any digraph at p >= 4 when p > n.
_CHECKERS: Dict[str, Callable] = {
    "core_shape": _checker_core_shape,
    "clique": _checker_clique,
}


def _violation(
    sweep: str, filt: EnumerationFilter, p: int,
    progress: Optional[Callable[[int, int], None]], workers: int = 1,
) -> Optional[Tuple[Digraph, str]]:
    """The least-mask digraph of the filter's space meeting C(p) and C'(p)
    that the sweep's checker flags, with its tag, or None.

    At p = 2 these are the space's Ferrers digraphs, and at p = 3 the
    Ferrers digraphs and the two-arc matchings, the digraphs with exactly two
    arcs a -> c and b -> d, where a != b and c != d:

    Lemma.  The out-rows meet C(3) and the in-rows C'(3) iff the out-rows
    are nested or the digraph is a two-arc matching.  Nested rows meet C(2),
    so C(3), and make nested in-rows.  A matching meets both, as every 3-set
    holds a vertex with an empty out-row and one with an empty in-row.
    Conversely, let out(a) and out(b) be incomparable.  C(3) puts every
    other out-row inside out(a) & out(b), as {a, b, x} needs a foot.  Take
    c in out(a) - out(b) and d in out(b) - out(a).  in(c) and in(d) are
    incomparable, as a lies in in(c) only and b in in(d) only, so C'(3) puts
    every other in-row inside in(c) & in(d), which holds neither a nor b.
    So out(a) = {c}, out(b) = {d}, and every other out-row, inside both, is
    empty.  (For n <= 2 there is no 3-set, and two incomparable subsets of
    {0, 1} are {0} and {1}.)

    A matching's CCE graph has no edge: a and b share no out-neighbour, as
    c != d, and every other out-row is empty.  So its CCE core has no
    vertex, fewer than p, and the checkers run here pass it (_CHECKERS); at
    p <= 3 only the Ferrers digraphs are checked.  The checkers are
    isomorphism invariant, so each level matrix is checked once, in this
    process, and the least mask is taken over the relabelings of the flagged
    ones.  At p >= 4 one gated labeled scan is split over workers, unless
    p > n: the checkers run here pass every digraph whose CCE core has fewer
    than p vertices (_CHECKERS), and a core has at most n < p vertices, so
    nothing is scanned and no pool starts."""
    n = filt.n
    if p <= 3:
        matrices = level_matrices(n, filt.loopless or filt.acyclic, progress)
        least = least_tagged_relabeling(n, matrices, partial(_CHECKERS[sweep], p))
    elif p > n:
        return None
    else:
        # imported here, so that the level-matrix sweeps never load the
        # labeled scan nor the conditions it gates on
        from .enumeration import _FOOT, _run_scan

        found = _run_scan(sweep, filt, p, _FOOT, workers, progress)
        least = next(((m, tag) for tag, m in found.items()), None)
    return least and (Digraph.from_arc_mask(n, least[0]), least[1])


def verify_theorem_loopless(
    p: int,
    n: int,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """The loopless characterization at one size.

    Only-if, the part swept: every loopless digraph on n vertices satisfying
    the two foot conditions at level p whose CCE graph has at least p
    non-isolated vertices must be K_r u I_q with r >= p and q >= 2.  At
    p = 2 and 3 it is checked on the interval orders, one per Fishburn
    matrix, the only digraphs meeting both conditions that can fail it
    (_violation); at p >= 4 the gated labeled scan is split over workers,
    and at p > n nothing is scanned.  If: witnesses.witness_loopless proves
    its construction in its docstring, and the test suite checks it up to
    one past this cap.  checked is 2^(n(n-1)).
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    check_cap("loopless", n)
    filt = EnumerationFilter(n, loopless=True)
    ce = _violation("core_shape", filt, p, progress, workers)
    return SweepOutcome(1 << n * (n - 1), ce)


def verify_theorem_acyclic(
    p: int,
    n: int,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """Shape classification of CCE graphs over all labeled DAGs at one size.

    Every DAG satisfying the two foot conditions at level p must have a CCE
    graph that is edgeless, or K_r u I_q with r >= p and q >= 2, or a small
    core (fewer than p vertices, no isolated vertices inside) padded with at
    least dk(core) isolated vertices; the last holds for every DAG, which
    itself realizes its core padded that way, so it is not re-checked.  At
    p = 2 and 3 the check runs on the interval orders, one per Fishburn
    matrix, the only DAGs meeting both conditions that can fail it
    (_violation); at p >= 4 workers splits the scan, as for loopless, and
    at p > n there is nothing to scan.
    checked is _dag_count(n).
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    check_cap("acyclic", n)
    filt = EnumerationFilter(n, acyclic=True)
    ce = _violation("core_shape", filt, p, progress, workers)
    return SweepOutcome(_dag_count(n), ce)


def verify_theorem_props(
    n: int, progress: Optional[Callable[[int, int], None]] = None
) -> SweepOutcome:
    """Proposition bundle over all 2^(n^2) digraphs at one size: the clique
    proposition at p in {2, 3}, the one part of the bundle that reads a
    whole digraph.

    The bundle's two row lemmas hold for any tuple of rows, so they are
    proved here and checked against brute force by the test suite, not
    swept.  Monotonicity in p: rows meet C(q) iff peel_left leaves fewer
    than q rows (the peel lemma, proved in conditions.peel_left), and fewer
    than q - 1 is fewer than q, so C(q - 1) implies C(q); likewise C'(q) on
    the in-rows.  Foot-set union lemma: let a be a foot of T that lies in U,
    and b a foot of U.  Then row(b) lies in row(a), as a is in U, and
    row(a) in every row of T, so row(b) lies in every row of T u U, and b
    is a foot of T u U.

    The clique proposition holds vacuously off C(p) and C'(p), so at p = 2
    it is checked once per level matrix, in this process, and progress
    steps once per level count.  That settles p = 3 too.  A digraph meeting
    C(3) and C'(3) is a Ferrers digraph or a two-arc matching (the lemma of
    _violation).  A Ferrers digraph meets C(2) and C'(2), and a core of at
    least 3 vertices is a core of at least 2, so the p = 2 check already
    covered it.  A matching's CCE graph has no edge, so its core is empty.
    checked is 2^(n^2).
    """
    check_cap("props", n)
    ce = _violation("clique", EnumerationFilter(n), 2, progress)
    return SweepOutcome(1 << n * n, ce)
