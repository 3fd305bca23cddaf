"""Exhaustive enumeration of digraphs at small n, and the
theorem-verification sweeps built on top of it.

Labeled enumeration: arc (u, v) <-> bit u*n + v.  One generator,
_digraph_rows, yields (mask, out-rows, in-rows) for each of the three spaces
an EnumerationFilter selects (all digraphs, loopless, acyclic) by assigning
out-rows from the top vertex down, so every space comes out in ascending
mask order.  The loopless and acyclic sweeps at p >= 4 and the explore
surveys at p >= 3 run it through a condition gate, which cuts a branch once
its assigned rows fail a condition by the peel lemma (conditions.peel_left),
in one chunk per top-vertex row, taken in mask order (_run_scan); only these
take a worker count; a theorem sweep skips the scan when p > n (_violation).
These sweeps never stop early, and the first hit of a sweep (its first
counterexample, each class's first witness) is the least-mask one, so the
outcome is identical for any worker count.

Unlabeled enumeration: at p = 2 each condition says the rows are nested, so
every p = 2 sweep (loopless, acyclic and main0/kr over the interval orders,
the props clique scan and explore over all Ferrers digraphs) takes one
representative per isomorphism class from the level matrices
(levels.level_matrices), weighted by its number of labelings.  The loopless
and acyclic sweeps at p = 3 take the same representatives: the other
digraphs meeting C(3) and C'(3) are two-arc matchings, which no theorem
checker can flag (_violation).  They run in one process; their
counterexamples and witnesses are least masks too.

The heavy sweeps work on raw masks and neighborhood rows; Digraph objects
are only materialized for witnesses and reports.  Mask-level logic is
cross-checked against brute-force oracles by the test suite.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from functools import lru_cache, partial
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .caps import check_cap
from .conditions import ConditionKind, peel_left
from .digraph import Digraph, ancestors, submasks
from .graphs import (
    SimpleGraph,
    canonical_form,
    cce_adj,
    competition_adj,
    complete_plus_isolated,
    core_clique,
    graph_from_canonical,
    graph_of_adj,
    niche_adj,
)
from .levels import least_tagged_relabeling, level_matrices
# interval_feasible_masks serves no sweep: bench/tracer.py wraps it under this
# module until ROADMAP item 3's benchmark change drops the hook
from .orders import interval_feasible_masks, semiorder_feasible_masks


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


# -- enumeration ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _deposit_tables(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], int, int]:
    """Tables mapping a compact loopless counter to a full arc mask.

    The counter's bit i lands on the i-th off-diagonal position (ascending),
    so counter order equals arc-mask order.  Split in two halves so the
    expansion is two table lookups.
    """
    positions = [u * n + v for u in range(n) for v in range(n) if u != v]
    k = len(positions)
    lo_bits = (k + 1) // 2
    lo_pos = positions[:lo_bits]
    hi_pos = positions[lo_bits:]

    def table(pos: List[int]) -> Tuple[int, ...]:
        out = []
        for c in range(1 << len(pos)):
            m = 0
            for i, bit_pos in enumerate(pos):
                if (c >> i) & 1:
                    m |= 1 << bit_pos
            out.append(m)
        return tuple(out)

    return table(lo_pos), table(hi_pos), lo_bits, k


def loopless_mask_at(n: int, counter: int) -> int:
    """Full arc mask of the counter-th loopless digraph (ascending order)."""
    lo, hi, lo_bits, _ = _deposit_tables(n)
    return lo[counter & ((1 << lo_bits) - 1)] | hi[counter >> lo_bits]


def enumerate_digraphs(filt: EnumerationFilter) -> Iterator[Digraph]:
    """Every labeled digraph matching the filter, arc-bitmask ascending.

    The cap is checked eagerly, before the returned iterator is consumed;
    the digraphs are generated as they are consumed.
    """
    n = filt.n
    check_cap("acyclic" if filt.acyclic else "general", n)
    return (Digraph.from_arc_mask(n, mask) for mask, _, _ in _digraph_rows(filt))


def _row_rule(filt: EnumerationFilter) -> Callable[[int, Sequence[int]], int]:
    """allowed(v, ins): the vertices v's out-row may contain, given the
    in-rows of the out-rows already assigned to the vertices above v."""
    full = (1 << filt.n) - 1
    if filt.acyclic:
        return lambda v, ins: full & ~(1 << v | ancestors(v, ins))
    if filt.loopless:
        return lambda v, ins: full & ~(1 << v)
    return lambda v, ins: full


def _first_rows(filt: EnumerationFilter) -> Iterator[int]:
    """The top vertex's candidate out-rows, ascending."""
    n = filt.n
    return submasks(_row_rule(filt)(n - 1, [0] * n) if n else 0)


_FOOT = (ConditionKind.C, ConditionKind.C_PRIME)


def _condition_gate(
    p: int, kinds: Sequence[ConditionKind]
) -> Callable[[int, Sequence[int], Sequence[int]], bool]:
    """The _digraph_rows gate cuts(v, out, ins) of a condition sweep: True
    iff the rows assigned down to v fail a condition of the kinds at p (at
    most one kind on the out-rows and one on the in-rows), by peel_left.

    A cut is final.  The assigned out-rows are final, and each condition is
    hereditary: a p-set of the assigned vertices is a p-set of every leaf
    below.  ins holds each in-row restricted to the assigned sources.  If x
    is not a foot of S there because some y in S has a source u in in(x)
    minus in(y), later rows leave u in place, so x never becomes a foot of
    S; heads are the dual case, with u in in(y) minus in(x).  So every
    digraph below a cut fails a condition of the kinds, and every leaf still
    yielded meets all.  A branch reaches v only past gates that passed, so
    this gate cuts exactly where a test of only the p-sets that v's row
    completes or changes would: the same leaves in the same order.
    """
    # whether a kind reads the in-rows -> whether it asks for heads
    sides = {k.uses_in_masks: k.uses_head for k in kinds}
    out_head, in_head = sides.get(False), sides.get(True)

    def cuts(v: int, out: Sequence[int], ins: Sequence[int]) -> bool:
        return (
            out_head is not None and peel_left(out[v:], out_head) >= p
            or in_head is not None and peel_left(ins, in_head) >= p
        )

    return cuts


def _digraph_rows(
    filt: EnumerationFilter,
    first_row: Optional[int] = None,
    gate: Optional[Callable[[int, Sequence[int], Sequence[int]], bool]] = None,
) -> Iterator[Tuple[int, List[int], List[int]]]:
    """Every labeled digraph of the filter's space as (arc mask, out-rows,
    in-rows); the loopless flag is implied by the acyclic one.

    Out-rows are assigned from vertex n - 1 down to 0, each walking the
    ascending submasks of what _row_rule allows (the top vertex's row is
    first_row alone, when given), so every branch ends in a digraph of the
    space and none comes twice.  Vertex v's row holds bits v*n .. v*n + n - 1,
    so the digraphs come out in ascending mask order.  In-rows follow each
    row change.  A gate, when given, sees each branch after each row and may
    cut it; the leaves it leaves are still ascending.  The yielded lists are
    reused: copy them to keep them.
    """
    n = filt.n
    if n == 0:
        yield 0, [], []
        return
    allowed = _row_rule(filt)
    # masks[v] holds the arcs of the rows of v .. n - 1
    out, ins, masks = [0] * n, [0] * n, [0] * (n + 1)
    # rows[v] iterates v's candidate rows; v < n - 1 is set on each descent
    rows = [_first_rows(filt) if first_row is None else iter((first_row,))] * n
    v = n - 1
    while v < n:
        row = next(rows[v], None)
        bit = 1 << v
        flip = out[v] ^ (0 if row is None else row)
        while flip:                 # in-rows follow the change of v's row
            low = flip & -flip
            ins[low.bit_length() - 1] ^= bit
            flip ^= low
        if row is None:
            out[v] = 0
            v += 1
            continue
        out[v] = row
        masks[v] = masks[v + 1] | row << (v * n)
        if gate is not None and gate(v, out, ins):
            continue                # cut by the gate
        if v == 0:
            yield masks[0], out, ins
        else:
            v -= 1
            rows[v] = submasks(allowed(v, ins))


@lru_cache(maxsize=None)
def _dag_count(n: int) -> int:
    """Labeled DAGs on n vertices (OEIS A003024) by Robinson's recurrence:
    inclusion-exclusion over the k-sets of sources."""
    return 1 if n == 0 else sum(
        (-1) ** (k + 1) * math.comb(n, k) * 2 ** (k * (n - k)) * _dag_count(n - k)
        for k in range(1, n + 1)
    )


def dag_masks(n: int) -> Iterator[int]:
    """Arc masks of all labeled DAGs on n vertices, ascending; like
    enumerate_digraphs, it checks the cap eagerly and streams the masks."""
    check_cap("acyclic", n)
    return (mask for mask, _, _ in _digraph_rows(EnumerationFilter(n, acyclic=True)))


# -- chunked scan ----------------------------------------------------------------
#
# Each sweep provides a checker(p, out_rows, in_rows) returning None or a
# key: a violation tag or a class; n is len(out_rows).  A labeled scan at
# level p is cut into one chunk per top-vertex row, and each chunk scans its
# whole share, so the outcome is worker-count independent.  Each chunk keeps
# the first mask per key and lies wholly above the one before it, so merging
# the chunks' keys in chunk order keeps each key's least mask; the first
# merged key is the least-mask counterexample.  A checker passes every
# digraph failing a condition of its sweep's kinds, so the gate cuts those
# branches unvisited.


@lru_cache(maxsize=None)
def _canon(adj: Tuple[int, ...]) -> int:
    """The canonical form of the graph with the given adjacency rows; each
    class sweep clears the cache as it starts, so it computes each form of
    the sweep once (per worker process)."""
    return canonical_form(graph_of_adj(adj))


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


def _checker_small_core_class(p, out, inc):
    """The CCE class of a digraph whose CCE core has fewer than p vertices."""
    adj = cce_adj(out, inc)
    return _canon(tuple(adj)) if sum(1 for row in adj if row) < p else None


# A checker run at p = 2 or 3 sees one representative per isomorphism class
# of Ferrers digraphs (_violation), so it must give every relabeling of a
# digraph the same key.  One that _violation runs must also pass every
# digraph whose CCE core has fewer than p vertices, as core_shape and clique
# do: it never sees the two-arc matchings at p = 3, whose CCE graph is
# edgeless, nor any digraph at p >= 4 when p > n.
_CHECKERS: Dict[str, Callable] = {
    "core_shape": _checker_core_shape,
    "clique": _checker_clique,
    "small_core_class": _checker_small_core_class,
    "cce_class": lambda p, out, inc: _canon(tuple(cce_adj(out, inc))),
    "niche_class": lambda p, out, inc: _canon(tuple(niche_adj(out, inc))),
}


def _scan(
    sweep: str,
    filt: EnumerationFilter,
    p: int,
    kinds: Sequence[ConditionKind],
    first_row: Optional[int] = None,
    keys: Optional[int] = None,
) -> Dict[object, int]:
    """Check, in ascending mask order, the digraphs of the space that meet
    the condition kinds at p and whose top-vertex row is first_row (any row
    when None); returns the first mask per key.  Given keys, it stops once
    it has found that many keys."""
    checker = _CHECKERS[sweep]
    found: Dict[object, int] = {}
    for mask, out, inc in _digraph_rows(filt, first_row, _condition_gate(p, kinds)):
        key = checker(p, out, inc)
        if key is not None:
            found.setdefault(key, mask)
            if len(found) == keys:
                break
    return found


def _run_scan(
    sweep: str,
    filt: EnumerationFilter,
    p: int,
    kinds: Sequence[ConditionKind],
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Dict[object, int]:
    """Each key's first mask over one _scan per top-vertex row, merged in
    chunk order."""
    chunks = list(_first_rows(filt))
    found: Dict[object, int] = {}
    with ExitStack() as stack:
        mapper = map
        if workers > 1:
            # imported here, so that commands which start no pool never load it
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        results = mapper(partial(_scan, sweep, filt, p, kinds), chunks)
        for i, chunk_found in enumerate(results, 1):
            for key, mask in chunk_found.items():
                found.setdefault(key, mask)
            if progress:
                progress(i, len(chunks))
    return found


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
    n, checker = filt.n, _CHECKERS[sweep]
    if p <= 3:
        matrices = level_matrices(n, filt.loopless or filt.acyclic, progress)
        least = least_tagged_relabeling(n, matrices, partial(checker, p))
    elif p > n:
        return None
    else:
        found = _run_scan(sweep, filt, p, _FOOT, workers, progress)
        least = next(((m, tag) for tag, m in found.items()), None)
    return least and (Digraph.from_arc_mask(n, least[0]), least[1])


# -- theorem verifiers ----------------------------------------------------------


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


def _family_sweep(
    n: int,
    use_cce: bool,
    legal_shapes: Dict[int, Tuple[int, int]],
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """Compare order-generated derived-graph classes against a shape family.

    legal_shapes maps canonical form -> (r, q).  The classes are those of
    the CCE (use_cce) or competition graphs of the interval orders, one
    Fishburn matrix per unlabeled order; checked sums their weights, the
    labeled interval orders.  A representative is tested for a semiorder
    only while its class has none.  On failure only, the witness is the
    least mask over the relabelings of the failing class's matrices within
    the reported family, the least-mask member of the class.  Progress
    steps once per level count."""
    _canon.cache_clear()

    def canon_of(out: Sequence[int], inc: Sequence[int]) -> int:
        return _canon(tuple(cce_adj(out, inc) if use_cce else competition_adj(out)))

    checked, interval_classes, semi_classes = 0, set(), set()
    for weight, out, inc in level_matrices(n, True, progress):
        checked += weight
        canon = canon_of(out, inc)
        interval_classes.add(canon)
        if canon not in semi_classes and semiorder_feasible_masks(n, out):
            semi_classes.add(canon)
    for family, classes in (
        ("semiorder", semi_classes),
        ("interval-order", interval_classes),
    ):
        outside = sorted(classes - legal_shapes.keys())
        if outside:
            tag = f"{family} derived graph outside the shape family"

            def member(out: List[int], inc: List[int]) -> Optional[str]:
                in_class = canon_of(out, inc) == outside[0]
                if in_class and family == "semiorder":
                    in_class = semiorder_feasible_masks(n, out)
                return tag if in_class else None

            mask, _ = least_tagged_relabeling(n, level_matrices(n, True), member)
            return SweepOutcome(checked, (Digraph.from_arc_mask(n, mask), tag))
    # semiorder classes are interval-order classes, so a shape no interval
    # order realizes is reported for the larger family; past this loop both
    # families equal the shape family
    for canon, (r, q) in sorted(legal_shapes.items()):
        for family, classes in (
            ("interval order", interval_classes),
            ("semiorder", semi_classes),
        ):
            if canon not in classes:
                return SweepOutcome(checked, missing_shape=(r, q, family))
    return SweepOutcome(checked)


def _kr_iq_shapes(n: int, q_min: int) -> Dict[int, Tuple[int, int]]:
    """canonical form -> (r, q) for I_n and each K_r u I_q on n vertices
    with r >= 2 and q >= q_min."""
    shapes = {canonical_form(complete_plus_isolated(0, n)): (0, n)}
    for r in range(2, n - q_min + 1):
        shapes[canonical_form(complete_plus_isolated(r, n - r))] = (r, n - r)
    return shapes


def verify_theorem_main0(
    n: int, progress: Optional[Callable[[int, int], None]] = None
) -> SweepOutcome:
    """CCE images of semiorders = CCE images of interval orders
    = {K_r u I_q : r >= 2 implies q >= 2}, as isomorphism classes at size n."""
    check_cap("order", n)
    return _family_sweep(n, True, _kr_iq_shapes(n, 2), progress)


def verify_theorem_kr(
    n: int, progress: Optional[Callable[[int, int], None]] = None
) -> SweepOutcome:
    """Competition-graph analog: shapes K_r u I_q with r >= 2 implies q >= 1."""
    check_cap("order", n)
    return _family_sweep(n, False, _kr_iq_shapes(n, 1), progress)


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


# -- open-problem exploration ----------------------------------------------------


class ExploreClass(NamedTuple):
    """One isomorphism class found by an exploration sweep."""

    canonical: int
    graph: SimpleGraph
    witness: Digraph


class ExploreReport(NamedTuple):
    """Isomorphism classes (with least-mask witnesses) per section."""

    problem: int
    p: int
    n: int
    checked: int
    sections: Dict[str, Tuple[ExploreClass, ...]]


# problem -> section -> (the condition kinds the section's digraphs meet at
# p, the checker giving their class)
_EXPLORE = {
    1: {"C&Cp": (_FOOT, "small_core_class")},
    2: {"Cs&Csp": ((ConditionKind.C_STAR, ConditionKind.C_STAR_PRIME), "cce_class")},
    3: {kind.value: ((kind,), "niche_class") for kind in ConditionKind},
}


def _ferrers_classes(sweep: str, n: int) -> Dict[int, int]:
    """Each class the checker gives at p = 2, with its least mask.

    At p = 2 every section sweeps the Ferrers digraphs, so the classes are
    the checker's keys over the level matrices.  Their witnesses come from
    the ascending labeled scan of that space, gated by C(2), which stops at
    the leaf that gives the last class its witness."""
    checker = _CHECKERS[sweep]
    classes = {checker(2, out, inc)
               for _, out, inc in level_matrices(n, False)} - {None}
    return _scan(sweep, EnumerationFilter(n), 2, (ConditionKind.C,), keys=len(classes))


def explore_open_problem(
    problem: int,
    p: int,
    n: int,
    workers: int = 1,
) -> ExploreReport:
    """Search tooling for the three concluding open problems.

    1: CCE classes of digraphs meeting both foot conditions whose CCE core
       is smaller than p.  2: CCE classes under both head conditions.
       3: niche-graph classes under each of the four conditions separately.
    checked is all 2^(n^2) digraphs.  At p = 2 the four conditions all say
    the rows are nested, so the sections of one checker share one class set
    from _ferrers_classes, in this process.  At p >= 3 each section is one
    gated sweep, split over workers.
    """
    if problem not in _EXPLORE:
        raise ValueError(f"problem must be 1, 2 or 3, got {problem}")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    check_cap("explore", n)
    _canon.cache_clear()
    sections, ferrers = {}, {}
    for section, (kinds, sweep) in _EXPLORE[problem].items():
        if p == 2:
            if sweep not in ferrers:
                ferrers[sweep] = _ferrers_classes(sweep, n)
            classes = ferrers[sweep]
        else:
            classes = _run_scan(sweep, EnumerationFilter(n), p, kinds, workers)
        sections[section] = tuple(
            ExploreClass(c, graph_from_canonical(n, c), Digraph.from_arc_mask(n, m))
            for c, m in sorted(classes.items())
        )
    return ExploreReport(problem, p, n, 1 << n * n, sections)
