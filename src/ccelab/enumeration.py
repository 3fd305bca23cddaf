"""Exhaustive enumeration of digraphs at small n, and the
theorem-verification sweeps built on top of it.

Labeled enumeration: arc (u, v) <-> bit u*n + v.  One generator,
_digraph_rows, yields (mask, out-rows, in-rows) for each of the three spaces
an EnumerationFilter selects (all digraphs, loopless, acyclic) by assigning
out-rows from the top vertex down, so every space comes out in ascending
mask order.  The loopless and acyclic sweeps, the props clique scans and the
explore surveys at p >= 3 run it through a condition gate in one chunk per
top-vertex row, taken in mask order (_run_scan).  The props row lemmas run
once per labeled preorder (_preorder_rows).  These sweeps never stop early,
and the first hit of a sweep (its first counterexample, each class's first
witness) is the least-mask one, so the outcome is identical for any worker
count.

Unlabeled enumeration: at p = 2 each condition says the rows are nested, so
the class sweeps there (main0 and kr over the interval orders, explore at
p = 2 over all Ferrers digraphs) take one representative per isomorphism
class from the level matrices (levels.level_matrices), weighted by its
number of labelings.  They run in one process; their witnesses are least
masks too.

The heavy sweeps work on raw masks and neighborhood rows; Digraph objects
are only materialized for witnesses and reports.  Mask-level logic is
cross-checked against brute-force oracles by the test suite.
"""

from __future__ import annotations

import itertools
import math
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .caps import check_cap
from .conditions import ConditionKind, first_empty_foot, first_empty_head
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
from .levels import least_relabeled_mask, level_counts, level_matrices
# interval_feasible_masks serves no sweep: bench/tracer.py wraps it under this
# module until ROADMAP item 3's benchmark change drops the hook
from .orders import cuts_intransitive, interval_feasible_masks, semiorder_feasible_masks


@dataclass(frozen=True)
class EnumerationFilter:
    """Which labeled digraphs on n vertices to generate."""

    n: int
    loopless: bool = False
    acyclic: bool = False


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one verification sweep.

    checked is the size of the swept space, in closed form: 2^(n(n-1))
    loopless digraphs, A003024(n) DAGs (_dag_count), 2^(n^2) digraphs for
    props and explore; for the order-family sweeps it is the labeled
    interval orders (A079144), the summed weights of the Fishburn matrices
    they sweep.
    counterexample carries the least-arc-mask offender (the first a labeled
    sweep meets) and a short explanation tag; missing_shape is (r, q, family) when
    an order-family sweep finds that no order of the family realizes
    K_r u I_q, a failure no single digraph witnesses.  The swept property
    held universally exactly when both are None.
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


@lru_cache(maxsize=None)
def _gate_tables(n: int, p: int) -> Tuple[tuple, tuple]:
    """The p-sets a _condition_gate tests on n vertices at level p:
    (closing[v] on the out-rows, touched[row] on the in-rows)."""
    subsets = tuple(itertools.combinations(range(n), p))
    # the p-sets whose out-rows vertex v's row completes: rows are assigned
    # from the top vertex down, so those whose lowest member is v
    closing = tuple(tuple(s for s in subsets if s[0] == v) for v in range(n))
    # Vertex v's row adds v to its members' in-rows only.  A p-set outside
    # the row keeps its parent's verdict, and one inside it gains v in every
    # member, which changes no containment; so past a parent that passed,
    # only the p-sets the row splits need a test.
    touched = tuple(
        tuple(s for s in subsets if 0 < sum(row >> x & 1 for x in s) < p)
        for row in range(1 << n)
    )
    return closing, touched


def _condition_gate(
    n: int, p: int, kinds: Sequence[ConditionKind]
) -> Callable[[int, Sequence[int], Sequence[int]], bool]:
    """The _digraph_rows gate cuts(v, out, ins) of a condition sweep: True
    iff, on the rows assigned down to v, some p-set has an empty foot or
    head set, as the condition kinds ask (at most one kind on the out-rows
    and one on the in-rows).

    A cut is final.  The out-rows of a p-set among the assigned vertices are
    final.  On the in-rows, a member x is not a foot (head) of S through an
    assigned source u in in(x) minus in(y) (in(y) minus in(x)) for some y
    in S, and later rows leave u in place.  So every digraph below a cut
    fails a condition of the kinds, and every leaf still yielded meets all.
    """
    # whether a kind reads the in-rows -> its test; a side without a kind
    # never cuts
    tests = {
        k.uses_in_masks: first_empty_head if k.uses_head else first_empty_foot
        for k in kinds
    }
    never = lambda masks, subsets: None
    out_empty, in_empty = tests.get(False, never), tests.get(True, never)
    closing, touched = _gate_tables(n, p)

    def cuts(v: int, out: Sequence[int], ins: Sequence[int]) -> bool:
        return (
            out_empty(out, closing[v]) is not None
            or in_empty(ins, touched[out[v]]) is not None
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


def dag_masks(n: int) -> Tuple[int, ...]:
    """Arc masks of all labeled DAGs on n vertices, ascending."""
    check_cap("acyclic", n)
    filt = EnumerationFilter(n, acyclic=True)
    return tuple(mask for mask, _, _ in _digraph_rows(filt))


# -- chunked scan ----------------------------------------------------------------
#
# Each sweep provides a checker(n, p, mask, out_rows, in_rows) returning None
# or a key: a violation tag or a class.  A sweep is cut into one chunk per
# level p and top-vertex row; chunks always scan their whole share of the
# space, so the outcome is worker-count independent.
# Each chunk keeps the first mask per key, and within a level each chunk
# lies wholly above the one before it, so merging the chunks' keys in chunk
# order keeps each key's least mask, and the merged first key is the
# least-mask counterexample of the first level that has one.  A checker
# passes every digraph failing a condition of its sweep's kinds, so the
# scan's gate cuts those branches instead of visiting them.


@lru_cache(maxsize=None)
def _canon(adj: Tuple[int, ...]) -> int:
    """The canonical form of the graph with the given adjacency rows; each
    class sweep clears the cache as it starts, so it computes each form of
    the sweep once (per worker process)."""
    return canonical_form(graph_of_adj(adj))


def _checker_core_shape(n, p, mask, out, inc):
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
    if n - core < 2:
        return "CCE graph has fewer than 2 isolated vertices"
    return None


def _checker_clique(n, p, mask, out, inc):
    """The clique proposition at p, for a digraph meeting both foot
    conditions at p, as every leaf of a foot-gated scan does: a CCE core of
    at least p vertices is a clique."""
    core, clique = core_clique(cce_adj(out, inc))
    return f"clique proposition fails at p={p}" if core >= p and not clique else None


def _checker_small_core_class(n, p, mask, out, inc):
    """The CCE class of a digraph whose CCE core has fewer than p vertices."""
    adj = cce_adj(out, inc)
    return _canon(tuple(adj)) if sum(1 for row in adj if row) < p else None


_CHECKERS: Dict[str, Callable] = {
    "core_shape": _checker_core_shape,
    "clique": _checker_clique,
    "small_core_class": _checker_small_core_class,
    "cce_class": lambda n, p, mask, out, inc: _canon(tuple(cce_adj(out, inc))),
    "niche_class": lambda n, p, mask, out, inc: _canon(tuple(niche_adj(out, inc))),
}


def _scan(
    sweep: str,
    filt: EnumerationFilter,
    kinds: Sequence[ConditionKind],
    chunk: Tuple[int, int],
) -> Tuple[int, Dict[object, int]]:
    """Check the digraphs of the space that meet the condition kinds at p and
    whose top-vertex row is first_row, for chunk = (p, first_row); returns
    (leaves visited, first mask per key)."""
    p, first_row = chunk
    checker = _CHECKERS[sweep]
    n = filt.n
    leaves = 0
    found: Dict[object, int] = {}
    for mask, out, inc in _digraph_rows(filt, first_row, _condition_gate(n, p, kinds)):
        leaves += 1
        key = checker(n, p, mask, out, inc)
        if key is not None:
            found.setdefault(key, mask)
    return leaves, found


def _run_scan(
    sweep: str,
    filt: EnumerationFilter,
    levels: Sequence[int],
    kinds: Sequence[ConditionKind],
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Tuple[int, Dict[object, int]]:
    """Sum of leaves, and each key's first mask, over one _scan per level p
    and top-vertex row, merged in chunk order (level by level, one pool for
    all)."""
    chunks = [(p, row) for p in levels for row in _first_rows(filt)]
    leaves, found = 0, {}
    with ExitStack() as stack:
        mapper = map
        if workers > 1:
            # imported here, so that commands which start no pool never load it
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        results = mapper(partial(_scan, sweep, filt, kinds), chunks)
        for i, (chunk_leaves, chunk_found) in enumerate(results, 1):
            leaves += chunk_leaves
            for key, mask in chunk_found.items():
                found.setdefault(key, mask)
            if progress:
                progress(i, len(chunks))
    return leaves, found


def _first_violation(n: int, found: Dict[str, int]) -> Optional[Tuple[Digraph, str]]:
    """The merged first violation of _run_scan as (digraph, tag), or None."""
    return next(((Digraph.from_arc_mask(n, m), tag) for tag, m in found.items()), None)


# -- theorem verifiers ----------------------------------------------------------


def verify_theorem_loopless(
    p: int,
    n: int,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """Both directions of the loopless characterization at one size.

    Only-if: every loopless digraph on n vertices satisfying the two foot
    conditions at level p whose CCE graph has at least p non-isolated
    vertices must be K_r u I_q with r >= p and q >= 2.  If: the explicit
    construction works for every legal (r, q) with r + q = n.  The foot
    gate cuts the digraphs that fail a condition; checked is 2^(n(n-1)).
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    check_cap("loopless", n)
    filt = EnumerationFilter(n, loopless=True)
    _, found = _run_scan("core_shape", filt, (p,), _FOOT, workers, progress)
    return SweepOutcome(
        1 << n * (n - 1), _first_violation(n, found) or _verify_witnesses(p, n)
    )


def _verify_witnesses(p: int, n: int) -> Optional[Tuple[Digraph, str]]:
    from .graphs import cce_graph, decompose_kr_iq
    from .witnesses import witness_loopless

    subsets = tuple(itertools.combinations(range(n), p))
    for r in range(p, n - 1):
        q = n - r
        w = witness_loopless(r, q)
        shape = decompose_kr_iq(cce_graph(w))
        if shape is None or (shape.r, shape.q) != (r, q):
            return (w, f"witness CCE graph is not K_{r} u I_{q}")
        if any(first_empty_foot(rows, subsets) for rows in (w.out_masks, w.in_masks)):
            return (w, f"witness violates a foot condition at p={p}")
    return None


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
    itself realizes its core padded that way, so it is not re-checked.  The
    foot gate cuts the DAGs that fail a condition; checked is _dag_count(n).
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    check_cap("acyclic", n)
    filt = EnumerationFilter(n, acyclic=True)
    _, found = _run_scan("core_shape", filt, (p,), _FOOT, workers, progress)
    return SweepOutcome(_dag_count(n), _first_violation(n, found))


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
    levels = level_counts(n, True)
    for i, k in enumerate(levels, 1):
        for weight, out, inc in level_matrices(n, True, (k,)):
            checked += weight
            canon = canon_of(out, inc)
            interval_classes.add(canon)
            if canon not in semi_classes and semiorder_feasible_masks(n, out):
                semi_classes.add(canon)
        if progress:
            progress(i, len(levels))
    for family, classes in (
        ("semiorder", semi_classes),
        ("interval-order", interval_classes),
    ):
        outside = sorted(classes - legal_shapes.keys())
        if outside:
            mask = min(
                least_relabeled_mask(n, out, inc)
                for _, out, inc in level_matrices(n, True)
                if canon_of(out, inc) == outside[0]
                and (family != "semiorder" or semiorder_feasible_masks(n, out))
            )
            tag = f"{family} derived graph outside the shape family"
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
    n: int,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """CCE images of semiorders = CCE images of interval orders
    = {K_r u I_q : r >= 2 implies q >= 2}, as isomorphism classes at size n.
    The class sweep runs in this process: workers is taken for the common
    verify signature and splits nothing."""
    check_cap("order", n)
    return _family_sweep(n, True, _kr_iq_shapes(n, 2), progress)


def verify_theorem_kr(
    n: int,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """Competition-graph analog: shapes K_r u I_q with r >= 2 implies q >= 1;
    workers splits nothing, as for verify_theorem_main0."""
    check_cap("order", n)
    return _family_sweep(n, False, _kr_iq_shapes(n, 1), progress)


def _preorder_rows(n: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Every labeled preorder on n as (arc mask, down-set rows): the
    loopless rows of _digraph_rows that are transitive with x added to
    row[x], so the masks ascend (OEIS A000798: 1, 4, 29, 355, 6942)."""
    diagonal = sum(1 << x * (n + 1) for x in range(n))
    filt = EnumerationFilter(n, loopless=True)
    for mask, out, _ in _digraph_rows(filt, gate=cuts_intransitive):
        yield mask | diagonal, tuple(row | 1 << x for x, row in enumerate(out))


def _row_lemma_failure(n: int, rows: Sequence[int]) -> Optional[str]:
    """The tag of the first row lemma the rows break, or None: foot-condition
    monotonicity in p, then the foot-set union lemma over all (T, U) pairs.
    The foot condition fails at q exactly when some q-set has no foot."""
    full = 1 << n
    inter, feet = [-1] * full, [0] * full   # per set: AND of its rows, its feet
    for s in range(1, full):
        low = s & -s
        inter[s] = meet = inter[s ^ low] & rows[low.bit_length() - 1]
        feet[s] = sum(1 << x for x in range(n) if s >> x & 1 and rows[x] == meet)
    footless = {bin(s).count("1") for s in range(1, full) if not feet[s]}
    for q in range(3, n + 1):
        if q in footless and q - 1 not in footless:
            return f"foot condition held at {q - 1} but not at {q}"
    for t in range(1, full):
        ft = feet[t]
        if not ft:
            continue
        for u in range(1, full):
            if ft & u and feet[u] & ~feet[t | u]:
                return f"foot-set union lemma fails at T={t:#x}, U={u:#x}"
    return None


def verify_theorem_props(
    n: int,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """Proposition bundle over all 2^(n^2) digraphs at one size.

    Checks monotonicity of both foot conditions in p, the foot-set union
    lemma over every (T, U) pair, and the clique proposition at p in {2, 3}.
    x is a foot of S iff row(x) lies in row(y) for every y in S, so the
    lemmas read out-rows and in-rows only through their containment
    preorder.  Every row tuple is a digraph's out-rows and another's
    in-rows, so they run once per labeled preorder, and a failure reports
    the digraph whose out-rows are the failing preorder's down-set rows.
    The clique proposition holds vacuously off C(p) and C'(p), so it is
    scanned on the foot-gated space at p = 2, then p = 3; checked is 2^(n^2).
    """
    check_cap("props", n)
    ce = None
    for mask, rows in _preorder_rows(n):
        tag = _row_lemma_failure(n, rows)
        if tag is not None:
            ce = (Digraph.from_arc_mask(n, mask), tag)
            break
    filt, levels = EnumerationFilter(n), range(2, min(n, 3) + 1)
    _, found = _run_scan("clique", filt, levels, _FOOT, workers, progress)
    return SweepOutcome(1 << n * n, ce or _first_violation(n, found))


# -- open-problem exploration ----------------------------------------------------


@dataclass(frozen=True)
class ExploreClass:
    """One isomorphism class found by an exploration sweep."""

    canonical: int
    graph: SimpleGraph
    witness: Digraph


@dataclass(frozen=True)
class ExploreReport:
    """Isomorphism classes (with least-mask witnesses) per section."""

    problem: int
    p: int
    n: int
    checked: int
    sections: Dict[str, Tuple[ExploreClass, ...]] = field(default_factory=dict)


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
    classes = {
        checker(n, 2, sum(row << v * n for v, row in enumerate(out)), out, inc)
        for _, out, inc in level_matrices(n, False)
    } - {None}
    found: Dict[int, int] = {}
    gate = _condition_gate(n, 2, (ConditionKind.C,))
    for mask, out, inc in _digraph_rows(EnumerationFilter(n), gate=gate):
        if len(found) == len(classes):
            break
        key = checker(n, 2, mask, out, inc)
        if key is not None:
            found.setdefault(key, mask)
    return found


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
            _, classes = _run_scan(sweep, EnumerationFilter(n), (p,), kinds, workers)
        sections[section] = tuple(
            ExploreClass(c, graph_from_canonical(n, c), Digraph.from_arc_mask(n, m))
            for c, m in sorted(classes.items())
        )
    return ExploreReport(problem, p, n, 1 << n * n, sections)
