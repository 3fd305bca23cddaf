"""Exhaustive enumeration of labeled digraphs at small n, and the
theorem-verification sweeps built on top of it.

Enumeration is labeled (no isomorphism reduction), arc (u, v) <-> bit
u*n + v.  Sweeps never stop early, so the outcome - including the least-mask
counterexample, were one ever found - is identical for any worker count.

The heavy sweeps work on raw masks and neighborhood rows; Digraph objects
are only materialized for witnesses and reports.  Mask-level logic is
cross-checked against the per-digraph API by the test suite.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .caps import CAP_ENV_VAR, ResourceCapError, resolved_cap
from .digraph import Digraph, ancestors, submasks
from .graphs import (
    SimpleGraph,
    canonical_form,
    complete_plus_isolated,
    graph_from_canonical,
)
from .orders import (
    interval_feasible_masks,
    semiorder_feasible_masks,
)


def _check_cap(n: int, acyclic: bool, cap: Optional[int]) -> None:
    kind = "acyclic" if acyclic else "general"
    limit = cap if cap is not None else resolved_cap(kind)
    if n > limit:
        raise ResourceCapError(
            f"n={n} exceeds the {kind} enumeration cap {limit} "
            f"(override with {CAP_ENV_VAR} or an explicit cap)"
        )


@dataclass(frozen=True)
class EnumerationFilter:
    """Which labeled digraphs on n vertices to generate."""

    n: int
    loopless: bool = False
    acyclic: bool = False


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one verification sweep.

    checked counts the digraphs examined; counterexample is None exactly
    when the swept property held universally, otherwise it carries the
    least-arc-mask offender and a short explanation tag.
    """

    checked: int
    counterexample: Optional[Tuple[Digraph, str]] = None

    @property
    def verified(self) -> bool:
        return self.counterexample is None


# -- mask machinery ------------------------------------------------------------


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


@lru_cache(maxsize=None)
def _transpose_tables(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Per-row tables spreading a row's bits into the transposed positions."""
    tabs = []
    for u in range(n):
        t = [0] * (1 << n)
        for r in range(1 << n):
            m = 0
            rr = r
            while rr:
                low = rr & -rr
                v = low.bit_length() - 1
                m |= 1 << (v * n + u)
                rr ^= low
            t[r] = m
        tabs.append(tuple(t))
    return tuple(tabs)


def _in_rows_of(out_rows: Sequence[int], n: int, nm: int) -> List[int]:
    tabs = _transpose_tables(n)
    trans = 0
    for u in range(n):
        trans |= tabs[u][out_rows[u]]
    return [(trans >> (v * n)) & nm for v in range(n)]


# -- enumeration ---------------------------------------------------------------


def _loopless_mask_count(n: int) -> int:
    return 1 << (n * n - n)


def loopless_mask_at(n: int, counter: int) -> int:
    """Full arc mask of the counter-th loopless digraph (ascending order)."""
    lo, hi, lo_bits, _ = _deposit_tables(n)
    return lo[counter & ((1 << lo_bits) - 1)] | hi[counter >> lo_bits]


def enumerate_digraphs(
    filt: EnumerationFilter, cap: Optional[int] = None
) -> Iterator[Digraph]:
    """Every labeled digraph matching the filter, arc-bitmask ascending.

    The cap is checked eagerly, before the returned iterator is consumed.
    """
    n = filt.n
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    _check_cap(n, filt.acyclic, cap)
    return _enumerate(filt, cap)


def _enumerate(filt: EnumerationFilter, cap: Optional[int]) -> Iterator[Digraph]:
    n = filt.n
    if filt.acyclic:
        masks = dag_masks(n, cap)
    elif filt.loopless:
        masks = (loopless_mask_at(n, c) for c in range(_loopless_mask_count(n)))
    else:
        masks = range(1 << (n * n))
    for mask in masks:
        yield Digraph.from_arc_mask(n, mask)


def _dag_rows(
    n: int, first_rows: Optional[Iterable[int]] = None
) -> Iterator[Tuple[int, List[int], List[int]]]:
    """Every labeled DAG on n vertices as (arc mask, out-rows, in-rows).

    Out-rows are assigned in vertex order.  Vertex v's row walks the
    ascending submasks of the vertices that do not reach v (vertex 0's walks
    first_rows instead, when given), so every branch ends in a DAG and no
    DAG comes twice.  The order is not by mask.  The yielded lists are
    reused: copy them to keep them.
    """
    if n == 0:
        yield 0, [], []
        return
    full = (1 << n) - 1
    out, ins, masks = [0] * n, [0] * n, [0] * (n + 1)
    # rows[v] iterates v's candidate rows; v >= 1 is set on each descent
    rows = [submasks(full & ~1) if first_rows is None else iter(first_rows)] * n
    v = 0
    while v >= 0:
        row = next(rows[v], None)
        bit = 1 << v
        flip = out[v] ^ (0 if row is None else row)
        while flip:                 # in-rows follow the change of v's row
            low = flip & -flip
            ins[low.bit_length() - 1] ^= bit
            flip ^= low
        if row is None:
            out[v] = 0
            v -= 1
            continue
        out[v] = row
        masks[v + 1] = masks[v] | row << (v * n)
        if v == n - 1:
            yield masks[n], out, ins
        else:
            v += 1
            rows[v] = submasks(full & ~(1 << v | ancestors(v, ins)))


def dag_masks(n: int, cap: Optional[int] = None) -> Tuple[int, ...]:
    """Arc masks of all labeled DAGs on n vertices, ascending."""
    _check_cap(n, True, cap)
    return tuple(sorted(mask for mask, _, _ in _dag_rows(n)))


# -- derived adjacency at mask level -------------------------------------------


def _cce_adj(n: int, out: Sequence[int], inc: Sequence[int]) -> List[int]:
    adj = [0] * n
    for x in range(n):
        ox, ix = out[x], inc[x]
        for y in range(x + 1, n):
            if ox & out[y] and ix & inc[y]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return adj


def _competition_adj(n: int, out: Sequence[int]) -> List[int]:
    adj = [0] * n
    for x in range(n):
        ox = out[x]
        for y in range(x + 1, n):
            if ox & out[y]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return adj


def _niche_adj(n: int, out: Sequence[int], inc: Sequence[int]) -> List[int]:
    adj = [0] * n
    for x in range(n):
        ox, ix = out[x], inc[x]
        for y in range(x + 1, n):
            if ox & out[y] or ix & inc[y]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return adj


def _graph_of_adj(n: int, adj: Sequence[int]) -> SimpleGraph:
    edges = [
        (x, y) for x in range(n) for y in range(x + 1, n) if (adj[x] >> y) & 1
    ]
    return SimpleGraph(n, edges)


def _core_is_clique(n: int, adj: Sequence[int]) -> Tuple[int, bool]:
    """(size of the non-isolated part, whether that part is a clique)."""
    core = [v for v in range(n) if adj[v]]
    core_mask = 0
    for v in core:
        core_mask |= 1 << v
    ok = all(adj[v] == core_mask ^ (1 << v) for v in core)
    return len(core), ok


# -- generic chunked scan ------------------------------------------------------
#
# Each sweep provides a checker(n, p, ctx, mask, out_rows, in_rows) returning
# None (digraph fine) or a tag string (violation).  Chunks always scan their
# whole share of the population, so the outcome is worker-count independent;
# the merged counterexample is the least-mask one, taken by min.


def _checker_core_clique(n, p, ctx, mask, out, inc):
    """Under both foot conditions at p, a CCE core of at least p vertices
    must be a clique beside at least 2 isolated vertices: the loopless
    only-if direction, and all of the acyclic classification that can fail
    (see verify_theorem_acyclic)."""
    subsets = ctx["subsets"]
    if _first_empty_foot(out, subsets) is not None:
        return None
    if _first_empty_foot(inc, subsets) is not None:
        return None
    adj = _cce_adj(n, out, inc)
    core, clique = _core_is_clique(n, adj)
    if core < p:
        return None
    if not clique:
        return "CCE core is not a clique"
    if n - core < 2:
        return "CCE graph has fewer than 2 isolated vertices"
    return None


def _first_empty_foot(masks, subsets):
    """First subset with an empty foot set, or None; inlined for sweep speed."""
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


def _first_empty_head(masks, subsets):
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


def _checker_props(n, p, ctx, mask, out, inc):
    # p is unused: the proposition bundle fixes its own levels.
    subsets_by_p = ctx["subsets_by_p"]

    # monotonicity of the foot-set conditions in p, for out- and in-masks
    for masks in (out, inc):
        prev = None
        for q in range(2, n + 1):
            sat = _first_empty_foot(masks, subsets_by_p[q]) is None
            if prev is not None and prev and not sat:
                return f"foot condition held at {q - 1} but not at {q}"
            prev = sat

    # foot-set union lemma over all (T, U) pairs
    full = 1 << n
    inter_tab = ctx["inter_scratch"]
    foot_tab = ctx["foot_scratch"]
    inter_tab[0] = -1                    # AND identity: all-ones
    foot_tab[0] = 0
    for s in range(1, full):
        low = s & -s
        v = low.bit_length() - 1
        inter = inter_tab[s ^ low] & inc[v]
        inter_tab[s] = inter
        m = 0
        ss = s
        while ss:
            lb = ss & -ss
            x = lb.bit_length() - 1
            if inc[x] == inter:
                m |= lb
            ss ^= lb
        foot_tab[s] = m
    for t in range(1, full):
        ft = foot_tab[t]
        if not ft:
            continue
        for u in range(1, full):
            if ft & u and foot_tab[u] & ~foot_tab[t | u]:
                return f"foot-set union lemma fails at T={t:#x}, U={u:#x}"

    # clique proposition at p in {2, 3}
    adj = None
    for pp in (2, 3):
        if pp > n:
            break
        subs = subsets_by_p[pp]
        if _first_empty_foot(out, subs) is not None:
            continue
        if _first_empty_foot(inc, subs) is not None:
            continue
        if adj is None:
            adj = _cce_adj(n, out, inc)
        core, clique = _core_is_clique(n, adj)
        if core >= pp and not clique:
            return f"clique proposition fails at p={pp}"
    return None


_CHECKERS: Dict[str, Callable] = {
    "thm_loopless": _checker_core_clique,
    "thm_acyclic": _checker_core_clique,
    "props": _checker_props,
}


def _make_ctx(sweep: str, n: int, p: int) -> dict:
    if sweep == "props":
        return {
            "subsets_by_p": {
                q: tuple(itertools.combinations(range(n), q))
                for q in range(2, n + 1)
            },
            "inter_scratch": [0] * (1 << n),
            "foot_scratch": [0] * (1 << n),
        }
    return {"subsets": tuple(itertools.combinations(range(n), p))}


def _scan_range(
    sweep: str, n: int, p: int, start: int, stop: int, loopless_space: bool
) -> Tuple[int, Optional[Tuple[int, str]]]:
    """Scan one counter range; returns (checked, least violation or None)."""
    checker = _CHECKERS[sweep]
    ctx = _make_ctx(sweep, n, p)
    nm = (1 << n) - 1
    tabs = _transpose_tables(n)
    row_shift = [v * n for v in range(n)]
    if loopless_space:
        lo, hi, lo_bits, _ = _deposit_tables(n)
        lo_mask = (1 << lo_bits) - 1
    first: Optional[Tuple[int, str]] = None
    for c in range(start, stop):
        mask = (lo[c & lo_mask] | hi[c >> lo_bits]) if loopless_space else c
        out = [(mask >> s) & nm for s in row_shift]
        trans = 0
        for u in range(n):
            trans |= tabs[u][out[u]]
        inc = [(trans >> s) & nm for s in row_shift]
        res = checker(n, p, ctx, mask, out, inc)
        if res is not None and first is None:
            first = (mask, res)
    return stop - start, first


def _scan_dags(
    n: int, p: int, first_rows: Tuple[int, ...]
) -> Tuple[int, Optional[Tuple[int, str]]]:
    """Check the DAGs whose vertex-0 row is in first_rows; returns (checked,
    least violation or None)."""
    checker = _CHECKERS["thm_acyclic"]
    ctx = _make_ctx("thm_acyclic", n, p)
    checked = 0
    first: Optional[Tuple[int, str]] = None
    for mask, out, inc in _dag_rows(n, first_rows):
        checked += 1
        res = checker(n, p, ctx, mask, out, inc)
        if res is not None and (first is None or mask < first[0]):
            first = (mask, res)
    return checked, first


def _range_chunks(
    sweep: str, n: int, p: int, total: int, loopless_space: bool, workers: int
) -> List[tuple]:
    chunks = 1 if total < (1 << 14) else max(workers * 4, 16)
    return [
        (sweep, n, p, total * i // chunks, total * (i + 1) // chunks, loopless_space)
        for i in range(chunks)
    ]


def _run_scan(
    scan: Callable[..., Tuple[int, Optional[Tuple[int, str]]]],
    chunks: Sequence[tuple],
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Tuple[int, Optional[Tuple[int, str]]]:
    """Sum of checked and least violation over scan(*chunk) for every chunk."""
    results = []
    if workers <= 1:
        for i, args in enumerate(chunks):
            results.append(scan(*args))
            if progress:
                progress(i + 1, len(chunks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(scan, *args) for args in chunks]
            for i, fut in enumerate(futures):
                results.append(fut.result())
                if progress:
                    progress(i + 1, len(chunks))
    checked = sum(r[0] for r in results)
    violations = [r[1] for r in results if r[1] is not None]
    first = min(violations) if violations else None
    return checked, first


# -- theorem verifiers ----------------------------------------------------------


def verify_theorem_loopless(
    p: int,
    n: int,
    workers: int = 1,
    cap: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """Both directions of the loopless characterization at one size.

    Only-if: every loopless digraph on n vertices satisfying the two foot
    conditions at level p whose CCE graph has at least p non-isolated
    vertices must be K_r u I_q with r >= p and q >= 2.  If: the explicit
    construction works for every legal (r, q) with r + q = n.
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    _check_cap(n, False, cap)
    chunks = _range_chunks(
        "thm_loopless", n, p, _loopless_mask_count(n), True, workers
    )
    checked, first = _run_scan(_scan_range, chunks, workers, progress)
    if first is not None:
        return SweepOutcome(checked, (Digraph.from_arc_mask(n, first[0]), first[1]))
    ce = _verify_witnesses(p, n)
    return SweepOutcome(checked, ce)


def _verify_witnesses(p: int, n: int) -> Optional[Tuple[Digraph, str]]:
    from .graphs import cce_graph, decompose_kr_iq
    from .witnesses import witness_loopless

    for r in range(p, n - 1):
        q = n - r
        w = witness_loopless(r, q)
        shape = decompose_kr_iq(cce_graph(w))
        if shape is None or (shape.r, shape.q) != (r, q):
            return (w, f"witness CCE graph is not K_{r} u I_{q}")
        subsets = tuple(itertools.combinations(range(n), p))
        if (
            _first_empty_foot(w.out_masks, subsets) is not None
            or _first_empty_foot(w.in_masks, subsets) is not None
        ):
            return (w, f"witness violates a foot condition at p={p}")
    return None


def verify_theorem_acyclic(
    p: int,
    n: int,
    workers: int = 1,
    cap: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """Shape classification of CCE graphs over all labeled DAGs at one size.

    Every DAG satisfying the two foot conditions at level p must have a CCE
    graph that is edgeless, or K_r u I_q with r >= p and q >= 2, or a small
    core (fewer than p vertices, no isolated vertices inside) padded with at
    least dk(core) isolated vertices; the last holds for every DAG, which
    itself realizes its core padded that way, so it is not re-checked.
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    _check_cap(n, True, cap)
    # one chunk per vertex-0 row, the empty row (most DAGs below it) first
    chunks = [(n, p, (row,)) for row in submasks(((1 << n) - 1) & ~1)]
    checked, first = _run_scan(_scan_dags, chunks, workers, progress)
    if first is not None:
        return SweepOutcome(checked, (Digraph.from_arc_mask(n, first[0]), first[1]))
    return SweepOutcome(checked)


@lru_cache(maxsize=None)
def _poset_masks(n: int) -> Tuple[int, ...]:
    """Arc masks of all loopless antisymmetric transitive digraphs on n.

    Any digraph admitting a semiorder or interval representation is one of
    these (chaining the defining inequalities rules out loops, 2-cycles and
    transitivity gaps), so the order-family sweeps only need this space.
    """
    nm = (1 << n) - 1
    pair_choices = []
    for u in range(n):
        for v in range(u + 1, n):
            pair_choices.append((0, 1 << (u * n + v), 1 << (v * n + u)))
    masks = []
    row_shift = [v * n for v in range(n)]
    for combo in itertools.product(*pair_choices):
        mask = 0
        for m in combo:
            mask |= m
        out = [(mask >> s) & nm for s in row_shift]
        transitive = True
        for u in range(n):
            closure = 0
            m = out[u]
            while m:
                low = m & -m
                closure |= out[low.bit_length() - 1]
                m ^= low
            if closure & ~out[u]:
                transitive = False
                break
        if transitive:
            masks.append(mask)
    return tuple(sorted(masks))


def _family_sweep(
    n: int, use_cce: bool, legal_shapes: Dict[int, Tuple[int, int]]
) -> Tuple[int, Optional[Tuple[Digraph, str]]]:
    """Compare order-generated derived-graph classes against a shape family.

    legal_shapes maps canonical form -> (r, q).  Returns (checked, first
    mismatch).  checked counts the antisymmetric loopless candidates that
    cover all possible semiorders/interval orders on n vertices.
    """
    nm = (1 << n) - 1
    row_shift = [v * n for v in range(n)]
    semi_classes: Dict[int, int] = {}
    interval_classes: Dict[int, int] = {}
    for mask in _poset_masks(n):
        out = [(mask >> s) & nm for s in row_shift]
        if not interval_feasible_masks(n, out):
            # semiorders are interval orders; neither family applies
            continue
        inc = _in_rows_of(out, n, nm)
        adj = _cce_adj(n, out, inc) if use_cce else _competition_adj(n, out)
        canon = canonical_form(_graph_of_adj(n, adj))
        interval_classes.setdefault(canon, mask)
        if semiorder_feasible_masks(n, out):
            semi_classes.setdefault(canon, mask)

    checked = 3 ** (n * (n - 1) // 2)
    for canon, mask in sorted(semi_classes.items()):
        if canon not in legal_shapes:
            d = Digraph.from_arc_mask(n, mask)
            return checked, (d, "semiorder derived graph outside the shape family")
    for canon, mask in sorted(interval_classes.items()):
        if canon not in legal_shapes:
            d = Digraph.from_arc_mask(n, mask)
            return checked, (d, "interval-order derived graph outside the shape family")
    for canon, (r, q) in sorted(legal_shapes.items()):
        if canon not in semi_classes:
            return checked, (
                Digraph(n),
                f"shape K_{r} u I_{q} realized by no semiorder",
            )
        if canon not in interval_classes:
            return checked, (
                Digraph(n),
                f"shape K_{r} u I_{q} realized by no interval order",
            )
    # the two order families coincide when both equal the shape family; a
    # direct check keeps the comparison honest even on mismatch paths
    for canon, mask in sorted(interval_classes.items()):
        if canon not in semi_classes:
            d = Digraph.from_arc_mask(n, mask)
            return checked, (
                d,
                "interval-order class not achieved by any semiorder",
            )
    return checked, None


def verify_theorem_main0(
    n: int, workers: int = 1, cap: Optional[int] = None
) -> SweepOutcome:
    """CCE images of semiorders = CCE images of interval orders
    = {K_r u I_q : r >= 2 implies q >= 2}, as isomorphism classes at size n."""
    _check_cap(n, False, cap)
    shapes: Dict[int, Tuple[int, int]] = {
        canonical_form(complete_plus_isolated(0, n)): (0, n)
    }
    for r in range(2, n - 1):
        q = n - r
        if q >= 2:
            shapes[canonical_form(complete_plus_isolated(r, q))] = (r, q)
    checked, ce = _family_sweep(n, True, shapes)
    return SweepOutcome(checked, ce)


def verify_theorem_kr(
    n: int, workers: int = 1, cap: Optional[int] = None
) -> SweepOutcome:
    """Competition-graph analog: shapes K_r u I_q with r >= 2 implies q >= 1."""
    _check_cap(n, False, cap)
    shapes: Dict[int, Tuple[int, int]] = {
        canonical_form(complete_plus_isolated(0, n)): (0, n)
    }
    for r in range(2, n):
        q = n - r
        if q >= 1:
            shapes[canonical_form(complete_plus_isolated(r, q))] = (r, q)
    checked, ce = _family_sweep(n, False, shapes)
    return SweepOutcome(checked, ce)


def verify_theorem_props(
    n: int,
    workers: int = 1,
    cap: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """Proposition bundle over all 2^(n^2) digraphs at one size.

    Checks monotonicity of both foot conditions in p, the foot-set union
    lemma over every (T, U) pair, and the clique proposition at p in {2, 3}.
    """
    _check_cap(n, False, cap)
    chunks = _range_chunks("props", n, 0, 1 << (n * n), False, workers)
    checked, first = _run_scan(_scan_range, chunks, workers, progress)
    if first is not None:
        return SweepOutcome(checked, (Digraph.from_arc_mask(n, first[0]), first[1]))
    return SweepOutcome(checked)


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


def explore_open_problem(
    problem: int,
    p: int,
    n: int,
    workers: int = 1,
    cap: Optional[int] = None,
) -> ExploreReport:
    """Search tooling for the three concluding open problems.

    1: CCE classes of digraphs meeting both foot conditions whose CCE core
       is smaller than p.  2: CCE classes under both head conditions.
       3: niche-graph classes under each of the four conditions separately.
    """
    if problem not in (1, 2, 3):
        raise ValueError(f"problem must be 1, 2 or 3, got {problem}")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    _check_cap(n, False, cap)
    nm = (1 << n) - 1
    row_shift = [v * n for v in range(n)]
    subsets = tuple(itertools.combinations(range(n), p))
    tabs = _transpose_tables(n)

    found: Dict[str, Dict[int, int]] = {}

    def record(section: str, canon: int, mask: int) -> None:
        bucket = found.setdefault(section, {})
        bucket.setdefault(canon, mask)

    total = 1 << (n * n)
    for mask in range(total):
        out = [(mask >> s) & nm for s in row_shift]
        trans = 0
        for u in range(n):
            trans |= tabs[u][out[u]]
        inc = [(trans >> s) & nm for s in row_shift]

        if problem == 1:
            if _first_empty_foot(out, subsets) is not None:
                continue
            if _first_empty_foot(inc, subsets) is not None:
                continue
            adj = _cce_adj(n, out, inc)
            core = sum(1 for v in range(n) if adj[v])
            if core >= p:
                continue
            record("C&Cp", canonical_form(_graph_of_adj(n, adj)), mask)
        elif problem == 2:
            if _first_empty_head(out, subsets) is not None:
                continue
            if _first_empty_head(inc, subsets) is not None:
                continue
            adj = _cce_adj(n, out, inc)
            record("Cs&Csp", canonical_form(_graph_of_adj(n, adj)), mask)
        else:
            niche_canon = None
            for section, masks, finder in (
                ("C", out, _first_empty_foot),
                ("Cp", inc, _first_empty_foot),
                ("Cs", out, _first_empty_head),
                ("Csp", inc, _first_empty_head),
            ):
                if finder(masks, subsets) is None:
                    if niche_canon is None:
                        adj = _niche_adj(n, out, inc)
                        niche_canon = canonical_form(_graph_of_adj(n, adj))
                    record(section, niche_canon, mask)

    sections = {}
    for section, classes in found.items():
        entries = [
            ExploreClass(
                canonical=canon,
                graph=graph_from_canonical(n, canon),
                witness=Digraph.from_arc_mask(n, mask),
            )
            for canon, mask in sorted(classes.items())
        ]
        sections[section] = tuple(entries)
    return ExploreReport(problem, p, n, total, sections)
