"""Independent brute-force oracles for the test suite.

Everything here recomputes results straight from definitions (double loops
over raw arc sets, grid searches over representation values, permutation
generation of DAGs) without touching the package's bitmask cores, so
agreement is meaningful.  Expensive tables are memoized per vertex count.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from ccelab import Digraph, SimpleGraph

Arc = Tuple[int, int]


# -- definitional derived graphs -------------------------------------------------


def _neighbor_sets(d: Digraph):
    outs = [set() for _ in range(d.n)]
    ins = [set() for _ in range(d.n)]
    for u, v in d.arcs:
        outs[u].add(v)
        ins[v].add(u)
    return outs, ins


def derived_edges_oracle(d: Digraph):
    """(competition, cce, niche) edge sets by the two-nested-loop definition."""
    outs, ins = _neighbor_sets(d)
    comp, cce, niche = set(), set(), set()
    for x in range(d.n):
        for y in range(x + 1, d.n):
            prey = bool(outs[x] & outs[y])
            enemy = bool(ins[x] & ins[y])
            if prey:
                comp.add((x, y))
            if prey and enemy:
                cce.add((x, y))
            if prey or enemy:
                niche.add((x, y))
    return comp, cce, niche


def foot_head_oracle(d: Digraph, members: Iterable[int]):
    """(F+, F-, H+, H-) of a vertex set by direct subset comparisons."""
    outs, ins = _neighbor_sets(d)
    ms = sorted(set(members))
    fp = {x for x in ms if all(outs[x] <= outs[y] for y in ms)}
    fm = {x for x in ms if all(ins[x] <= ins[y] for y in ms)}
    hp = {x for x in ms if all(outs[x] >= outs[y] for y in ms)}
    hm = {x for x in ms if all(ins[x] >= ins[y] for y in ms)}
    return fp, fm, hp, hm


def conditions_met_oracle(d: Digraph, p: int) -> FrozenSet[str]:
    """The kinds among 'C', 'Cp', 'Cs', 'Csp' that d meets at level p, by
    direct subset comparisons over all p-subsets (neighbor sets built once)."""
    outs, ins = _neighbor_sets(d)
    kinds = (
        ("C", outs, operator.le),
        ("Cp", ins, operator.le),
        ("Cs", outs, operator.ge),
        ("Csp", ins, operator.ge),
    )
    met = {kind for kind, _, _ in kinds}
    for ms in itertools.combinations(range(d.n), p):
        for kind, sets, contained in kinds:
            if kind in met and not any(
                all(contained(sets[x], sets[y]) for y in ms) for x in ms
            ):
                met.discard(kind)
        if not met:
            break
    return frozenset(met)


def condition_oracle(d: Digraph, which: str, p: int) -> bool:
    """which in {'C', 'Cp', 'Cs', 'Csp'}; brute force over all p-subsets."""
    return which in conditions_met_oracle(d, p)


# -- representation-search oracles ------------------------------------------------
#
# Arc masks use bit u*n + v, matching the package's canonical encoding.


def arc_mask_of(n: int, arcs: Iterable[Arc]) -> int:
    m = 0
    for u, v in arcs:
        m |= 1 << (u * n + v)
    return m


def loopless_masks(n: int) -> Iterator[int]:
    """Every loopless arc mask on n vertices, once each, as the product of
    the out-rows: row v is any submask of full & ~(1 << v), shifted to bit
    v*n.  The products of the low rows are listed once and those of the
    high rows streamed against them."""
    full = (1 << n) - 1
    rows = [
        [row << (v * n) for row in range(full + 1) if not (row >> v) & 1]
        for v in range(n)
    ]
    low = [sum(combo) for combo in itertools.product(*rows[: n // 2])]
    for high in itertools.product(*rows[n // 2:]):
        top = sum(high)
        for mask in low:
            yield top | mask


@lru_cache(maxsize=None)
def semiorder_mask_set(n: int) -> FrozenSet[int]:
    """All semiorder arc masks on n labeled vertices.

    Searches every valuation on the half-integer grid [0, 1.5(n-1)] with
    threshold 1, encoded as doubled integers (arc iff fd(x) > fd(y) + 2).
    A margin argument over simple constraint cycles shows this grid is
    complete for n <= 6.
    """
    if n == 0:
        return frozenset({0})
    top = 3 * (n - 1)
    found: Set[int] = set()
    rng = range(n)
    for f in itertools.product(range(top + 1), repeat=n):
        mask = 0
        for x in rng:
            fx = f[x]
            for y in rng:
                if x != y and fx > f[y] + 2:
                    mask |= 1 << (x * n + y)
        found.add(mask)
    return frozenset(found)


@lru_cache(maxsize=None)
def interval_mask_set(n: int) -> FrozenSet[int]:
    """All interval-order arc masks on n labeled vertices.

    Enumerates every weak ordering of right endpoints as a vector
    hi in {0..n-1}^n, then every integer cut position lo(x) <= hi(x);
    the arcs from x are exactly {y : hi(y) < lo(x)}.
    """
    if n == 0:
        return frozenset({0})
    found: Set[int] = set()
    for hi in itertools.product(range(n), repeat=n):
        below = [0] * (n + 1)
        for t in range(1, n + 1):
            b = 0
            for y in range(n):
                if hi[y] < t:
                    b |= 1 << y
            below[t] = b
        options = [
            tuple(below[t] << (x * n) for t in range(hi[x] + 1)) for x in range(n)
        ]
        for combo in itertools.product(*options):
            mask = 0
            for m in combo:
                mask |= m
            found.add(mask)
    return frozenset(found)


# -- DAG enumeration by topological orders ----------------------------------------


@lru_cache(maxsize=None)
def dag_mask_set(n: int) -> FrozenSet[int]:
    """All labeled-DAG arc masks on n vertices, generated permutation-first."""
    if n == 0:
        return frozenset({0})
    found: Set[int] = set()
    for perm in itertools.permutations(range(n)):
        bit_values = [
            1 << (perm[i] * n + perm[j])
            for i in range(n)
            for j in range(i + 1, n)
        ]
        for sub in range(1 << len(bit_values)):
            mask = 0
            s = sub
            while s:
                low = s & -s
                mask |= bit_values[low.bit_length() - 1]
                s ^= low
            found.add(mask)
    return frozenset(found)


# -- preorders by definition --------------------------------------------------------


def containment_preorder(n: int, mask: int) -> Tuple[int, ...]:
    """Rows of the containment preorder of a digraph's out-neighbor sets, in
    the arc-mask row format: row y holds every x whose out-set lies in y's."""
    outs, _ = _neighbor_sets(Digraph.from_arc_mask(n, mask))
    return tuple(sum(1 << x for x in range(n) if outs[x] <= outs[y]) for y in range(n))


# -- naive double-competition-number oracle ----------------------------------------


def _edge_key(n: int, edges: Iterable[Tuple[int, int]]) -> int:
    key = 0
    for u, v in edges:
        if u > v:
            u, v = v, u
        key |= 1 << (u * n + v)
    return key


@lru_cache(maxsize=None)
def realizable_cce_keys(n: int) -> FrozenSet[int]:
    """Edge keys of every CCE graph of an acyclic digraph on n vertices."""
    keys: Set[int] = set()
    for mask in dag_mask_set(n):
        outs = [0] * n
        ins = [0] * n
        m = mask
        while m:
            low = m & -m
            b = low.bit_length() - 1
            u, v = divmod(b, n)
            outs[u] |= 1 << v
            ins[v] |= 1 << u
            m ^= low
        key = 0
        for x in range(n):
            ox, ix = outs[x], ins[x]
            for y in range(x + 1, n):
                if ox & outs[y] and ix & ins[y]:
                    key |= 1 << (x * n + y)
        keys.add(key)
    return frozenset(keys)


def naive_stratum_feasible(g: SimpleGraph, k: int) -> bool:
    """Is g u I_k the CCE graph of some DAG on g.n + k vertices (full
    enumeration plus definitional CCE equality)?"""
    total = g.n + k
    return _edge_key(total, g.edges) in realizable_cce_keys(total)


def naive_dk(g: SimpleGraph, k_max: int) -> Optional[int]:
    for k in range(k_max + 1):
        if naive_stratum_feasible(g, k):
            return k
    return None


# -- misc helpers -------------------------------------------------------------------


def all_graphs(n: int) -> Iterable[SimpleGraph]:
    pairs = list(itertools.combinations(range(n), 2))
    for sub in range(1 << len(pairs)):
        yield SimpleGraph(n, [pairs[i] for i in range(len(pairs)) if (sub >> i) & 1])


def digraph_from_mask(n: int, mask: int) -> Digraph:
    return Digraph.from_arc_mask(n, mask)
