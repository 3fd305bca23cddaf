"""Simple undirected graphs, the derived-graph operators, and shape tests.

The three operators share one skeleton: an edge {x, y} is present when the
out-neighborhoods of x and y intersect (competition), when both the out- and
the in-neighborhoods intersect (competition-common-enemy), or when either
does (niche).  Derived graphs keep the source vertex indexing so a digraph
and its derived graph can be cross-referenced index by index.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .digraph import Digraph, bits_of

Edge = Tuple[int, int]


class SimpleGraph:
    """Loopless undirected graph on vertices 0..n-1, edges as sorted pairs."""

    __slots__ = ("n", "edges", "adj_masks")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        adj = [0] * n
        for u, v in norm:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.edges = frozenset(norm)
        self.adj_masks = tuple(adj)

    def degree(self, x: int) -> int:
        return bin(self.adj_masks[x]).count("1")

    def neighbors(self, x: int) -> FrozenSet[int]:
        return frozenset(bits_of(self.adj_masks[x]))

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph({self.n}, {sorted(self.edges)})"


# -- derived-graph operators -------------------------------------------------
#
# The *_adj functions work on neighborhood rows (out[v], in[v] as bitmasks)
# and return adjacency rows; the sweeps call them directly, the *_graph
# functions wrap them for Digraph values.


def competition_adj(out: Sequence[int]) -> List[int]:
    """Adjacency rows of the competition graph of the given out-rows."""
    n = len(out)
    adj = [0] * n
    for x in range(n):
        ox = out[x]
        for y in range(x + 1, n):
            if ox & out[y]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return adj


def cce_adj(out: Sequence[int], inc: Sequence[int]) -> List[int]:
    """Adjacency rows of the CCE graph of the given out- and in-rows."""
    n = len(out)
    adj = [0] * n
    for x in range(n):
        ox, ix = out[x], inc[x]
        for y in range(x + 1, n):
            if ox & out[y] and ix & inc[y]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return adj


def niche_adj(out: Sequence[int], inc: Sequence[int]) -> List[int]:
    """Adjacency rows of the niche graph of the given out- and in-rows."""
    n = len(out)
    adj = [0] * n
    for x in range(n):
        ox, ix = out[x], inc[x]
        for y in range(x + 1, n):
            if ox & out[y] or ix & inc[y]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return adj


def graph_of_adj(adj: Sequence[int]) -> SimpleGraph:
    """The graph with the given (symmetric, loopless) adjacency rows."""
    n = len(adj)
    edges = [
        (x, y) for x in range(n) for y in range(x + 1, n) if (adj[x] >> y) & 1
    ]
    return SimpleGraph(n, edges)


def competition_graph(d: Digraph) -> SimpleGraph:
    """Edge {x, y} iff x and y have a common out-neighbor (common prey)."""
    return graph_of_adj(competition_adj(d.out_masks))


def cce_graph(d: Digraph) -> SimpleGraph:
    """Edge {x, y} iff x, y share both an out-neighbor and an in-neighbor."""
    return graph_of_adj(cce_adj(d.out_masks, d.in_masks))


def niche_graph(d: Digraph) -> SimpleGraph:
    """Edge {x, y} iff x, y share an out-neighbor or an in-neighbor."""
    return graph_of_adj(niche_adj(d.out_masks, d.in_masks))


# -- isolated vertices and shape recognition ---------------------------------


def isolated_vertices(g: SimpleGraph) -> FrozenSet[int]:
    """The vertices of degree 0."""
    return frozenset(v for v in range(g.n) if not g.adj_masks[v])


def strip_isolated(g: SimpleGraph) -> Tuple[SimpleGraph, Tuple[int, ...]]:
    """The induced subgraph on non-isolated vertices, plus an index map.

    Returns (stripped, index_map) where index_map[i] is the original index
    of the stripped graph's vertex i.
    """
    keep = [v for v in range(g.n) if g.adj_masks[v]]
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in g.edges]
    return SimpleGraph(len(keep), edges), tuple(keep)


def is_clique(g: SimpleGraph, vertices: Iterable[int]) -> bool:
    """True iff every pair of the given vertices is adjacent (vacuous for |S| <= 1)."""
    vs = sorted(set(vertices))
    for v in vs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    return all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))


def core_clique(adj: Sequence[int]) -> Tuple[int, bool]:
    """(number of non-isolated vertices, whether they form a clique), given
    adjacency rows."""
    core = [v for v in range(len(adj)) if adj[v]]
    core_mask = 0
    for v in core:
        core_mask |= 1 << v
    return len(core), all(adj[v] == core_mask ^ (1 << v) for v in core)


class KrIqShape(NamedTuple):
    """A complete graph on r vertices plus q isolated vertices (r != 1)."""

    r: int
    q: int


def decompose_kr_iq(g: SimpleGraph) -> Optional[KrIqShape]:
    """Recognize graphs of the form K_r u I_q.

    Returns (r, q) when g is exactly one complete component on r >= 2
    vertices plus q isolated vertices, or (0, n) when g is edgeless.
    The canonical form forbids r = 1: a K_1 component is read as an
    isolated vertex.  Anything else (a non-complete component, or two or
    more nontrivial components) yields None.
    """
    if not g.edges:
        return KrIqShape(0, g.n)
    r, clique = core_clique(g.adj_masks)
    return KrIqShape(r, g.n - r) if clique else None


def complete_plus_isolated(r: int, q: int) -> SimpleGraph:
    """Build K_r u I_q with the clique on vertices 0..r-1."""
    if r < 0 or q < 0 or r == 1:
        raise ValueError("need r = 0 or r >= 2, and q >= 0")
    edges = [(u, v) for u in range(r) for v in range(u + 1, r)]
    return SimpleGraph(r + q, edges)


# -- canonical forms for isomorphism bucketing --------------------------------
#
# Labeled enumeration plus post-hoc bucketing: vertices are partitioned by an
# iterated degree refinement, then the canonical edge mask is the minimum over
# all permutations that respect the refined classes, a class of pairwise twins
# taken in one order.  Backtracking over class permutations is adequate at the
# n <= 7 scale this package works at.


def _refine_colors(g: SimpleGraph) -> List[Tuple]:
    colors: List[Tuple] = [(g.degree(v),) for v in range(g.n)]
    for _ in range(g.n):
        new = [
            colors[v] + (tuple(sorted(colors[w] for w in bits_of(g.adj_masks[v]))),)
            for v in range(g.n)
        ]
        if len(set(new)) == len(set(colors)):
            break
        colors = new
    return colors


def _edge_bit(u: int, v: int, n: int) -> int:
    if u > v:
        u, v = v, u
    # index of (u, v) in lexicographic pair order
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def canonical_form(g: SimpleGraph) -> int:
    """A canonical edge bitmask: equal for isomorphic graphs, else distinct.

    The mask uses lexicographic pair indexing on the relabeled vertices, so
    it can be fed back to ``graph_from_canonical`` to get a representative.
    """
    n = g.n
    if n == 0 or not g.edges:
        return 0
    colors = _refine_colors(g)
    order = sorted(range(n), key=lambda v: (colors[v], v))
    classes: List[List[int]] = []
    for v in order:
        if classes and colors[classes[-1][0]] == colors[v]:
            classes[-1].append(v)
        else:
            classes.append([v])

    def orders(c: List[int]) -> Iterable[Tuple[int, ...]]:
        # Pairwise twins (equal open or equal closed neighborhoods) are
        # permuted by automorphisms, so one order of them gives every mask
        # their orders give: K_r u I_q takes one labeling, not r!q!.
        adj = g.adj_masks
        if len({adj[v] for v in c}) == 1 or len({adj[v] | 1 << v for v in c}) == 1:
            return (tuple(c),)
        return itertools.permutations(c)

    best = None
    for perms in itertools.product(*map(orders, classes)):
        relabel: Dict[int, int] = {}
        i = 0
        for block in perms:
            for v in block:
                relabel[v] = i
                i += 1
        mask = 0
        for u, v in g.edges:
            mask |= 1 << _edge_bit(relabel[u], relabel[v], n)
        if best is None or mask < best:
            best = mask
    return best


def graph_from_canonical(n: int, canon: int) -> SimpleGraph:
    """Rebuild a representative graph from a canonical edge mask."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = [pairs[b] for b in bits_of(canon)]
    return SimpleGraph(n, edges)
