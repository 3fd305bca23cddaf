"""Exact double competition number by pruned search over acyclic digraphs.

dk(G) is the least k such that G plus k new isolated vertices is the CCE
graph of some acyclic digraph.  The search fixes G's vertices at indices
0..n-1, adds vertices n..n+k-1, and backtracks over out-neighborhood rows
in vertex order with ascending row values, so the first witness found is
the lexicographically least row assignment.  k is searched ascending, so
the first feasible stratum is minimal by construction.

Pruning (all exact, no completeness loss):

* a stratum where G has an edge but G u I_k has fewer than 2 isolated
  vertices is rejected before any search: a witness with a CCE edge has an
  arc, and the first and last vertices of a longest path in it have no
  in-neighbor and no out-neighbor respectively, so both are isolated;
* rows are generated as the ascending submasks of the allowed mask, which
  leaves out the vertex itself and every vertex that already reaches it,
  so no generated row closes a directed cycle;
* a vertex with a target edge needs a common out-neighbor with each of its
  neighbors, so its empty row is skipped;
* a target edge whose endpoints' rows are both assigned without a common
  out-neighbor is dead (out rows never change once assigned);
* a target edge without a common in-neighbor is dead once no unassigned
  vertex can feed both endpoints: only unassigned rows add in-neighbors,
  and neither an endpoint (a loop) nor an endpoint's out-neighbor (a
  2-cycle) can feed both;
* a target non-edge with a common out-neighbor and a common in-neighbor is
  already violated (in-neighborhoods only grow);
* a target non-edge with a common out-neighbor but no common in-neighbor
  yet forbids every later row from feeding both endpoints.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .caps import check_cap
from .digraph import Digraph, ancestors, bits_of, submasks
from .graphs import SimpleGraph, cce_adj, isolated_vertices


class DkResult(NamedTuple):
    """Minimal padding k plus an acyclic witness realizing G u I_k."""

    k: int
    witness: Digraph


def double_competition_number(g: SimpleGraph, k_max: int) -> Optional[DkResult]:
    """Least k <= k_max with an acyclic witness, or None if none exists."""
    if k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max}")
    check_cap("dk", g.n + k_max)
    for k in range(k_max + 1):
        witness = search_realization(g, k)
        if witness is not None:
            return DkResult(k, witness)
    return None


def is_cce_of_acyclic(g: SimpleGraph) -> Optional[Digraph]:
    """An acyclic digraph whose CCE graph is exactly g, if dk(g) = 0."""
    result = double_competition_number(g, 0)
    return result.witness if result is not None else None


def search_realization(g: SimpleGraph, k: int) -> Optional[Digraph]:
    """An acyclic digraph on g.n + k vertices whose CCE graph equals
    g u I_k exactly (added vertices isolated), or None.

    One stratum of the dk search; exposed so tests can re-run the k-1
    stratum and assert minimality directly.

    If g has an edge, every witness has an arc.  A longest path then starts
    at a vertex with no in-neighbor (a longer path or a cycle otherwise) and
    ends at a vertex with no out-neighbor; both lack a common enemy or a
    common prey with anyone, so g u I_k needs at least 2 isolated vertices.
    """
    n = g.n
    if g.edges and len(isolated_vertices(g)) + k < 2:
        return None
    total = n + k
    full = (1 << total) - 1
    target = list(g.adj_masks) + [0] * k
    outs = [0] * total
    ins = [0] * total
    forbidden: List[int] = []       # two-bit masks no later row may cover

    edge_pairs = [(x, y, (1 << x) | (1 << y)) for x, y in g.edges]

    def place(v: int) -> bool:
        if v == total:
            return cce_adj(outs, ins) == target
        unassigned = full >> v << v
        for x, y, pair in edge_pairs:
            if not (ins[x] & ins[y]
                    or unassigned & ~(pair | outs[x] | outs[y])):
                return False            # no vertex left to feed both
        self_bit = 1 << v
        n_forbidden = len(forbidden)
        rows = submasks(full & ~(self_bit | ancestors(v, ins)))
        if target[v]:
            next(rows)                  # the empty row shares no prey
        for row in rows:
            ok = True
            for pm in forbidden:
                if row & pm == pm:
                    ok = False
                    break
            if not ok:
                continue
            new_forbidden = []
            for x in range(v):
                cout = outs[x] & row
                if (target[x] >> v) & 1:
                    if not cout:
                        ok = False
                        break
                elif cout:
                    if ins[x] & ins[v]:
                        ok = False
                        break
                    new_forbidden.append((1 << x) | self_bit)
            if not ok:
                continue
            outs[v] = row
            forbidden.extend(new_forbidden)
            prey = list(bits_of(row))
            for w in prey:
                ins[w] |= self_bit
            if place(v + 1):
                return True
            for w in prey:
                ins[w] ^= self_bit
            del forbidden[n_forbidden:]
            outs[v] = 0
        return False

    if place(0):
        return Digraph(
            total,
            [(u, w) for u in range(total) for w in bits_of(outs[u])],
        )
    return None

