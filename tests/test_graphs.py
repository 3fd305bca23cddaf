import itertools
import random

import pytest

from ccelab import (
    Digraph,
    KrIqShape,
    SimpleGraph,
    canonical_form,
    cce_graph,
    competition_graph,
    complete_plus_isolated,
    decompose_kr_iq,
    graph_from_canonical,
    is_clique,
    isolated_vertices,
    niche_graph,
    strip_isolated,
    witness_loopless,
)

import oracles


def test_competition_examples():
    d = Digraph(3, [(0, 2), (1, 2)])
    assert competition_graph(d).edges == {(0, 1)}
    assert competition_graph(Digraph(3)).edges == frozenset()
    w = witness_loopless(2, 2)
    # a, k1, k2 all prey on b; b stays isolated
    g = competition_graph(w)
    assert g.edges == {(0, 1), (0, 2), (1, 2)}
    assert isolated_vertices(g) == {3}


def test_cce_examples():
    w = witness_loopless(2, 2)
    g = cce_graph(w)
    assert g.edges == {(0, 1)}
    assert isolated_vertices(g) == {2, 3}
    assert cce_graph(Digraph(2, [(0, 1)])).edges == frozenset()
    d = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert cce_graph(d).edges == {(1, 2)}


def test_niche_examples():
    assert niche_graph(Digraph(3, [(0, 2), (1, 2)])).edges == {(0, 1)}
    assert niche_graph(Digraph(3, [(2, 0), (2, 1)])).edges == {(0, 1)}
    d = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert niche_graph(d).edges == {(1, 2)}


def test_isolated_vertices_examples():
    assert isolated_vertices(SimpleGraph(3)) == {0, 1, 2}
    tri = SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert isolated_vertices(tri) == frozenset()


def test_strip_isolated():
    g = complete_plus_isolated(3, 2)
    stripped, index_map = strip_isolated(g)
    assert stripped == SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert index_map == (0, 1, 2)
    empty, index_map = strip_isolated(SimpleGraph(4))
    assert empty.n == 0 and index_map == ()
    path_iso = SimpleGraph(4, [(1, 2), (2, 3)])
    stripped, index_map = strip_isolated(path_iso)
    assert index_map == (1, 2, 3)
    assert stripped.edges == {(0, 1), (1, 2)}


def test_is_clique():
    tri = SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert is_clique(tri, [0, 1, 2])
    p3 = SimpleGraph(3, [(0, 1), (1, 2)])
    assert not is_clique(p3, [0, 1, 2])
    assert is_clique(p3, [0])
    assert is_clique(p3, [])
    with pytest.raises(ValueError):
        is_clique(p3, [0, 5])


def test_decompose_kr_iq():
    assert decompose_kr_iq(complete_plus_isolated(3, 2)) == KrIqShape(3, 2)
    assert decompose_kr_iq(SimpleGraph(3, [(0, 1), (1, 2)])) is None
    assert decompose_kr_iq(SimpleGraph(4)) == KrIqShape(0, 4)
    assert decompose_kr_iq(SimpleGraph(0)) == KrIqShape(0, 0)
    two_components = SimpleGraph(4, [(0, 1), (2, 3)])
    assert decompose_kr_iq(two_components) is None


def test_decompose_reconstruction_isomorphic():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.4]
        g = SimpleGraph(n, edges)
        shape = decompose_kr_iq(g)
        if shape is not None:
            rebuilt = complete_plus_isolated(shape.r, shape.q)
            assert canonical_form(rebuilt) == canonical_form(g)


def test_operators_match_definitional_oracle_small():
    for n in range(4):
        for mask in range(1 << (n * n)):
            d = Digraph.from_arc_mask(n, mask)
            comp, cce, niche = oracles.derived_edges_oracle(d)
            assert competition_graph(d).edges == frozenset(comp)
            assert cce_graph(d).edges == frozenset(cce)
            assert niche_graph(d).edges == frozenset(niche)


def test_canonical_form_relabeling_invariant():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(0, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.5]
        g = SimpleGraph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = SimpleGraph(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_form(g) == canonical_form(h)
        rebuilt = graph_from_canonical(n, canonical_form(g))
        assert canonical_form(rebuilt) == canonical_form(g)


def full_walk_form(g):
    """The least edge mask over every order of every refined class, the
    walk canonical_form makes without its twin rule."""
    from ccelab.graphs import _edge_bit, _refine_colors

    colors = _refine_colors(g)
    classes = {}
    for v in sorted(range(g.n), key=lambda v: (colors[v], v)):
        classes.setdefault(colors[v], []).append(v)
    best = 0 if not g.edges else None
    for perms in itertools.product(*map(itertools.permutations, classes.values())):
        relabel = {v: i for i, v in enumerate(itertools.chain(*perms))}
        mask = sum(1 << _edge_bit(relabel[u], relabel[v], g.n) for u, v in g.edges)
        best = mask if best is None else min(best, mask)
    return best


def test_canonical_form_twin_rule_keeps_every_form():
    # graphs with many twins: every graph on up to 5 vertices, the graphs of
    # K_r u I_q, and random graphs whose rows repeat
    graphs = [g for n in range(6) for g in oracles.all_graphs(n)]
    graphs += [complete_plus_isolated(r, n - r) for n in range(8) for r in range(n + 1)
               if r != 1]
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(5, 7)
        kinds = [rng.randrange(3) for _ in range(n)]
        # vertices of one kind are twins: adjacent as their kinds say
        adjacent = {pair: rng.random() < 0.5 for pair in itertools.product(range(3), repeat=2)}
        graphs.append(SimpleGraph(n, [
            (u, v) for u, v in itertools.combinations(range(n), 2)
            if adjacent[min(kinds[u], kinds[v]), max(kinds[u], kinds[v])]
        ]))
    for g in graphs:
        assert canonical_form(g) == full_walk_form(g)


def test_canonical_form_separates_nonisomorphic():
    # all 4-vertex graphs bucketed by canonical form: 11 classes
    canons = {canonical_form(g) for g in oracles.all_graphs(4)}
    assert len(canons) == 11


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 3)])
