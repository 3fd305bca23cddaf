import json
from pathlib import Path

import pytest

from ccelab import (
    Digraph,
    ResourceCapError,
    SimpleGraph,
    cce_graph,
    complete_plus_isolated,
    double_competition_number,
    is_cce_of_acyclic,
)
from ccelab.dk import search_realization
from ccelab.graphs import graph_from_canonical

import oracles


def _witness_is_valid(g: SimpleGraph, k: int, witness: Digraph) -> bool:
    if witness.n != g.n + k or not witness.is_acyclic():
        return False
    expected = set(g.edges)
    return set(cce_graph(witness).edges) == expected


def test_dk_edgeless():
    for q in range(6):
        result = double_competition_number(SimpleGraph(q), 0)
        assert result.k == 0
        assert result.witness == Digraph(q)


def test_dk_k2():
    k2 = SimpleGraph(2, [(0, 1)])
    result = double_competition_number(k2, 3)
    assert result.k == 2
    assert _witness_is_valid(k2, 2, result.witness)
    # witness isomorphic to {(u,a),(u,b),(a,v),(b,v)}: 4 arcs through
    # one common enemy and one common prey
    assert len(result.witness.arcs) == 4
    # strata below are genuinely infeasible
    assert search_realization(k2, 0) is None
    assert search_realization(k2, 1) is None


def test_dk_k3():
    k3 = complete_plus_isolated(3, 0)
    result = double_competition_number(k3, 3)
    assert result.k == 2
    assert _witness_is_valid(k3, 2, result.witness)
    assert search_realization(k3, 1) is None


def test_is_cce_of_acyclic():
    assert is_cce_of_acyclic(SimpleGraph(3)) is not None
    assert is_cce_of_acyclic(SimpleGraph(2, [(0, 1)])) is None
    w = is_cce_of_acyclic(complete_plus_isolated(2, 2))
    assert w is not None
    assert _witness_is_valid(complete_plus_isolated(2, 2), 0, w)


def test_dk_respects_kmax():
    assert double_competition_number(SimpleGraph(2, [(0, 1)]), 1) is None


def test_dk_cap():
    with pytest.raises(ResourceCapError):
        double_competition_number(SimpleGraph(6), 4)
    with pytest.raises(ValueError):
        double_competition_number(SimpleGraph(2), -1)


def test_pruned_matches_naive_oracle_small():
    # every (G, k) with |V(G)| + k <= 4 here; the full <= 5 sweep is in the
    # acceptance suite
    for m in range(5):
        for g in oracles.all_graphs(m):
            for k in range(4 - m + 1):
                got = search_realization(g, k)
                want = oracles.naive_stratum_feasible(g, k)
                assert (got is not None) == want
                if got is not None:
                    assert _witness_is_valid(g, k, got)


def test_witness_deterministic():
    k2 = SimpleGraph(2, [(0, 1)])
    a = double_competition_number(k2, 2)
    b = double_competition_number(k2, 3)
    assert a == b


def test_too_few_isolated_vertices_rejected():
    # a DAG with an arc has a source and a sink, both isolated in its CCE
    # graph; 3K2 u I_1 has one isolated vertex
    three_k2 = SimpleGraph(6, [(0, 1), (2, 3), (4, 5)])
    assert search_realization(three_k2, 1) is None


def test_k2_plus_isolated_strata():
    g = SimpleGraph(3, [(0, 1)])
    assert search_realization(g, 0) is None
    assert not oracles.naive_stratum_feasible(g, 0)
    got = search_realization(g, 1)
    assert got is not None and _witness_is_valid(g, 1, got)
    assert oracles.naive_stratum_feasible(g, 1)


def test_golden_witnesses():
    # dk(G, 6 - n) and its witness for every isomorphism class with
    # 1 <= n <= 6, recorded from the search before its isolated-vertex bound
    # and row prunes; exact prunes must reproduce every entry
    golden = json.loads((Path(__file__).parent / "dk_golden.json").read_text())
    assert len(golden) == 208
    for entry in golden:
        g = graph_from_canonical(entry["n"], entry["canon"])
        result = double_competition_number(g, entry["k_max"])
        if entry["k"] is None:
            assert result is None, entry
            continue
        assert result is not None and result.k == entry["k"], entry
        assert result.witness.arcs == {tuple(a) for a in entry["arcs"]}, entry
        assert _witness_is_valid(g, result.k, result.witness)
