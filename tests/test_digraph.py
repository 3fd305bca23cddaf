import pytest

from ccelab import Digraph, semiorder_from, witness_loopless
from ccelab.orders import SemiorderRep

import oracles


def test_out_neighbors_examples():
    d = Digraph(3, [(0, 2), (1, 2)])
    assert d.out_neighbors(0) == {2}
    assert d.out_neighbors(2) == frozenset()
    w = witness_loopless(2, 2)
    # a = 2 feeds the whole clique and b = 3
    assert w.out_neighbors(2) == {0, 1, 3}


def test_in_neighbors_examples():
    d = Digraph(3, [(0, 2), (1, 2)])
    assert d.in_neighbors(2) == {0, 1}
    assert d.in_neighbors(0) == frozenset()
    w = witness_loopless(2, 2)
    # b = 3 is fed by the clique and by a
    assert w.in_neighbors(3) == {0, 1, 2}


def test_neighbors_out_of_range():
    d = Digraph(3, [(0, 2)])
    with pytest.raises(ValueError):
        d.out_neighbors(3)
    with pytest.raises(ValueError):
        d.in_neighbors(-1)


def test_is_loopless():
    assert Digraph(2, [(0, 1)]).is_loopless()
    assert not Digraph(2, [(1, 1)]).is_loopless()
    assert witness_loopless(2, 2).is_loopless()


def test_is_acyclic():
    assert Digraph(3, [(0, 1), (1, 2)]).is_acyclic()
    assert not Digraph(2, [(0, 1), (1, 0)]).is_acyclic()
    assert not Digraph(1, [(0, 0)]).is_acyclic()
    semi = semiorder_from(SemiorderRep((2, 0, 0, -2), 1))
    assert semi.is_acyclic()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_is_acyclic_matches_permutation_oracle(n):
    dags = oracles.dag_mask_set(n)
    for mask in range(1 << (n * n)):
        assert Digraph.from_arc_mask(n, mask).is_acyclic() == (mask in dags)


def test_arc_validation():
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph(-1)


def test_trivial_sizes_legal():
    assert Digraph(0).arcs == frozenset()
    assert Digraph(1).out_neighbors(0) == frozenset()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_adjacency_duality_and_degree_sums_exhaustive(n):
    for mask in range(1 << (n * n)):
        d = Digraph.from_arc_mask(n, mask)
        for x in range(n):
            for v in d.out_neighbors(x):
                assert x in d.in_neighbors(v)
        assert len(d.arcs) == sum(len(d.out_neighbors(x)) for x in range(n))
        assert len(d.arcs) == sum(len(d.in_neighbors(x)) for x in range(n))
        if d.is_acyclic():
            assert d.is_loopless()


def test_acyclic_implies_loopless_random():
    import random

    rng = random.Random(20240817)
    n = 6
    for _ in range(500):
        mask = rng.getrandbits(n * n)
        d = Digraph.from_arc_mask(n, mask)
        if d.is_acyclic():
            assert d.is_loopless()
        assert Digraph.from_arc_mask(n, d.arc_mask()) == d


def test_reverse_involution():
    d = Digraph(4, [(0, 1), (1, 2), (3, 3)])
    assert d.reverse().reverse() == d
    assert d.reverse().arcs == {(1, 0), (2, 1), (3, 3)}


def test_value_semantics():
    a = Digraph(3, [(0, 1)])
    b = Digraph(3, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Digraph(3, [(1, 0)])
    assert len({a, b}) == 1


def test_arc_mask_roundtrip_order():
    # bit u*n + v: arcs sort the same way as masks
    n = 3
    masks = [Digraph.from_arc_mask(n, m).arc_mask() for m in range(1 << (n * n))]
    assert masks == sorted(masks)
