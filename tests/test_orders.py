import random
from fractions import Fraction

import pytest

from ccelab import (
    ConditionKind,
    Digraph,
    interval_order_from,
    recognize_interval_order,
    recognize_semiorder,
    satisfies_condition,
    semiorder_from,
)
from ccelab.orders import IntervalRep, SemiorderRep

import oracles


def test_semiorder_from_examples():
    assert semiorder_from(SemiorderRep((1, 1, 1), 1)).arcs == frozenset()
    # clique at 0, a = 2, other isolated vertex at 3
    rep = SemiorderRep((0, 0, 2, -2), 1)
    d = semiorder_from(rep)
    assert d.arcs == {(2, 0), (2, 1), (2, 3), (0, 3), (1, 3)}
    d = semiorder_from(SemiorderRep((3, 1.5, 0), 1))
    assert d.arcs == {(0, 1), (0, 2), (1, 2)}


def test_semiorder_from_rejects_bad_delta():
    with pytest.raises(ValueError):
        semiorder_from(SemiorderRep((0, 1), 0))
    with pytest.raises(ValueError):
        semiorder_from(SemiorderRep((0, 1), -2))


def test_semiorder_always_loopless_acyclic():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 6)
        rep = SemiorderRep(tuple(rng.randint(-4, 4) for _ in range(n)), 1)
        d = semiorder_from(rep)
        assert d.is_loopless() and d.is_acyclic()


def test_interval_order_from_examples():
    same = IntervalRep(((0, 1), (0, 1), (0, 1)))
    assert interval_order_from(same).arcs == frozenset()
    d = interval_order_from(IntervalRep(((2, 3), (0, 1))))
    assert d.arcs == {(0, 1)}
    d = interval_order_from(IntervalRep(((4, 5), (2, 6), (0, 1))))
    assert d.arcs == {(0, 2), (1, 2)}


def test_interval_order_from_rejects_malformed():
    with pytest.raises(ValueError):
        interval_order_from(IntervalRep(((2, 1),)))


def test_ties_produce_no_arc():
    # equal values / touching intervals fail the strict inequality
    assert semiorder_from(SemiorderRep((1, 0), 1)).arcs == frozenset()
    assert interval_order_from(IntervalRep(((1, 2), (0, 1)))).arcs == frozenset()


def test_recognize_semiorder_examples():
    rep = recognize_semiorder(Digraph(3))
    assert rep is not None
    assert semiorder_from(rep) == Digraph(3)
    assert recognize_semiorder(Digraph(2, [(0, 1), (1, 0)])) is None
    assert recognize_semiorder(Digraph(4, [(0, 1), (2, 3)])) is None  # 2+2
    assert recognize_semiorder(Digraph(1, [(0, 0)])) is None


def test_recognize_interval_order_examples():
    chain = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    rep = recognize_interval_order(chain)
    assert rep is not None
    assert interval_order_from(rep) == chain
    assert recognize_interval_order(Digraph(4, [(0, 1), (2, 3)])) is None  # 2+2
    three_one = Digraph(4, [(0, 1), (0, 2), (1, 2)])
    rep = recognize_interval_order(three_one)
    assert rep is not None
    assert interval_order_from(rep) == three_one
    # 3+1 separates the two classes
    assert recognize_semiorder(three_one) is None


def test_normalization():
    rep = recognize_semiorder(Digraph(3, [(0, 1), (0, 2), (1, 2)]))
    assert min(rep.f) == 0
    assert rep.delta == 1
    assert rep.f == (Fraction(3), Fraction(3, 2), Fraction(0))
    ivl = recognize_interval_order(Digraph(3, [(0, 1), (0, 2), (1, 2)]))
    assert ivl.intervals == ((2, 2), (1, 1), (0, 0))
    assert all(0 <= lo <= hi <= 2 * 3 for lo, hi in ivl.intervals)


def test_round_trip_random_reps():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(0, 6)
        f = tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 2))) for _ in range(n))
        d = semiorder_from(SemiorderRep(f, 1))
        rep = recognize_semiorder(d)
        assert rep is not None
        assert semiorder_from(rep) == d

        spans = []
        for _ in range(n):
            lo = rng.randint(0, 10)
            spans.append((lo, lo + rng.randint(0, 5)))
        d = interval_order_from(IntervalRep(tuple(spans)))
        rep = recognize_interval_order(d)
        assert rep is not None
        assert interval_order_from(rep) == d


def test_semiorder_implies_interval_order_exhaustive_n4():
    for n in range(5):
        for mask in oracles.semiorder_mask_set(n):
            d = Digraph.from_arc_mask(n, mask)
            assert recognize_interval_order(d) is not None


def test_recognizers_against_oracle_exhaustive_n4():
    for n in range(5):
        semi = oracles.semiorder_mask_set(n)
        intv = oracles.interval_mask_set(n)
        for mask in range(1 << (n * n)):
            d = Digraph.from_arc_mask(n, mask)
            srep = recognize_semiorder(d)
            irep = recognize_interval_order(d)
            assert (srep is not None) == (mask in semi)
            assert (irep is not None) == (mask in intv)
            if srep is not None:
                assert semiorder_from(srep) == d
            if irep is not None:
                assert interval_order_from(irep) == d


def test_constructed_orders_satisfy_level2_foot_conditions():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 6)
        f = tuple(rng.randint(-6, 6) for _ in range(n))
        d = semiorder_from(SemiorderRep(f, 1))
        assert satisfies_condition(d, ConditionKind.C, 2).satisfied
        assert satisfies_condition(d, ConditionKind.C_PRIME, 2).satisfied
        spans = tuple(
            (lo, lo + rng.randint(0, 4))
            for lo in (rng.randint(0, 9) for _ in range(n))
        )
        d = interval_order_from(IntervalRep(spans))
        assert satisfies_condition(d, ConditionKind.C, 2).satisfied
        assert satisfies_condition(d, ConditionKind.C_PRIME, 2).satisfied
