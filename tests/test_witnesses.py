import pytest

from ccelab import (
    ConditionKind,
    KrIqShape,
    cce_graph,
    decompose_kr_iq,
    recognize_semiorder,
    satisfies_condition,
    semiorder_from,
    witness_loopless,
    witness_semiorder,
)
from ccelab.caps import DEFAULT_CAPS


def test_witness_loopless_exact_arcs_2_2():
    w = witness_loopless(2, 2)
    assert w.n == 4
    assert w.arcs == {(2, 0), (2, 1), (0, 3), (1, 3), (2, 3)}


def test_witness_loopless_cce_shape():
    assert decompose_kr_iq(cce_graph(witness_loopless(3, 2))) == KrIqShape(3, 2)
    w = witness_loopless(2, 4)
    # vertices beyond a and b carry no arcs at all
    assert w.out_neighbors(4) == frozenset()
    assert w.in_neighbors(4) == frozenset()
    assert w.out_neighbors(5) == frozenset()
    assert decompose_kr_iq(cce_graph(w)) == KrIqShape(2, 4)


def test_witness_loopless_rejects_bad_shapes():
    for r, q in ((1, 2), (0, 2), (2, 1), (2, 0), (3, 1)):
        with pytest.raises(ValueError):
            witness_loopless(r, q)


def test_witness_semiorder_values():
    rep = witness_semiorder(0, 3)
    assert rep.f == (0, 0, 0) and rep.delta == 1
    assert cce_graph(semiorder_from(rep)).edges == frozenset()

    rep = witness_semiorder(2, 2)
    assert rep.f == (0, 0, 2, -2) and rep.delta == 1

    shape = decompose_kr_iq(cce_graph(semiorder_from(witness_semiorder(3, 3))))
    assert shape == KrIqShape(3, 3)


def test_witness_semiorder_rejects_bad_shapes():
    for r, q in ((1, 3), (2, 1), (2, 0), (4, 1)):
        with pytest.raises(ValueError):
            witness_semiorder(r, q)


def test_witnesses_full_range():
    # every legal shape with r + q up to one past the loopless cap: exact
    # CCE, all condition levels, and the semiorder witness is recognized
    # back.  The loopless sweep relies on this for its "if" direction.
    for total in range(4, DEFAULT_CAPS["loopless"] + 2):
        for r in range(2, total - 1):
            q = total - r
            w = witness_loopless(r, q)
            assert w.is_loopless()
            assert decompose_kr_iq(cce_graph(w)) == KrIqShape(r, q)
            for p in range(2, total + 1):
                assert satisfies_condition(w, ConditionKind.C, p).satisfied
                assert satisfies_condition(w, ConditionKind.C_PRIME, p).satisfied
            s = semiorder_from(witness_semiorder(r, q))
            assert decompose_kr_iq(cce_graph(s)) == KrIqShape(r, q)
            assert recognize_semiorder(s) is not None
