"""The public result records: field order, defaults, immutability and
pickling, which the sweeps split over worker processes rely on."""

import pickle

import pytest

import ccelab
from ccelab import ConditionKind, Digraph, SimpleGraph

D = Digraph(2, [(0, 1)])
G = SimpleGraph(2, [(0, 1)])

# (record, its fields in order, the values given positionally, the defaults
# of the remaining fields, {property: value} on the record so built)
RECORDS = [
    ("ConditionReport", ("kind", "p", "satisfied", "violating_set"),
     (ConditionKind.C, 2, True), (None,), {}),
    ("DkResult", ("k", "witness"), (1, D), (), {}),
    ("KrIqShape", ("r", "q"), (2, 3), (), {}),
    ("SemiorderRep", ("f", "delta"), ((0, 2), 1), (), {}),
    ("IntervalRep", ("intervals",), (((0, 1), (2, 2)),), (), {}),
    ("EnumerationFilter", ("n", "loopless", "acyclic"), (3,), (False, False), {}),
    ("SweepOutcome", ("checked", "counterexample", "missing_shape"), (7,),
     (None, None), {"verified": True}),
    ("SweepOutcome", ("checked", "counterexample", "missing_shape"),
     (7, (D, "clique")), (None,), {"verified": False}),
    ("SweepOutcome", ("checked", "counterexample", "missing_shape"),
     (7, None, (4, 0, "interval order")), (), {"verified": False}),
    ("ExploreClass", ("canonical", "graph", "witness"), (5, G, D), (), {}),
    ("ExploreReport", ("problem", "p", "n", "checked", "sections"),
     (1, 2, 3, 512, {"C&Cp": ()}), (), {}),
]


@pytest.mark.parametrize(
    "name, fields, given, defaults, properties", RECORDS,
    ids=[f"{r[0]}-{len(r[2])}" for r in RECORDS],
)
def test_records_keep_fields_defaults_immutability_and_pickling(
    name, fields, given, defaults, properties
):
    cls = getattr(ccelab, name)
    record = cls(*given)
    assert record == cls(**dict(zip(fields, given)))
    assert record._asdict() == dict(zip(fields, given + defaults))
    assert list(record._asdict()) == list(fields)
    for attr, value in properties.items():
        assert getattr(record, attr) == value
    for attr in fields:
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
