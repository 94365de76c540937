import json

import pytest

from parklike import (
    UNIT,
    AtomVal,
    ComposeVal,
    ProdVal,
    SetVal,
    SumVal,
    deserialize,
    from_jsonable,
    serialize,
)
from parklike.errors import InvalidStructureError
from parklike.structures import canonical_labels


def test_unit():
    assert UNIT.underlying() == frozenset()
    assert serialize(UNIT) == '{"k":"unit"}'
    assert UNIT.relabel({}) is UNIT


def test_set_and_atom():
    s = SetVal(frozenset({3, 1}))
    assert s.underlying() == {1, 3}
    assert s.to_jsonable() == {"k": "set", "labels": [1, 3]}
    a = AtomVal(7)
    assert a.underlying() == {7}
    assert a.relabel({7: 2}) == AtomVal(2)


def test_setval_coerces_iterables():
    assert SetVal({1, 2}) == SetVal(frozenset({1, 2}))


def test_sum_sides():
    s = SumVal("L", AtomVal(1))
    assert s.side == "L"
    with pytest.raises(InvalidStructureError):
        SumVal("M", AtomVal(1))


def test_prod_underlying_is_union():
    p = ProdVal(AtomVal(1), SetVal(frozenset({2, 3})))
    assert p.underlying() == {1, 2, 3}


def test_compose_blocks_sorted_by_min():
    b1 = (frozenset({4, 5}), SetVal(frozenset({4, 5})))
    b2 = (frozenset({1, 2}), SetVal(frozenset({1, 2})))
    c = ComposeVal(SetVal(frozenset({1, 4})), (b1, b2))
    assert [sorted(b) for b, _ in c.blocks] == [[1, 2], [4, 5]]
    assert c.underlying() == {1, 2, 4, 5}


def test_compose_rejects_empty_blocks():
    with pytest.raises(InvalidStructureError):
        ComposeVal(SetVal(frozenset()), ((frozenset(), UNIT),))


def test_compose_relabel_transports_outer_representatives():
    # blocks {1,2} and {3}; swap so the old reps 1 and 3 become 4 and 2.
    c = ComposeVal(
        SetVal(frozenset({1, 3})),
        ((frozenset({1, 2}), SetVal(frozenset({1, 2}))), (frozenset({3}), AtomVal(3))),
    )
    moved = c.relabel({1: 5, 2: 4, 3: 2})
    assert moved.outer.underlying() == {2, 4}
    assert [sorted(b) for b, _ in moved.blocks] == [[2], [4, 5]]


def test_relabel_composes():
    s = ProdVal(SumVal("R", AtomVal(2)), SetVal(frozenset({1, 3})))
    f = {1: 10, 2: 20, 3: 30}
    g = {10: 5, 20: 6, 30: 7}
    assert s.relabel(f).relabel(g) == s.relabel({k: g[v] for k, v in f.items()})


SAMPLES = [
    UNIT,
    SetVal(frozenset()),
    SetVal(frozenset({1, 2, 9})),
    AtomVal(4),
    SumVal("L", UNIT),
    SumVal("R", ProdVal(AtomVal(1), AtomVal(2))),
    ProdVal(SetVal(frozenset({2})), SetVal(frozenset({5, 6}))),
    ComposeVal(
        SetVal(frozenset({1, 3})),
        ((frozenset({1, 2}), SetVal(frozenset({1, 2}))), (frozenset({3}), AtomVal(3))),
    ),
]


@pytest.mark.parametrize("s", SAMPLES, ids=[serialize(s) for s in SAMPLES])
def test_serialize_round_trip(s):
    assert deserialize(serialize(s)) == s


def test_serialization_is_canonical():
    text = serialize(SetVal(frozenset({3, 1, 2})))
    assert text == '{"k":"set","labels":[1,2,3]}'
    assert json.loads(text) == {"k": "set", "labels": [1, 2, 3]}


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"k": "mystery"},
        {"k": "set", "labels": [1, "two"]},
        {"k": "set", "labels": [True]},
        {"k": "sum", "side": "L"},
        {"k": "comp", "outer": {"k": "unit"}, "blocks": [{"labels": [], "in": {"k": "unit"}}]},
        {"root": {"k": "unit"}},
        {"chi": "bogus", "seq": []},
        {"chi": 5, "seq": []},
        {"chi": "table(١)", "seq": []},
    ],
)
def test_from_jsonable_rejects_malformed(data):
    with pytest.raises(InvalidStructureError):
        from_jsonable(data)


def test_deserialize_rejects_bad_json():
    with pytest.raises(InvalidStructureError):
        deserialize("{not json")


def test_deserialize_rejects_deep_nesting():
    with pytest.raises(InvalidStructureError):
        deserialize("[" * 100_000)


def test_canonical_labels():
    assert canonical_labels(0) == frozenset()
    assert canonical_labels(3) == {1, 2, 3}

