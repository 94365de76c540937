import json
import re
import sys

import pytest

from parklike import (
    UNIT,
    AtomVal,
    ComposeVal,
    Generator,
    ProdVal,
    SetVal,
    SumVal,
    TreeLike,
    deserialize,
    from_jsonable,
    parse_species,
    serialize,
)
from parklike.errors import InvalidStructureError, SpeciesError
from parklike.frozen import FrozenInstanceError
from parklike.structures import canonical_labels, read_json
from parklike.verify import BASES

from jsonable import to_jsonable


def test_unit():
    assert UNIT.underlying() == frozenset()
    assert serialize(UNIT) == '{"k":"unit"}'
    assert UNIT.relabel({}) is UNIT


def test_set_and_atom():
    s = SetVal(frozenset({3, 1}))
    assert s.underlying() == {1, 3}
    assert json.loads(serialize(s)) == {"k": "set", "labels": [1, 3]}
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


def canonical_json(s) -> str:
    return json.dumps(to_jsonable(s), sort_keys=True, separators=(",", ":"))


LISTED = [name for name, _ in BASES] + [
    "park(E)",
    "park(L, affine(2,0))",
    "park(E, table(1,3,4,6,8,9,11,12))",
    "tree(Comp)",
    "E@(X+X)",
    "X*L",
    "1+X",
    "E^3",
]


@pytest.mark.parametrize("text", LISTED)
def test_serialize_writes_the_canonical_json_of_to_jsonable(env, text):
    gen = Generator(env)
    expr = parse_species(text, env)
    for n in range(5):
        for s in gen.raw(expr, canonical_labels(n)):
            assert serialize(s) == canonical_json(s)


@pytest.mark.parametrize(
    "definitions, text",
    [((), text) for text in LISTED]
    + [
        ((), "park(E, affine(0,0))"),  # no slot on no labels
        ((), "park(E, affine(0,1))"),
        ((), "park(E, table(1,1,2))"),  # shifted tables with no first slot
        ((), "park(tree(E), id)"),
        ((), "restrict(Par,2) + restrict(E,0)*L"),
        ((), "E^0 * (X + E)^2"),
        ((), "tree(1 + restrict(E,2))"),
        ((), "(E+)@(X*L)"),
        (("A:=X + park(A, affine(0,1))*A",), "A"),
        (("A:=X*tree(B)", "B:=1 + A*B"), "A + B"),
    ],
)
def test_the_text_fold_writes_serialize_of_the_list_fold(defined, definitions, text):
    # Element by element, in construction order, or the same error.
    env = defined(*definitions)
    expr = parse_species(text, env)
    for n in range(5):
        labels = canonical_labels(n)
        try:
            listed = [serialize(s) for s in Generator(env).raw(expr, labels)]
        except SpeciesError as error:
            with pytest.raises(type(error), match=re.escape(str(error))):
                Generator(env).texts(expr, labels)
            return
        assert Generator(env).texts(expr, labels) == listed, n


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


@pytest.mark.parametrize(
    "text",
    [
        '{"k":"set","labels":[1,1]}',
        '{"blocks":[{"in":{"k":"set","labels":[1,2]},"labels":[1,2,1]}],"k":"comp","outer":{"k":"set","labels":[1]}}',
    ],
)
def test_deserialize_rejects_a_repeated_label(text):
    # Read as a set, the labels would lose the repeat without a word.
    with pytest.raises(InvalidStructureError, match=re.escape("labels must be distinct, got [1, ")):
        deserialize(text)


def test_an_unrecognized_document_is_echoed_in_part():
    # A short value is echoed whole; a long one is cut, with a note of the cut.
    with pytest.raises(InvalidStructureError) as short:
        from_jsonable({"k": "mystery"})
    assert str(short.value) == "unrecognized structure JSON: {'k': 'mystery'}"
    seq = [{"k": "set", "labels": [i]} for i in range(1, 3002)]
    with pytest.raises(InvalidStructureError) as long:
        from_jsonable({"k": "park", "chi": "id", "seq": seq})
    text = repr({"k": "park", "chi": "id", "seq": seq})
    assert str(long.value) == (
        f"unrecognized structure JSON: {text[:200]}... ({len(text) - 200} more characters)"
    )


def test_deserialize_rejects_bad_json():
    with pytest.raises(InvalidStructureError):
        deserialize("{not json")


def test_deserialize_rejects_deep_nesting():
    with pytest.raises(InvalidStructureError):
        deserialize("[" * 100_000)


def test_deserialize_reads_a_path_deeper_than_the_recursion_limit():
    # 3,000 labels at the default limit, which nest 9,000 JSON containers:
    # too deep for raw_decode alone.
    t = TreeLike(SetVal(frozenset()), ())
    for label in range(3 * sys.getrecursionlimit(), 0, -1):
        t = TreeLike(SetVal({label}), ((label, t),))
    assert deserialize(serialize(t)) == t


@pytest.mark.parametrize("text", ["", " \n", "{}\n{}", '{"k":"unit"}\n{"k":"unit"}'])
def test_deserialize_reads_exactly_one_document(text):
    with pytest.raises(InvalidStructureError, match="^bad JSON: expected one document, got [02]$"):
        deserialize(text)


def test_deserialize_reads_one_document_in_any_layout():
    s = ProdVal(AtomVal(1), SetVal({2, 3}))
    assert deserialize(json.dumps(to_jsonable(s), indent=4) + "\n\n") == s


@pytest.mark.parametrize(
    "text, documents",
    [
        ("", []),
        (" \t\r\n\n", []),
        ('{"a": [1,\n 2]}\n\n  [3]\r\n4', [{"a": [1, 2]}, [3], 4]),
        ('"x"\n', ["x"]),
    ],
)
def test_read_json_reads_each_document_starting_on_a_new_line(text, documents):
    assert read_json(text) == documents


@pytest.mark.parametrize(
    "text, error",
    [
        ("[1]\n[2] 3", "Extra data: line 2 column 5 (char 8)"),
        ("[]\n" + "[" * 5000, "Expecting value: line 2 column 5001 (char 5003)"),
    ],
    ids=["extra-data", "deep"],
)
def test_read_json_places_an_error_in_the_whole_text(text, error):
    with pytest.raises(json.JSONDecodeError) as exc:
        read_json(text)
    assert str(exc.value) == error


def test_canonical_labels():
    assert canonical_labels(0) == frozenset()
    assert canonical_labels(3) == {1, 2, 3}



# -- value semantics of the constructors ------------------------------------------


def _one_of_each():
    from parklike.chi import ChiMap
    from parklike.structures import ParkingLike, TreeLike

    leaf = TreeLike(SetVal(frozenset()), ())
    return [
        (SetVal({1}), "labels"),
        (AtomVal(1), "label"),
        (SumVal("L", UNIT), "side"),
        (SumVal("R", UNIT), "inner"),
        (ProdVal(UNIT, AtomVal(1)), "left"),
        (ProdVal(UNIT, AtomVal(1)), "right"),
        (ComposeVal(AtomVal(1), ((frozenset({1}), AtomVal(1)),)), "outer"),
        (ComposeVal(AtomVal(1), ((frozenset({1}), AtomVal(1)),)), "blocks"),
        (ParkingLike(ChiMap.identity(), (UNIT,)), "chi"),
        (ParkingLike(ChiMap.identity(), (UNIT,)), "sequence"),
        (TreeLike(SetVal({1}), ((1, leaf),)), "root"),
        (TreeLike(SetVal({1}), ((1, leaf),)), "children"),
    ]


@pytest.mark.parametrize(
    "value, field", _one_of_each(), ids=lambda v: v if isinstance(v, str) else type(v).__name__
)
def test_structure_fields_are_frozen(value, field):
    before = getattr(value, field)
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, before)
    with pytest.raises(FrozenInstanceError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_parking_like_from_a_list_equals_the_one_from_a_tuple():
    from parklike.chi import ChiMap
    from parklike.structures import ParkingLike

    parts = [SetVal({1}), SetVal(frozenset())]
    from_list = ParkingLike(ChiMap.identity(), parts)
    from_tuple = ParkingLike(ChiMap.identity(), tuple(parts))
    assert type(from_list.sequence) is tuple
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert serialize(from_list) == serialize(from_tuple)


@pytest.mark.parametrize("order", [(1, 2, 3), (3, 1, 2), (2, 3, 1)])
def test_tree_like_children_from_a_list_are_the_sorted_tuple(order):
    from parklike.structures import TreeLike

    leaf = TreeLike(SetVal(frozenset()), ())
    t = TreeLike(SetVal({1, 2, 3}), [(head, leaf) for head in order])
    assert t.children == ((1, leaf), (2, leaf), (3, leaf))
    assert type(t.children) is tuple
    assert t == TreeLike(SetVal({1, 2, 3}), ((1, leaf), (2, leaf), (3, leaf)))
