"""The value protocol every immutable class of the package keeps.

Each case is (class, constructor arguments, field names, exact repr, a value
of another class with the same field values or None).  Values are equal iff
they have the same class and equal fields, equal values hash alike, repr is
Name(field=value, ...), and no field can be assigned or deleted.
"""

import copy
import pickle

import pytest

from parklike import (
    AtomVal,
    ChiMap,
    Compose,
    ComposeVal,
    E,
    EgfSeries,
    EPlus,
    One,
    Park,
    ParkingFunction,
    ParkingLike,
    Power,
    Prod,
    ProdVal,
    Ref,
    Restrict,
    SetVal,
    Sum,
    SumVal,
    Tree,
    TreeLike,
    UnitVal,
    X,
    Zero,
)
from parklike.frozen import FrozenInstanceError

ID = ChiMap.identity()
ID_TEXT = "ChiMap(kind='affine', a=1, b=0, table=())"
U = UnitVal()
LEAF = TreeLike(SetVal(frozenset()), ())
LEAF_TEXT = "TreeLike(root=SetVal(labels=frozenset()), children=())"
BLOCKS = ((frozenset({1, 2}), SetVal({1, 2})),)

CASES = [
    (Zero, (), (), "Zero()", One()),
    (One, (), (), "One()", X()),
    (X, (), (), "X()", E()),
    (E, (), (), "E()", EPlus()),
    (EPlus, (), (), "EPlus()", U),
    (Sum, (X(), E()), ("left", "right"), "Sum(left=X(), right=E())", Prod(X(), E())),
    (Prod, (X(), E()), ("left", "right"), "Prod(left=X(), right=E())", Compose(X(), E())),
    (Power, (X(), 3), ("base", "exponent"), "Power(base=X(), exponent=3)", Restrict(X(), 3)),
    (Restrict, (E(), 2), ("base", "card"), "Restrict(base=E(), card=2)", Power(E(), 2)),
    (Compose, (E(), EPlus()), ("outer", "inner"), "Compose(outer=E(), inner=EPlus())",
     Sum(E(), EPlus())),
    (Ref, ("L",), ("name",), "Ref(name='L')", Tree("L")),
    (Park, (E(), ID), ("base", "chi"), f"Park(base=E(), chi={ID_TEXT})", Compose(E(), ID)),
    (Tree, (E(),), ("base",), "Tree(base=E())", Ref(E())),
    (ChiMap, ("table", 0, 0, (1, 3)), ("kind", "a", "b", "table"),
     "ChiMap(kind='table', a=0, b=0, table=(1, 3))", None),
    (EgfSeries, (2, (1, 1, 2)), ("order", "counts"), "EgfSeries(order=2, counts=(1, 1, 2))",
     Sum(2, (1, 1, 2))),
    (ParkingFunction, (((1, 1), (2, 1)),), ("mapping",),
     "ParkingFunction(mapping=((1, 1), (2, 1)))", Ref(((1, 1), (2, 1)))),
    (UnitVal, (), (), "UnitVal()", Zero()),
    (SetVal, (frozenset({1, 2}),), ("labels",), "SetVal(labels=frozenset({1, 2}))",
     Ref(frozenset({1, 2}))),
    (AtomVal, (1,), ("label",), "AtomVal(label=1)", Ref(1)),
    (SumVal, ("L", U), ("side", "inner"), "SumVal(side='L', inner=UnitVal())", Sum("L", U)),
    (ProdVal, (AtomVal(1), U), ("left", "right"),
     "ProdVal(left=AtomVal(label=1), right=UnitVal())", Prod(AtomVal(1), U)),
    (ComposeVal, (SetVal({1}), BLOCKS), ("outer", "blocks"),
     "ComposeVal(outer=SetVal(labels=frozenset({1})), "
     "blocks=((frozenset({1, 2}), SetVal(labels=frozenset({1, 2}))),))",
     Compose(SetVal({1}), BLOCKS)),
    (ParkingLike, (ID, (SetVal({1}), SetVal(frozenset()))), ("chi", "sequence"),
     f"ParkingLike(chi={ID_TEXT}, sequence=(SetVal(labels=frozenset({{1}})), "
     "SetVal(labels=frozenset())))",
     Park(ID, (SetVal({1}), SetVal(frozenset())))),
    (TreeLike, (SetVal({1}), ((1, LEAF),)), ("root", "children"),
     f"TreeLike(root=SetVal(labels=frozenset({{1}})), children=((1, {LEAF_TEXT}),))",
     Sum(SetVal({1}), ((1, LEAF),))),
]
IDS = [case[0].__name__ for case in CASES]


def test_every_value_class_has_a_case():
    assert len({case[0] for case in CASES}) == 24


@pytest.mark.parametrize("cls, args, fields, text, other", CASES, ids=IDS)
def test_value_protocol(cls, args, fields, text, other):
    value, twin = cls(*args), cls(*args)
    assert repr(value) == text
    assert value is not twin or not fields
    assert value == twin and not value != twin and hash(value) == hash(twin)
    if other is not None:
        assert type(other) is not cls
        assert value != other and other != value and not value == other
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, before)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
        assert getattr(value, name) is before


@pytest.mark.parametrize("cls, args, fields, text, other", CASES, ids=IDS)
def test_a_changed_field_gives_another_value(cls, args, fields, text, other):
    if not fields:
        return
    value = cls(*args)
    for i, name in enumerate(fields):
        changed = list(args)
        changed[i] = _other_field_value(cls, name, args[i])
        if changed[i] is not None:
            assert cls(*changed) != value, name


def _other_field_value(cls, name, value):
    """Another value for one field, or None where the class admits none alone."""
    if cls is ChiMap:
        return {"kind": "affine", "a": 1, "b": 1, "table": (1, 4)}[name]
    if cls is EgfSeries:
        return {"order": None, "counts": (1, 1, 3)}[name]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return "R" if value == "L" else value + "x"
    if isinstance(value, frozenset):
        return value | {9}
    if isinstance(value, ChiMap):
        return ChiMap.affine(2, 0)
    if isinstance(value, tuple):
        return value[:-1]
    return One() if value != One() else X()


def test_chi_equality_and_hash_ignore_the_origin():
    written = ChiMap.from_table([0, 1, 2, 3])
    shifted = written.shift(1)
    plain = ChiMap("table", table=(1, 2, 3))
    assert shifted.origin == (written, 1) and plain.origin is None
    assert shifted == plain and hash(shifted) == hash(plain)
    assert repr(shifted) == repr(plain) == "ChiMap(kind='table', a=0, b=0, table=(1, 2, 3))"
    by_keyword = ChiMap("table", table=(1, 2, 3), origin=(written, 1))
    assert by_keyword == shifted and by_keyword.origin == (written, 1)


def test_chi_keyword_and_positional_construction_agree():
    assert ChiMap.affine(2, -1) == ChiMap("affine", a=2, b=-1) == ChiMap("affine", 2, -1)
    assert ChiMap.affine(1, 0) == ChiMap.identity() == ChiMap("affine", 1)
    assert ChiMap.from_table([1, 2]) == ChiMap("table", table=(1, 2))
    assert ChiMap("affine", 1, 0, ()).table == () and ChiMap("affine", 1, 0).origin is None


def test_values_share_a_hash_only_through_their_fields():
    # Nested values of one shape, built apart, hash and compare alike.
    def build():
        return Sum(One(), Prod(X(), Power(Park(Ref("L"), ChiMap.affine(2, 0)), 3)))

    assert build() == build() and hash(build()) == hash(build())
    assert len({build(), build(), Sum(One(), Prod(X(), Ref("L")))}) == 2


@pytest.mark.parametrize("cls, args, fields, text, other", CASES, ids=IDS)
def test_values_survive_pickling_and_copying(cls, args, fields, text, other):
    value = cls(*args)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


def test_a_pickled_chi_map_keeps_its_origin():
    shifted = ChiMap.from_table([0, 1, 2, 3]).shift(1)
    assert pickle.loads(pickle.dumps(shifted)).origin == shifted.origin
