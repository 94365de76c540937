import pytest

from parklike import (
    ChiMap,
    Generator,
    ParkingLike,
    SetVal,
    TreeLike,
    park_to_tree,
    q_order,
    serialize,
    tree_to_park,
)
from parklike.errors import ChiNotIdentityError, InvalidStructureError
from parklike.expr import E, Ref
from parklike.structures import UNIT, AtomVal, ProdVal, SumVal, canonical_labels

ID = ChiMap.identity()


def sets(*groups):
    """ParkingLike over the set species from tuples of labels ('' = empty)."""
    return ParkingLike(ID, tuple(SetVal(frozenset(g)) for g in groups))


def linear(*labels):
    """A linear-order structure: X*L chained down to the empty order."""
    out = SumVal("L", UNIT)
    for label in reversed(labels):
        out = SumVal("R", ProdVal(AtomVal(label), out))
    return out


# -- the q order ---------------------------------------------------------------


def test_q_order_singleton():
    assert q_order(sets((1,), ())) == [1]


def test_q_order_six_labels():
    p = sets((2, 3), (), (5,), (1, 6), (), (4,), ())
    assert q_order(p) == [2, 3, 5, 1, 6, 4]


def test_q_order_slot_then_label():
    assert q_order(sets((1, 2), (), (3,), ())) == [1, 2, 3]


def test_q_order_rejects_non_identity_chi():
    p = ParkingLike(ChiMap.affine(1, 1), (SetVal({1}), SetVal(frozenset()), SetVal(frozenset())))
    with pytest.raises(ChiNotIdentityError):
        q_order(p)


# -- worked six-label case -----------------------------------------------------


def forest_of(roots, edges):
    """Build a forest of set-species nodes from root labels and an edge map."""

    def node(label):
        return TreeLike(
            SetVal(frozenset(edges.get(label, ()))),
            tuple((c, node(c)) for c in edges.get(label, ())),
        )

    return TreeLike(
        SetVal(frozenset(roots)), tuple((r, node(r)) for r in roots)
    )


def test_worked_example_forward():
    p = sets((2, 3), (), (5,), (1, 6), (), (4,), ())
    expected = forest_of((2, 3), {3: (5,), 5: (1, 6), 6: (4,)})
    assert park_to_tree(p) == expected


def test_worked_example_backward():
    t = forest_of((2, 3), {3: (5,), 5: (1, 6), 6: (4,)})
    assert tree_to_park(t) == sets((2, 3), (), (5,), (1, 6), (), (4,), ())


def test_single_node():
    assert tree_to_park(forest_of((1,), {})) == sets((1,), ())
    assert park_to_tree(sets((1,), ())) == forest_of((1,), {})


def test_empty_both_directions():
    p = sets(())
    t = park_to_tree(p)
    assert t == TreeLike(SetVal(frozenset()), ())
    assert tree_to_park(t) == p


def test_linear_base_by_hand():
    # (12|3|.|.): the second slot's order [3] hangs off label 1; labels 2
    # and 3 get empty orders.
    p = ParkingLike(ID, (linear(1, 2), linear(3), linear(), linear()))
    t = park_to_tree(p)
    assert t.root == linear(1, 2)
    assert t.child(1).root == linear(3)
    assert t.child(2).root == linear()
    assert t.child(1).child(3).root == linear()
    assert tree_to_park(t) == p


# -- round trips on generated corpora -------------------------------------------


@pytest.mark.parametrize("base_name", ["E", "L", "Par"])
def test_round_trip_exhaustive(env, base_name):
    from parklike.expr import Park, Tree

    base = E() if base_name == "E" else Ref(base_name)
    gen = Generator(env)
    for n in range(4):
        labels = canonical_labels(n)
        parks = gen.generate(Park(base, ID), labels)
        trees = gen.generate(Tree(base), labels)
        images = [park_to_tree(p) for p in parks]
        assert {serialize(t) for t in images} == {serialize(t) for t in trees}
        for p, t in zip(parks, images):
            assert tree_to_park(t) == p


def test_equinumerous_to_five(env):
    from parklike.expr import Park, Tree

    gen = Generator(env)
    for base in (E(), Ref("L")):
        for n in range(6):
            assert gen.count(Park(base, ID), n) == gen.count(Tree(base), n)


# -- rejection -----------------------------------------------------------------


def test_park_to_tree_rejects_non_identity_chi():
    p = ParkingLike(ChiMap.affine(1, 1), (SetVal({1}), SetVal(frozenset()), SetVal(frozenset())))
    with pytest.raises(ChiNotIdentityError):
        park_to_tree(p)


def test_park_to_tree_rejects_invalid_parking():
    with pytest.raises(InvalidStructureError):
        park_to_tree(sets((), (1,)))


def test_tree_to_park_rejects_label_reuse():
    dup = TreeLike(
        SetVal({1}),
        ((1, TreeLike(SetVal({1}), ((1, TreeLike(SetVal(frozenset()), ())),))),),
    )
    with pytest.raises(InvalidStructureError):
        tree_to_park(dup)


def test_tree_to_park_rejects_a_child_head_its_root_does_not_hold():
    # Head 2 is no label of the root, so no parking carries this tree.
    t = TreeLike(SetVal({1}), ((2, TreeLike(SetVal(frozenset()), ())),))
    with pytest.raises(InvalidStructureError, match=r"^children keys \[2\] != root labels \[1\]$"):
        tree_to_park(t)


def test_bijection_and_validation_leave_no_cyclic_garbage():
    # Only reference counting frees what they build: no self-referencing
    # closure keeps a document's structures alive until a collection.
    import gc

    from parklike import validate_tree

    p = sets((1, 3), (), (2,), ())
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        t = park_to_tree(p)
        assert validate_tree(t, E()) and tree_to_park(t) == p
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
