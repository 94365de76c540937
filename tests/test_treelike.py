import pytest

from parklike import (
    Generator,
    SetVal,
    TreeLike,
    deserialize,
    parse_species,
    serialize,
    tree_from_core,
    tree_to_core,
    validate_tree,
)
from parklike.errors import InvalidStructureError
from parklike.expr import E, Ref, Tree
from parklike.structures import UNIT, AtomVal, canonical_labels


def test_counts_forests(env):
    got = [len(Generator(env).generate(Tree(E()), canonical_labels(n))) for n in range(5)]
    assert got == [1, 1, 3, 16, 125]


def test_counts_linear_base(env):
    got = [len(Generator(env).generate(Tree(Ref("L")), canonical_labels(n))) for n in range(5)]
    assert got == [1, 1, 4, 30, 336]


def test_single_label_forest(env):
    (t,) = Generator(env).generate(Tree(E()), {1})
    assert t.root == SetVal({1})
    assert t.heads == {1}
    sub = t.child(1)
    assert sub.root == SetVal(frozenset()) and sub.children == ()
    with pytest.raises(KeyError):
        t.child(2)


def test_empty_label_set_is_bare_base_structure(env):
    (t,) = Generator(env).generate(Tree(E()), frozenset())
    assert t == TreeLike(SetVal(frozenset()), ())
    # a base with several empty structures keeps them distinct
    two = Generator(env).generate(Tree(Ref("Sub")), frozenset())
    assert len(two) == 1  # E*E has exactly one structure on the empty set


def test_children_sorted_regardless_of_input_order(env):
    leaf1 = TreeLike(SetVal({1}), ((1, TreeLike(SetVal(frozenset()), ())),))
    leaf2 = TreeLike(SetVal({2}), ((2, TreeLike(SetVal(frozenset()), ())),))
    t = TreeLike(SetVal({2, 1}), ((2, leaf2.child(2)), (1, leaf1.child(1))))
    assert [h for h, _ in t.children] == [1, 2]


def test_every_label_used_exactly_once(env):
    for n in range(5):
        for t in Generator(env).generate(Tree(E()), canonical_labels(n)):
            assert t.underlying() == canonical_labels(n)
            assert validate_tree(t, base=E())


def test_output_sorted_and_distinct(env):
    out = [serialize(t) for t in Generator(env).generate(Tree(Ref("L")), canonical_labels(3))]
    assert out == sorted(out)
    assert len(set(out)) == 30


def test_json_round_trip(env):
    for t in Generator(env).generate(Tree(E()), canonical_labels(3)):
        assert deserialize(serialize(t)) == t


# -- the unfolding bridge ------------------------------------------------------


@pytest.mark.parametrize("base_text", ["E", "L"])
def test_node_and_core_representations_agree(base_text):
    # Solving T := base@(X*T) with the generic machinery must give exactly
    # the unfoldings of the dedicated tree generation.
    from parklike import SpeciesEnv

    env = SpeciesEnv.standard()
    env.bind("TT", parse_species(f"{base_text}@(X*TT)", env, extra_names=("TT",)))
    gen = Generator(env)
    base = parse_species(base_text, env)
    for n in range(4):
        labels = canonical_labels(n)
        via_core = {serialize(s) for s in gen.raw(Ref("TT"), labels)}
        via_trees = {
            serialize(tree_to_core(t)) for t in Generator(env).generate(Tree(base), labels)
        }
        assert via_trees == via_core


def test_core_round_trip(env):
    for n in range(5):
        for t in Generator(env).generate(Tree(E()), canonical_labels(n)):
            assert tree_from_core(tree_to_core(t)) == t


def test_tree_from_core_rejects_malformed():
    with pytest.raises(InvalidStructureError):
        tree_from_core(AtomVal(1))
    from parklike.structures import ComposeVal

    bad = ComposeVal(AtomVal(1), ((frozenset({1}), AtomVal(1)),))
    with pytest.raises(InvalidStructureError):
        tree_from_core(bad)


# -- validation ----------------------------------------------------------------


def test_validate_rejects_missing_child():
    t = TreeLike(SetVal({1, 2}), ((1, TreeLike(SetVal(frozenset()), ())),))
    with pytest.raises(InvalidStructureError):
        validate_tree(t)


def test_validate_rejects_label_reuse():
    inner = TreeLike(SetVal({1}), ((1, TreeLike(SetVal(frozenset()), ())),))
    t = TreeLike(SetVal({1}), ((1, inner),))
    with pytest.raises(InvalidStructureError):
        validate_tree(t)


def test_validate_rejects_foreign_root(env):
    t = TreeLike(AtomVal(1), ((1, TreeLike(UNIT, ())),))
    with pytest.raises(InvalidStructureError):
        validate_tree(t, base=E(), env=env)
