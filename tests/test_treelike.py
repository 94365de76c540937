import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from parklike import (
    Generator,
    ParkingLike,
    SpeciesEnv,
    accepts,
    SetVal,
    TreeLike,
    deserialize,
    parse_species,
    serialize,
    park_to_tree,
    tree_from_core,
    tree_to_core,
    tree_to_park,
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


def test_repeated_head_out_of_order_constructs_and_fails_validation():
    # Children 2, 1, 2 with unequal subtrees: the sort is by head alone, so
    # the two subtrees under head 2 are never compared.
    leaf = TreeLike(SetVal(frozenset()), ())
    other = TreeLike(SetVal({3}), ((3, leaf),))
    t = TreeLike(SetVal({1, 2}), ((2, leaf), (1, leaf), (2, other)))
    assert t.children == ((1, leaf), (2, leaf), (2, other))
    with pytest.raises(InvalidStructureError, match=r"^children keys \[1, 2, 2\] != root labels \[1, 2\]$"):
        validate_tree(t)


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


def recursive_validate_tree(t, base=None, env=None):
    """The node-by-node recursion validate_tree follows, as a test-local oracle."""

    def rec(node):
        heads = node.root.underlying()
        child_heads = [head for head, _sub in node.children]
        if child_heads != sorted(heads):
            raise InvalidStructureError(
                f"children keys {child_heads} != root labels {sorted(heads)}"
            )
        if base is not None and not accepts(base, node.root, env):
            raise InvalidStructureError(
                f"root on {sorted(heads)} is not a base-species structure"
            )
        seen = heads
        for head, sub in node.children:
            below = rec(sub)
            if below & seen:
                raise InvalidStructureError(f"label reuse under head {head}")
            seen |= below
        return seen

    rec(t)
    return True


def verdict(validate, t, *args):
    try:
        return validate(t, *args)
    except InvalidStructureError as exc:
        return str(exc)


def node(heads, subtrees, fault):
    """A node with a subtree per head; with fault "atom", an atom root (which
    E rejects) when there is one head; with "short", no subtree at the last
    head."""
    heads = sorted(heads)
    root = AtomVal(heads[0]) if fault == "atom" and len(heads) == 1 else SetVal(heads)
    children = tuple(zip(heads, subtrees))
    return TreeLike(root, children[:-1] if fault == "short" else children)


# Trees on labels 1..3: labels reused across nodes, heads short of a subtree,
# atom roots, often more than one fault in one tree.
trees = st.recursive(
    st.just(TreeLike(SetVal(frozenset()), ())),
    lambda sub: st.builds(
        node,
        st.frozensets(st.integers(1, 3), min_size=1, max_size=3),
        st.lists(sub, min_size=3, max_size=3),
        st.sampled_from([None, None, None, None, "atom", "short"]),
    ),
    max_leaves=8,
)


# Two subtrees under the top node that both hold label 3.
_TWICE = TreeLike(SetVal({3}), ((3, TreeLike(SetVal(frozenset()), ())),))


@given(trees, st.booleans())
@example(TreeLike(SetVal({1, 2}), ((1, _TWICE), (2, _TWICE))), False)
@settings(max_examples=300, deadline=None)
def test_validate_tree_reports_the_first_fault_the_recursion_meets(t, with_base):
    args = (E(), SpeciesEnv.standard()) if with_base else ()
    assert verdict(validate_tree, t, *args) == verdict(recursive_validate_tree, t, *args)


@given(trees, st.booleans())
@example(TreeLike(SetVal({1}), ((1, TreeLike(SetVal(frozenset()), ())),) * 2), False)
@settings(max_examples=300, deadline=None)
def test_tree_to_park_rejects_exactly_what_validate_tree_rejects_and_names_it_alike(t, with_base):
    # With or without a base, the converter's one check is validate_tree.
    args = (E(), SpeciesEnv.standard()) if with_base else ()
    expected, got = verdict(validate_tree, t, *args), verdict(tree_to_park, t, *args)
    if expected is True:
        assert isinstance(got, ParkingLike) and park_to_tree(got, *args) == t
    else:
        assert got == expected


def test_validate_tree_walks_a_path_deeper_than_the_recursion_limit():
    n = 3 * sys.getrecursionlimit()
    t = TreeLike(SetVal(frozenset()), ())
    for label in range(n, 0, -1):
        t = TreeLike(SetVal({label}), ((label, t),))
    assert validate_tree(t, base=E())


def recursive_underlying(t):
    """TreeLike.underlying as a recursion per level, a test-local oracle."""
    out = t.root.underlying()
    for _head, sub in t.children:
        out |= recursive_underlying(sub)
    return out


def recursive_relabel(t, mapping):
    """TreeLike.relabel as a recursion per level, a test-local oracle."""
    return TreeLike(
        t.root.relabel(mapping),
        tuple((mapping[head], recursive_relabel(sub, mapping)) for head, sub in t.children),
    )


@given(trees, st.permutations([1, 2, 3]))
@example(TreeLike(SetVal({1, 2}), ((1, _TWICE), (2, _TWICE))), [3, 1, 2])
@settings(max_examples=200, deadline=None)
def test_underlying_and_relabel_match_the_recursion(t, image):
    mapping = dict(zip([1, 2, 3], image))
    assert t.underlying() == recursive_underlying(t)
    moved = t.relabel(mapping)
    assert moved == recursive_relabel(t, mapping)
    assert serialize(moved) == serialize(recursive_relabel(t, mapping))


def test_underlying_and_relabel_walk_a_path_deeper_than_the_recursion_limit():
    n = 3 * sys.getrecursionlimit()

    def path(labels):
        t = TreeLike(SetVal(frozenset()), ())
        for label in reversed(labels):
            t = TreeLike(SetVal({label}), ((label, t),))
        return t

    t = path(range(1, n + 1))
    assert t.underlying() == frozenset(range(1, n + 1))
    # Deep values are compared by their text: dataclass equality recurses.
    moved = t.relabel({label: label + n for label in range(1, n + 1)})
    assert serialize(moved) == serialize(path(range(n + 1, 2 * n + 1)))
