"""The walks of a tree-like value against the per-level walks they replaced.

tree_to_park, tree_to_core, tree_from_core and the tree JSON reader each
read one node list (TreeLike.nodes(), or the same breadth-first list of the
input) instead of a queue of their own or one interpreter frame per level.
The oracles below are those older walks, kept here: on valid trees the
outputs must be equal, and on an input with one fault the error text too,
but for tree_to_park, which names a fault as validate_tree does.
"""

import json
import re
import sys
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from parklike import (
    ChiMap,
    Generator,
    ParkingLike,
    SetVal,
    SpeciesEnv,
    TreeLike,
    from_jsonable,
    serialize,
    tree_from_core,
    tree_to_core,
    tree_to_park,
    validate_tree,
)
from parklike.errors import InvalidStructureError
from parklike.expr import Tree
from parklike.structures import (
    UNIT,
    AtomVal,
    ComposeVal,
    ProdVal,
    SumVal,
    _array,
    _label,
    _tree_from_jsonable,
    canonical_labels,
)
from parklike.verify import BASES

LEAF = TreeLike(SetVal(frozenset()), ())


# -- the oracles: the walks as they were -----------------------------------------


def queue_tree_to_park(t):
    """tree_to_park as a queue of heads and a dict of subtrees by head."""
    sequence = [t.root]
    queue = deque()
    subtree_at = {}
    for head, sub in t.children:
        subtree_at[head] = sub
    queue.extend(head for head, _sub in t.children)
    seen = set(subtree_at)
    while queue:
        label = queue.popleft()
        node = subtree_at[label]
        sequence.append(node.root)
        for head, sub in node.children:
            if head in seen:
                raise InvalidStructureError(f"label {head} appears twice")
            seen.add(head)
            subtree_at[head] = sub
            queue.append(head)
    return ParkingLike(ChiMap.identity(), tuple(sequence))


def recursive_tree_to_core(t):
    blocks = []
    head_to_rep = {}
    for head, sub in t.children:
        inner = ProdVal(AtomVal(head), recursive_tree_to_core(sub))
        block = inner.underlying()
        head_to_rep[head] = min(block)
        blocks.append((block, inner))
    return ComposeVal(t.root.relabel(head_to_rep), tuple(blocks))


def recursive_tree_from_core(s):
    if not isinstance(s, ComposeVal):
        raise InvalidStructureError("expected a composition structure")
    children = []
    rep_to_head = {}
    for block, inner in s.blocks:
        if not isinstance(inner, ProdVal) or not isinstance(inner.left, AtomVal):
            raise InvalidStructureError("block is not an (atom, subtree) pair")
        head = inner.left.label
        rep_to_head[min(block)] = head
        children.append((head, recursive_tree_from_core(inner.right)))
    return TreeLike(s.outer.relabel(rep_to_head), tuple(children))


def recursive_tree_from_jsonable(data):
    root = from_jsonable(data["root"])
    children = tuple(
        (_label(child["label"]), recursive_tree_from_jsonable(child["subtree"]))
        for child in _array(data["children"], "children")
    )
    return TreeLike(root, children)


def verdict(walk, value):
    """The walk's output as text, or its error as from_jsonable reports it."""
    try:
        return serialize(walk(value))
    except InvalidStructureError as exc:
        return f"InvalidStructureError: {exc}"
    except (KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: malformed structure JSON: {exc}"


WALKS = [
    (tree_to_park, queue_tree_to_park),
    (tree_to_core, recursive_tree_to_core),
    (lambda t: tree_from_core(tree_to_core(t)), lambda t: recursive_tree_from_core(tree_to_core(t))),
    (lambda t: _tree_from_jsonable(json.loads(serialize(t))),
     lambda t: recursive_tree_from_jsonable(json.loads(serialize(t)))),
]


# -- trees: every generated one, and drawn ones ------------------------------------


def linear(labels):
    out = SumVal("L", UNIT)
    for label in reversed(labels):
        out = SumVal("R", ProdVal(AtomVal(label), out))
    return out


# A tree's shape: a tuple of the shapes of its subtrees.
shapes = st.recursive(
    st.just(()), lambda sub: st.lists(sub, min_size=1, max_size=3).map(tuple), max_leaves=10
)


def size(shape):
    return len(shape) + sum(size(s) for s in shape)


@st.composite
def trees(draw, extra_root_label_at=None):
    """A valid tree: a drawn shape, labels, and roots that are sets or linear
    orders.  With extra_root_label_at=k, the k-th node in preorder (k taken
    modulo the node count) gets a root label that none of its heads has."""
    shape = draw(shapes)
    n = size(shape)
    labels = iter(draw(st.permutations(range(1, n + 1))))
    ordered = draw(st.booleans())
    count = [0]

    def build(shape):
        heads = [next(labels) for _ in shape]
        root_labels = list(heads)
        if extra_root_label_at is not None and count[0] == extra_root_label_at % (n + 1):
            root_labels.append(n + 1)
        count[0] += 1
        subs = [build(s) for s in shape]
        root = linear(root_labels[::-1]) if ordered else SetVal(root_labels)
        return TreeLike(root, zip(heads, subs))

    return build(shape)


@pytest.mark.parametrize("name, base", BASES, ids=[name for name, _ in BASES])
def test_walks_match_the_old_walks_on_every_generated_tree(name, base):
    gen = Generator(SpeciesEnv.standard())
    for n in range(5):
        for t in gen.generate(Tree(base), canonical_labels(n)):
            for walk, oracle in WALKS:
                assert verdict(walk, t) == verdict(oracle, t)


@given(trees())
@settings(max_examples=150, deadline=None)
def test_walks_match_the_old_walks_on_drawn_trees(t):
    for walk, oracle in WALKS:
        got = verdict(walk, t)
        assert got == verdict(oracle, t) and not got.startswith(("Invalid", "Key", "Type"))


# -- one fault ---------------------------------------------------------------------


def test_tree_to_park_rejects_a_head_the_root_lists_twice():
    with pytest.raises(InvalidStructureError, match=re.escape("children keys [1, 1] != root labels [1]")):
        tree_to_park(TreeLike(SetVal({1}), ((1, LEAF), (1, LEAF))))


def preorder(t):
    out = [t]
    for _head, sub in t.children:
        out.extend(preorder(sub))
    return out


def with_head(t, node, old, new):
    """t with node's child at head old moved to head new."""
    if t is node:
        children = [(new if head == old else head, sub) for head, sub in t.children]
    else:
        children = [(head, with_head(sub, node, old, new)) for head, sub in t.children]
    return TreeLike(t.root, children)


@given(trees(), st.data())
@settings(max_examples=150, deadline=None)
def test_tree_to_park_reports_a_repeated_head_as_validate_tree_does(t, data):
    # One label repeated, below the top level: the queue walk rejected it too.
    below = [node for node in preorder(t)[1:] if node.children]
    if not below:
        return
    node = data.draw(st.sampled_from(below))
    heads = [head for head, _sub in node.children]
    old = data.draw(st.sampled_from(heads))
    # Not a sibling's head: the constructor would sort two equal heads.
    new = data.draw(st.sampled_from(sorted(t.underlying() - set(heads))))
    bad = with_head(t, node, old, new)
    assert verdict(queue_tree_to_park, bad) == f"InvalidStructureError: label {new} appears twice"
    with pytest.raises(InvalidStructureError) as expected:
        validate_tree(bad)
    assert verdict(tree_to_park, bad) == f"InvalidStructureError: {expected.value}"


@given(st.integers(0, 30).flatmap(lambda k: trees(extra_root_label_at=k)))
@settings(max_examples=150, deadline=None)
def test_tree_to_core_reports_a_foreign_root_label_as_the_recursion_did(t):
    assert verdict(tree_to_core, t) == verdict(recursive_tree_to_core, t)
    assert verdict(tree_to_core, t).startswith("KeyError")


def core_nodes(core):
    out = [core]
    for _block, inner in core.blocks:
        out.extend(core_nodes(inner.right))
    return out


def with_core_fault(core, at, kind):
    """core with one fault at its composition node at."""

    def visit(s):
        blocks = tuple((block, ProdVal(inner.left, visit(inner.right))) for block, inner in s.blocks)
        if s is at and kind == "not a composition":
            return AtomVal(1)
        if s is at and kind == "not a pair":
            blocks = ((blocks[0][0], blocks[0][1].right),) + blocks[1:]
        if s is at and kind == "foreign outer label":
            return ComposeVal(SetVal(s.outer.underlying() | {10**6}), blocks)
        return ComposeVal(s.outer, blocks)

    return visit(core)


@given(
    trees(),
    st.integers(0, 30),
    st.sampled_from(["not a composition", "not a pair", "foreign outer label"]),
)
@settings(max_examples=150, deadline=None)
def test_tree_from_core_reports_one_fault_as_the_recursion_did(t, k, kind):
    core = tree_to_core(t)
    # A block fault needs a node with blocks.
    at = [node for node in core_nodes(core) if node.blocks or kind != "not a pair"]
    if not at:
        return
    bad = with_core_fault(core, at[k % len(at)], kind)
    assert verdict(tree_from_core, bad) == verdict(recursive_tree_from_core, bad)
    assert verdict(tree_from_core, bad).startswith(("InvalidStructureError", "KeyError"))


NODE_FAULTS = {
    "no root": lambda node: node.pop("root"),
    "no children": lambda node: node.pop("children"),
    "children not a list": lambda node: node.update(children=5),
    "children a string": lambda node: node.update(children="ab"),
    "child not an object": lambda node: node["children"].append([]),
    "bad root": lambda node: node.update(root={"k": "bogus"}),
    "root not an object": lambda node: node.update(root=7),
}
CHILD_FAULTS = {
    "label not an integer": lambda child: child.update(label="1"),
    "no label": lambda child: child.pop("label"),
    "no subtree": lambda child: child.pop("subtree"),
    "subtree not an object": lambda child: child.update(subtree=[1]),
}


def json_nodes(data):
    out = [data]
    for child in data["children"]:
        out.extend(json_nodes(child["subtree"]))
    return out


@given(trees(), st.integers(0, 30), st.sampled_from(sorted(NODE_FAULTS) + sorted(CHILD_FAULTS)))
@settings(max_examples=150, deadline=None)
def test_tree_json_reader_reports_one_fault_as_the_recursion_did(t, k, kind):
    data = json.loads(serialize(t))
    nodes = json_nodes(data)
    if kind in NODE_FAULTS:
        NODE_FAULTS[kind](nodes[k % len(nodes)])
    else:
        children = [child for node in nodes for child in node["children"]]
        if not children:
            return
        CHILD_FAULTS[kind](children[k % len(children)])
    assert verdict(_tree_from_jsonable, data) == verdict(recursive_tree_from_jsonable, data)
    assert not verdict(_tree_from_jsonable, data).startswith("{")


# -- depth -------------------------------------------------------------------------


def path(n):
    t = LEAF
    for label in range(n, 0, -1):
        t = TreeLike(SetVal({label}), ((label, t),))
    return t


def test_core_round_trip_of_a_path_deeper_than_the_recursion_limit():
    n = 3 * sys.getrecursionlimit()
    t = path(n)
    back = tree_from_core(tree_to_core(t))
    assert back == t and serialize(back) == serialize(t)


def test_json_reader_reads_a_path_deeper_than_the_recursion_limit():
    n = 3 * sys.getrecursionlimit()
    data = {"children": [], "root": {"k": "set", "labels": []}}
    for label in range(n, 0, -1):
        data = {
            "children": [{"label": label, "subtree": data}],
            "root": {"k": "set", "labels": [label]},
        }
    assert serialize(from_jsonable(data)) == serialize(path(n))


# -- equality, hash and repr -------------------------------------------------------


@pytest.mark.parametrize("name, base", BASES, ids=[name for name, _ in BASES])
def test_equality_is_equal_text_and_equal_trees_hash_alike(name, base):
    gen = Generator(SpeciesEnv.standard())
    trees = [t for n in range(4) for t in gen.generate(Tree(base), canonical_labels(n))]
    texts = [serialize(t) for t in trees]
    copies = [from_jsonable(json.loads(text)) for text in texts]
    for t, text in zip(trees, texts):
        for u, other in zip(copies, texts):
            assert (t == u) == (text == other)
            assert t != u or hash(t) == hash(u)
    assert len(set(trees) | set(copies)) == len(set(texts))


def test_a_path_deeper_than_the_recursion_limit_compares_hashes_and_prints():
    n = 3000
    assert n > sys.getrecursionlimit()
    t, u = path(n), path(n)
    v = TreeLike(SetVal({n + 1}), ())  # the same path but for its last root
    for label in range(n, 0, -1):
        v = TreeLike(SetVal({label}), ((label, v),))
    assert t == u and hash(t) == hash(u)
    assert t != path(n - 1) and t != v
    text = repr(t)
    assert text.startswith("TreeLike(root=SetVal(labels=frozenset({1})), children=((1, TreeLike(")
    assert text.count("TreeLike(") == n + 1 and text == repr(u)


def test_repr_is_the_dataclass_text():
    leaf = "TreeLike(root=SetVal(labels=frozenset()), children=())"
    t = TreeLike(SetVal({1, 2}), ((1, LEAF), (2, TreeLike(SetVal({3}), ((3, LEAF),)))))
    assert repr(LEAF) == leaf
    assert repr(t) == (
        f"TreeLike(root=SetVal(labels=frozenset({{1, 2}})), children=((1, {leaf}), "
        f"(2, TreeLike(root=SetVal(labels=frozenset({{3}})), children=((3, {leaf}),)))))"
    )
