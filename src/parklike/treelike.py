"""Tree-like structures: the solution of T = A(X * T) for a base species A.

A TreeLike node is a base structure whose labels ("heads") each carry a
subtree.  A node on the empty set is just a base structure on the empty set
with no children — for the set species those are the leaves of a rooted
forest; for richer bases the empty structure can still carry shape and is
preserved as-is.  The value itself (TreeLike) lives in structures.py, its
generation rule in generate.py, and its validation, the base at every node
included, in membership.py; this module holds the unfolding bridge.

The unfolding bridge (tree_to_core / tree_from_core) converts between this
node representation and the plain composition structure of base@(X*T),
which the generic generator can also produce; the two routes must agree and
the test suite holds them to that.  Both loop over a node list in reverse,
children first, and look built children up by id: generated trees share subtrees.
"""

from __future__ import annotations

from .errors import InvalidStructureError
from .structures import (
    AtomVal,
    ComposeVal,
    ProdVal,
    TreeLike,
    serialize,  # unused here: bench/tracing.py patches this name
)


def tree_to_core(t: TreeLike):
    """Unfold a TreeLike into the composition structure of base@(X*T)."""
    core = {}  # id(node) -> its unfolding, children before parents
    for node in reversed(t.nodes()):
        inners = [ProdVal(AtomVal(head), core[id(sub)]) for head, sub in node.children]
        blocks = tuple([(inner.underlying(), inner) for inner in inners])
        head_to_rep = {inner.left.label: min(block) for block, inner in blocks}
        core[id(node)] = ComposeVal(node.root.relabel(head_to_rep), blocks)
    return core[id(t)]


def tree_from_core(s) -> TreeLike:
    """Fold a base@(X*T) composition structure back into a TreeLike."""
    nodes = [s]  # every composition node, each after its parent, as in nodes()
    for node in nodes:
        if not isinstance(node, ComposeVal):
            raise InvalidStructureError("expected a composition structure")
        for _block, inner in node.blocks:
            if not isinstance(inner, ProdVal) or not isinstance(inner.left, AtomVal):
                raise InvalidStructureError("block is not an (atom, subtree) pair")
            nodes.append(inner.right)
    folded = {}  # id(node) -> its TreeLike, children before parents
    for node in reversed(nodes):
        children = [(inner.left.label, folded[id(inner.right)]) for _block, inner in node.blocks]
        rep_to_head = {min(block): inner.left.label for block, inner in node.blocks}
        folded[id(node)] = TreeLike(node.outer.relabel(rep_to_head), children)
    return folded[id(s)]
