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
the test suite holds them to that.
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
    blocks = []
    head_to_rep = {}
    for head, sub in t.children:
        inner = ProdVal(AtomVal(head), tree_to_core(sub))
        block = inner.underlying()
        head_to_rep[head] = min(block)
        blocks.append((block, inner))
    return ComposeVal(t.root.relabel(head_to_rep), tuple(blocks))


def tree_from_core(s) -> TreeLike:
    """Fold a base@(X*T) composition structure back into a TreeLike."""
    if not isinstance(s, ComposeVal):
        raise InvalidStructureError("expected a composition structure")
    children = []
    rep_to_head = {}
    for block, inner in s.blocks:
        if not isinstance(inner, ProdVal) or not isinstance(inner.left, AtomVal):
            raise InvalidStructureError("block is not an (atom, subtree) pair")
        head = inner.left.label
        rep_to_head[min(block)] = head
        children.append((head, tree_from_core(inner.right)))
    return TreeLike(s.outer.relabel(rep_to_head), tuple(children))
