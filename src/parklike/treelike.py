"""Tree-like structures: the solution of T = A(X * T) for a base species A.

A TreeLike node is a base structure whose labels ("heads") each carry a
subtree.  A node on the empty set is just a base structure on the empty set
with no children — for the set species those are the leaves of a rooted
forest; for richer bases the empty structure can still carry shape and is
preserved as-is.

The unfolding bridge (tree_to_core / tree_from_core) converts between this
node representation and the plain composition structure of base@(X*T),
which the generic generator can also produce; the two routes must agree and
the test suite holds them to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import InvalidStructureError
from .expr import SpeciesExpr, Tree
from .structures import (
    AtomVal,
    ComposeVal,
    ProdVal,
    _label,
    from_jsonable,
    register_json_reader,
    serialize,  # unused here: bench/tracing.py patches this name
)


@dataclass(frozen=True, slots=True)
class TreeLike:
    root: object  # base structure on the set of head labels
    children: tuple  # tuple of (head label, TreeLike), sorted by label

    def __post_init__(self):
        ch = self.children
        if type(ch) is not tuple:
            ch = tuple(ch)
            object.__setattr__(self, "children", ch)
        # Generation and order-preserving relabeling already build these
        # sorted, so only pay for a sort when the order is actually broken.
        if len(ch) > 1:
            prev = ch[0][0]
            for pair in ch:
                head = pair[0]
                if head < prev:
                    object.__setattr__(self, "children", tuple(sorted(ch)))
                    break
                prev = head

    @property
    def heads(self) -> frozenset:
        return self.root.underlying()

    def child(self, label: int) -> "TreeLike":
        for head, sub in self.children:
            if head == label:
                return sub
        raise KeyError(label)

    def underlying(self) -> frozenset:
        out = self.root.underlying()
        for _head, sub in self.children:
            out |= sub.underlying()
        return out

    def relabel(self, mapping) -> "TreeLike":
        return TreeLike(
            self.root.relabel(mapping),
            tuple(
                [(mapping[head], sub.relabel(mapping)) for head, sub in self.children]
            ),
        )

    def to_jsonable(self):
        return {
            "root": self.root.to_jsonable(),
            "children": [
                {"label": head, "subtree": sub.to_jsonable()}
                for head, sub in self.children
            ],
        }


def _treelike_from_jsonable(data) -> TreeLike:
    root = from_jsonable(data["root"])
    children = tuple(
        (_label(child["label"]), _treelike_from_jsonable(child["subtree"]))
        for child in data["children"]
    )
    return TreeLike(root, children)


register_json_reader("treelike", _treelike_from_jsonable)


def generate_trees_raw(gen, base: SpeciesExpr, labels: frozenset) -> list:
    """All T_base-structures on labels (construction order).

    Enumerates the head set W, the assignment of the remaining labels to
    heads, the subtrees on each head's share, and the base structure on W.
    """
    if not labels:
        return [TreeLike(root, ()) for root in gen._gen(base, labels)]
    out = []
    items = sorted(labels)
    tree_expr = Tree(base)
    for w in range(1, len(items) + 1):
        for heads in combinations(items, w):
            roots = gen._gen(base, frozenset(heads))
            if not roots:
                continue
            rest = sorted(labels - frozenset(heads))
            for assignment in product(heads, repeat=len(rest)):
                shares = {h: [] for h in heads}
                for label, h in zip(rest, assignment):
                    shares[h].append(label)
                sub_lists = [
                    gen._gen(tree_expr, frozenset(shares[h])) for h in heads
                ]
                if not all(sub_lists):
                    continue
                for choice in product(*sub_lists):
                    children = tuple(zip(heads, choice))
                    out.extend(TreeLike(root, children) for root in roots)
    return out


def validate_tree(t: TreeLike, base: SpeciesExpr | None = None, gen=None) -> bool:
    """Check the node invariants; raises InvalidStructureError if broken."""
    if base is not None and gen is None:
        from .generate import Generator

        gen = Generator()

    def rec(node) -> frozenset:
        heads = node.root.underlying()
        child_heads = frozenset(head for head, _sub in node.children)
        if heads != child_heads:
            raise InvalidStructureError(
                f"children keys {sorted(child_heads)} != root labels {sorted(heads)}"
            )
        if base is not None and not gen.contains(base, node.root):
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
