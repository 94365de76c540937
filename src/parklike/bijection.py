"""The bijection between parking-like and tree-like structures (identity chi).

Forward direction: a parking-like sequence (sp_1, ..., sp_{n+1}) orders its
labels by slot first, ambient order second (the q-order).  sp_1 becomes the
root structure; the structure sp_{i+1} becomes the node of the i-th label in
q-order.  Backward direction: breadth-first order, heads sorted at each node,
is the q-order, so the roots of TreeLike.nodes() are the slots in order.  Both
directions validate their input, over a base species when one is given, and
are exact inverses, for the identity chi only.
"""

from __future__ import annotations

from .chi import ChiMap
from .errors import ChiNotIdentityError, InvalidStructureError
from .expr import SpeciesExpr
from .membership import validate_parking, validate_tree
from .structures import ParkingLike, TreeLike


def q_order(p: ParkingLike) -> list:
    """Labels ordered by slot index, then by the usual order within a slot."""
    if not p.chi.is_identity:
        raise ChiNotIdentityError("q-order is defined for the identity chi")
    order = []
    for s in p.sequence:
        order.extend(sorted(s.underlying()))
    return order


def park_to_tree(p: ParkingLike, base: SpeciesExpr | None = None, env=None) -> TreeLike:
    """Attach slot i+1's structure at the i-th label of the q-order.

    p is validated first, as validate_parking(p, base, env) does, so a value
    that is neither valid nor on the identity chi is named by its fault.
    """
    validate_parking(p, base, env)
    if not p.chi.is_identity:
        raise ChiNotIdentityError("the bijection is defined for the identity chi")
    q = q_order(p)
    # Slot i + 1 is the node of q[i], and its labels come later in the
    # q-order (the parking condition), so building nodes in reversed q-order
    # finds every child built: a loop, however deep the tree.
    built = {}
    for i in range(len(q), -1, -1):
        root = p.sequence[i]
        node = TreeLike(root, tuple([(v, built.pop(v)) for v in sorted(root.underlying())]))
        if i:
            built[q[i - 1]] = node
    return node


def tree_to_park(t: TreeLike, base: SpeciesExpr | None = None, env=None) -> ParkingLike:
    """Breadth-first inverse: the roots of t.nodes() in order are the slots.

    t is validated as validate_tree(t, base, env) does.  Without a base, a
    head listed twice is first named as such, in breadth-first order; with
    one, validate_tree names every fault, as biject reports it.
    """
    nodes = t.nodes()
    if base is None:
        seen = set()
        for node in nodes:
            for head, _sub in node.children:
                if head in seen:
                    raise InvalidStructureError(f"label {head} appears twice")
                seen.add(head)
    validate_tree(t, base, env)
    return ParkingLike(ChiMap.identity(), tuple([node.root for node in nodes]))
