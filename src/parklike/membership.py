"""Membership read off the structure: is s one of expr's structures?

accepts(expr, s, env) walks the value against the expression on s's own
label set, one rule per node type (the _RULES table), and lists nothing.
The Park and Tree rules run validate_parking's and validate_tree's checks:
the invariants, then the base at every slot or node.  A Ref unfolds to its
body; meeting the same (name, value) pair again while it unfolds is a cycle,
and a cycle accepts nothing.  Only finite derivations count, the least fixed
point, so ``A:=A`` accepts nothing, as generation builds nothing.  The one
generation step is the composition admissibility check (the inner species
has no structure on the empty set), shared with generation so that both
raise InadmissibleCompositionError alike.  One Generator per check carries
it and the environment to every rule: accepts builds one per call, and
validate_parking and validate_tree one per call that is given a base.
"""

from __future__ import annotations

from .errors import InvalidStructureError
from .expr import (
    E, EPlus, Compose, One, Park, Power, Prod, Ref, Restrict, SpeciesEnv, SpeciesExpr, Sum,
    Tree, X, Zero,
)
from .generate import Generator
from .parking import is_parking_blocks
from .structures import (
    AtomVal, ComposeVal, ParkingLike, ProdVal, SetVal, SumVal, TreeLike, UnitVal,
)


def accepts(expr, s, env: SpeciesEnv | None = None) -> bool:
    """Whether s is one of expr's structures on its own label set."""
    return _accepts(expr, s, Generator(env), set())


def _accepts(expr, s, gen: Generator, unfolding: set) -> bool:
    rule = _RULES.get(type(expr))
    if rule is None:
        raise TypeError(f"not a species expression: {expr!r}")
    return rule(expr, s, gen, unfolding)


def validate_parking(p: ParkingLike, base: SpeciesExpr | None = None, env=None) -> bool:
    """Check the structural invariants; raises InvalidStructureError if broken.

    With a base species, also checks that every slot is a base structure
    on its own labels (names resolve in env, the standard one by default).
    """
    return _parking(p, base, None if base is None else Generator(env))


def _parking(p: ParkingLike, base, gen) -> bool:
    seen: set = set()
    sets = []
    for s in p.sequence:
        v = s.underlying()
        if v & seen:
            raise InvalidStructureError("slot underlying sets are not disjoint")
        seen |= v
        sets.append(v)
    u = len(seen)
    if len(p.sequence) != p.chi(u + 1):
        raise InvalidStructureError(
            f"sequence length {len(p.sequence)} != chi(u+1) = {p.chi(u + 1)}"
        )
    if not is_parking_blocks([len(v) for v in sets], p.chi, u):
        raise InvalidStructureError("block sizes violate the parking condition")
    if base is not None:
        for s, v in zip(p.sequence, sets):
            if not _accepts(base, s, gen, set()):
                raise InvalidStructureError(
                    f"entry on {sorted(v)} is not a base-species structure"
                )
    return True


def validate_tree(t: TreeLike, base: SpeciesExpr | None = None, env=None) -> bool:
    """Check the node invariants; raises InvalidStructureError if broken.

    Every head carries exactly one subtree, and no label occurs twice.  With
    a base species, also checks that every node's root is a base structure.
    """
    return _tree(t, base, None if base is None else Generator(env))


def _tree(t: TreeLike, base, gen) -> bool:
    def enter(node) -> list:
        heads = node.root.underlying()
        child_heads = [head for head, _sub in node.children]  # sorted by head
        if child_heads != sorted(heads):
            raise InvalidStructureError(
                f"children keys {child_heads} != root labels {sorted(heads)}"
            )
        if base is not None and not _accepts(base, node.root, gen, set()):
            raise InvalidStructureError(
                f"root on {sorted(heads)} is not a base-species structure"
            )
        return [heads, iter(node.children), None]

    # Depth-first with a stack of [labels seen so far, children left, head
    # being visited] per open node, in the order a recursion would take.
    stack = [enter(t)]
    while stack:
        frame = stack[-1]
        for head, sub in frame[1]:
            frame[2] = head
            stack.append(enter(sub))
            break
        else:
            stack.pop()
            if stack:
                parent = stack[-1]
                if frame[0] & parent[0]:
                    raise InvalidStructureError(f"label reuse under head {parent[2]}")
                parent[0] |= frame[0]
    return True


# -- rules, one per node type (see _RULES) ------------------------------------


def _power(e: Power, s, gen, unfolding) -> bool:
    # A loop over the nested pairs: exponents in the thousands stay legal.
    seen = frozenset()
    for _ in range(e.exponent):
        if not isinstance(s, ProdVal):
            return False
        labels = s.left.underlying()
        if labels & seen or not _accepts(e.base, s.left, gen, unfolding):
            return False
        seen |= labels
        s = s.right
    return isinstance(s, UnitVal)


def _compose(e: Compose, s, gen, unfolding) -> bool:
    gen.check_admissible(e)
    if not isinstance(s, ComposeVal):
        return False
    seen = frozenset()
    for block, inner in s.blocks:
        if block & seen or inner.underlying() != block:
            return False
        if not _accepts(e.inner, inner, gen, unfolding):
            return False
        seen |= block
    reps = frozenset(min(block) for block, _inner in s.blocks)
    return s.outer.underlying() == reps and _accepts(e.outer, s.outer, gen, unfolding)


def _ref(e: Ref, s, gen, unfolding) -> bool:
    key = (e.name, id(s))
    if key in unfolding:
        return False
    unfolding.add(key)
    try:
        return _accepts(gen.env.lookup(e.name), s, gen, unfolding)
    finally:
        unfolding.remove(key)


def _holds(validate, s, base, gen) -> bool:
    try:
        return validate(s, base, gen)
    except InvalidStructureError:
        return False


# Membership rule of every node type: rule(expr, s, gen, unfolding) -> bool,
# where unfolding holds the (name, value id) pairs of the Refs being unfolded.
_RULES = {
    Zero: lambda e, s, gen, u: False,
    One: lambda e, s, gen, u: isinstance(s, UnitVal),
    X: lambda e, s, gen, u: isinstance(s, AtomVal),
    E: lambda e, s, gen, u: isinstance(s, SetVal),
    EPlus: lambda e, s, gen, u: isinstance(s, SetVal) and bool(s.labels),
    Sum: lambda e, s, gen, u: isinstance(s, SumVal)
    and _accepts(e.left if s.side == "L" else e.right, s.inner, gen, u),
    Prod: lambda e, s, gen, u: isinstance(s, ProdVal)
    and not s.left.underlying() & s.right.underlying()
    and _accepts(e.left, s.left, gen, u)
    and _accepts(e.right, s.right, gen, u),
    Power: _power,
    Restrict: lambda e, s, gen, u: len(s.underlying()) == e.card
    and _accepts(e.base, s, gen, u),
    Compose: _compose,
    Ref: _ref,
    Park: lambda e, s, gen, u: isinstance(s, ParkingLike)
    and s.chi == e.chi
    and _holds(_parking, s, e.base, gen),
    Tree: lambda e, s, gen, u: isinstance(s, TreeLike)
    and _holds(_tree, s, e.base, gen),
}
