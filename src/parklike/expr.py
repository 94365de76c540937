"""Species expressions and environments.

An expression is a small immutable AST over the combinators

    0  1  X  E  E+  sum  product  power  restriction  composition

plus named references and the two derived operators ``park`` (parking-like)
and ``tree`` (tree-like).  The tables ``PRIMITIVES`` and ``BINARY`` are the
grammar of the species text; the DSL parser and the printer ``expr_to_text``
both read them, so printed text reads back as the same expression.

Named species live in a SpeciesEnv; the standard environment carries the
usual library:

    L      linear orders          L  = 1 + X*L
    Par    set partitions         Par = E@(E+)
    Comp   compositions/ballots   Comp = 1 + E+*Comp
    Sub    subsets                Sub = E*E
    Ary(k) k-ary trees            Ary(k) = 1 + X*Ary(k)^k
    Forest rooted forests         Forest = E@(X*Forest)

Ary(k) bindings are synthesized on demand, one per arity.
"""

from __future__ import annotations

import re

from .errors import SpeciesError, UnboundNameError, shown
from .frozen import Keyed


class Zero(Keyed):
    __slots__ = ()


class One(Keyed):
    __slots__ = ()


class X(Keyed):
    __slots__ = ()


class E(Keyed):
    __slots__ = ()


class EPlus(Keyed):
    __slots__ = ()


class Sum(Keyed):
    __slots__ = ("left", "right")


class Prod(Keyed):
    __slots__ = ("left", "right")


class Power(Keyed):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent: int):
        if exponent < 0:
            raise SpeciesError(f"power exponent must be >= 0, got {exponent}")
        Keyed.__init__(self, base, exponent)


class Restrict(Keyed):
    __slots__ = ("base", "card")

    def __init__(self, base, card: int):
        if card < 0:
            raise SpeciesError(f"restriction cardinality must be >= 0, got {card}")
        Keyed.__init__(self, base, card)


class Compose(Keyed):
    __slots__ = ("outer", "inner")


class Ref(Keyed):
    __slots__ = ("name",)


class Park(Keyed):
    __slots__ = ("base", "chi")


class Tree(Keyed):
    __slots__ = ("base",)


SpeciesExpr = Zero | One | X | E | EPlus | Sum | Prod | Power | Restrict | Compose | Ref | Park | Tree

# The primitive species by token; these tokens can never be rebound by
# user definitions.
PRIMITIVES = {"0": Zero, "1": One, "X": X, "E": E, "E+": EPlus}
PRIMITIVE_TOKENS = frozenset(PRIMITIVES)

# The binary operators, loosest first; each is left-associative.  Power
# (``^ INT``) binds tighter than all of them.
BINARY = (("+", Sum), ("*", Prod), ("@", Compose))

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_ARY = re.compile(r"^Ary\((\d+)\)$")


# The standard definitions, built once: the nodes are immutable, and each
# standard environment binds into its own copy of the table.
_STANDARD = {
    "L": Sum(One(), Prod(X(), Ref("L"))),
    "Par": Compose(E(), EPlus()),
    "Comp": Sum(One(), Prod(EPlus(), Ref("Comp"))),
    "Sub": Prod(E(), E()),
    "Forest": Compose(E(), Prod(X(), Ref("Forest"))),
}


class SpeciesEnv:
    """Mapping from names to species expressions.

    ``Ary(k)`` names match a pattern rather than living in the table; the
    binding ``1 + X*Ary(k)^k`` is synthesized (and cached) on first lookup.
    """

    def __init__(self, bindings: dict | None = None):
        self._bindings: dict[str, SpeciesExpr] = dict(bindings or {})

    @staticmethod
    def standard() -> "SpeciesEnv":
        return SpeciesEnv(_STANDARD)

    def bind(self, name: str, expr: SpeciesExpr) -> None:
        if name in PRIMITIVE_TOKENS:
            raise SpeciesError(f"cannot shadow primitive token {name!r}")
        if not _NAME.match(name):
            raise SpeciesError(f"invalid species name {shown(name)}")
        self._bindings[name] = expr

    def lookup(self, name: str) -> SpeciesExpr:
        try:
            return self._bindings[name]
        except KeyError:
            pass
        m = _ARY.match(name)
        if m:
            k = int(m.group(1))
            defn = Sum(One(), Prod(X(), Power(Ref(name), k)))
            self._bindings[name] = defn
            return defn
        raise UnboundNameError(f"species {name!r} is not defined")

    def knows(self, name: str) -> bool:
        return name in self._bindings or bool(_ARY.match(name))

    def names(self) -> list[str]:
        return sorted(self._bindings)

    def copy(self) -> "SpeciesEnv":
        return SpeciesEnv(self._bindings)


# Printer precedence levels: the index of each binary operator in BINARY,
# then power, then atoms.
_LVL_POWER = len(BINARY)
_LVL_ATOM = _LVL_POWER + 1


def expr_to_text(expr: SpeciesExpr) -> str:
    """Render an expression in the DSL syntax, with minimal parentheses."""
    text, _ = _render(expr)
    return text


def _render(expr) -> tuple[str, int]:
    rule = _RENDER.get(type(expr))
    if rule is None:
        raise SpeciesError(f"cannot render {expr!r}")
    return rule(expr)


def _wrap(expr, min_level: int) -> str:
    text, level = _render(expr)
    return text if level >= min_level else f"({text})"


def _binary_rule(op: str, node_type, level: int):
    # Left-associative: the right operand must bind strictly tighter.  "+"
    # is spaced because "E+X" would lex as the token "E+" followed by "X".
    sep = " + " if op == "+" else op
    left, right = node_type._fields
    return lambda e: (
        f"{_wrap(getattr(e, left), level)}{sep}{_wrap(getattr(e, right), level + 1)}",
        level,
    )


def _render_park(expr: Park) -> tuple[str, int]:
    chi = "" if expr.chi.is_identity else f", {expr.chi.key()}"
    return f"park({expr_to_text(expr.base)}{chi})", _LVL_ATOM


# (text, precedence level) of each node type.
_RENDER = {
    **{t: (lambda e, token=token: (token, _LVL_ATOM)) for token, t in PRIMITIVES.items()},
    **{t: _binary_rule(op, t, level) for level, (op, t) in enumerate(BINARY)},
    Ref: lambda e: (e.name, _LVL_ATOM),
    Power: lambda e: (f"{_wrap(e.base, _LVL_ATOM)}^{e.exponent}", _LVL_POWER),
    Restrict: lambda e: (f"restrict({expr_to_text(e.base)}, {e.card})", _LVL_ATOM),
    Park: _render_park,
    Tree: lambda e: (f"tree({expr_to_text(e.base)})", _LVL_ATOM),
}
