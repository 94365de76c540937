"""Species expressions and environments.

An expression is a small immutable AST over the combinators

    0  1  X  E  E+  sum  product  power  restriction  composition

plus named references and the two derived operators ``park`` (parking-like)
and ``tree`` (tree-like).  Named species live in a SpeciesEnv; the standard
environment carries the usual library:

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
from dataclasses import dataclass
from typing import Union

from .chi import ChiMap
from .errors import SpeciesError, UnboundNameError


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class X:
    pass


@dataclass(frozen=True)
class E:
    pass


@dataclass(frozen=True)
class EPlus:
    pass


@dataclass(frozen=True)
class Sum:
    left: "SpeciesExpr"
    right: "SpeciesExpr"


@dataclass(frozen=True)
class Prod:
    left: "SpeciesExpr"
    right: "SpeciesExpr"


@dataclass(frozen=True)
class Power:
    base: "SpeciesExpr"
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise SpeciesError(f"power exponent must be >= 0, got {self.exponent}")


@dataclass(frozen=True)
class Restrict:
    base: "SpeciesExpr"
    card: int

    def __post_init__(self):
        if self.card < 0:
            raise SpeciesError(f"restriction cardinality must be >= 0, got {self.card}")


@dataclass(frozen=True)
class Compose:
    outer: "SpeciesExpr"
    inner: "SpeciesExpr"


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Park:
    base: "SpeciesExpr"
    chi: ChiMap


@dataclass(frozen=True)
class Tree:
    base: "SpeciesExpr"


SpeciesExpr = Union[
    Zero, One, X, E, EPlus, Sum, Prod, Power, Restrict, Compose, Ref, Park, Tree
]

# Tokens that can never be rebound by user definitions.
PRIMITIVE_TOKENS = frozenset({"0", "1", "X", "E", "E+"})

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_ARY = re.compile(r"^Ary\((\d+)\)$")


def _standard_bindings() -> dict:
    return {
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
        return SpeciesEnv(_standard_bindings())

    def bind(self, name: str, expr: SpeciesExpr) -> None:
        if name in PRIMITIVE_TOKENS:
            raise SpeciesError(f"cannot shadow primitive token {name!r}")
        if not _NAME.match(name):
            raise SpeciesError(f"invalid species name {name!r}")
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


def ary(k: int) -> Ref:
    """The k-ary tree species as a reference into the standard environment."""
    if k < 1:
        raise SpeciesError(f"Ary(k) needs k >= 1, got {k}")
    return Ref(f"Ary({k})")


# Precedence levels for the printer: sum < prod < compose < power < atom.
_LVL_SUM, _LVL_PROD, _LVL_COMPOSE, _LVL_POWER, _LVL_ATOM = range(5)


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


def _render_park(expr: Park) -> tuple[str, int]:
    chi = "" if expr.chi.is_identity else f", {expr.chi.key()}"
    return f"park({expr_to_text(expr.base)}{chi})", _LVL_ATOM


# (text, precedence level) of each node type.  Compose is left-associative:
# its right operand needs strictly tighter binding.
_RENDER = {
    Zero: lambda e: ("0", _LVL_ATOM),
    One: lambda e: ("1", _LVL_ATOM),
    X: lambda e: ("X", _LVL_ATOM),
    E: lambda e: ("E", _LVL_ATOM),
    EPlus: lambda e: ("E+", _LVL_ATOM),
    Ref: lambda e: (e.name, _LVL_ATOM),
    Sum: lambda e: (f"{_wrap(e.left, _LVL_SUM)} + {_wrap(e.right, _LVL_SUM)}", _LVL_SUM),
    Prod: lambda e: (f"{_wrap(e.left, _LVL_PROD)}*{_wrap(e.right, _LVL_PROD)}", _LVL_PROD),
    Compose: lambda e: (
        f"{_wrap(e.outer, _LVL_COMPOSE)}@{_wrap(e.inner, _LVL_COMPOSE + 1)}",
        _LVL_COMPOSE,
    ),
    Power: lambda e: (f"{_wrap(e.base, _LVL_ATOM)}^{e.exponent}", _LVL_POWER),
    Restrict: lambda e: (f"restrict({expr_to_text(e.base)}, {e.card})", _LVL_ATOM),
    Park: _render_park,
    Tree: lambda e: (f"tree({expr_to_text(e.base)})", _LVL_ATOM),
}
