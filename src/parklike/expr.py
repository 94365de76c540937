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
    if isinstance(expr, Zero):
        return "0", _LVL_ATOM
    if isinstance(expr, One):
        return "1", _LVL_ATOM
    if isinstance(expr, X):
        return "X", _LVL_ATOM
    if isinstance(expr, E):
        return "E", _LVL_ATOM
    if isinstance(expr, EPlus):
        return "E+", _LVL_ATOM
    if isinstance(expr, Ref):
        return expr.name, _LVL_ATOM
    if isinstance(expr, Sum):
        return (
            f"{_wrap(expr.left, _LVL_SUM)} + {_wrap(expr.right, _LVL_SUM)}",
            _LVL_SUM,
        )
    if isinstance(expr, Prod):
        return (
            f"{_wrap(expr.left, _LVL_PROD)}*{_wrap(expr.right, _LVL_PROD)}",
            _LVL_PROD,
        )
    if isinstance(expr, Compose):
        # Left-associative: the right operand needs strictly tighter binding.
        left = _wrap(expr.outer, _LVL_COMPOSE)
        right = _wrap(expr.inner, _LVL_COMPOSE + 1)
        return f"{left}@{right}", _LVL_COMPOSE
    if isinstance(expr, Power):
        return f"{_wrap(expr.base, _LVL_ATOM)}^{expr.exponent}", _LVL_POWER
    if isinstance(expr, Restrict):
        return f"restrict({expr_to_text(expr.base)}, {expr.card})", _LVL_ATOM
    if isinstance(expr, Park):
        if expr.chi.is_identity:
            return f"park({expr_to_text(expr.base)})", _LVL_ATOM
        return f"park({expr_to_text(expr.base)}, {expr.chi.key()})", _LVL_ATOM
    if isinstance(expr, Tree):
        return f"tree({expr_to_text(expr.base)})", _LVL_ATOM
    raise SpeciesError(f"cannot render {expr!r}")


def _wrap(expr, min_level: int) -> str:
    text, level = _render(expr)
    return text if level >= min_level else f"({text})"


def check_bound(expr: SpeciesExpr, env: SpeciesEnv, extra_names=()) -> None:
    """Raise UnboundNameError if any Ref in expr lacks a binding."""
    extra = set(extra_names)
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Ref):
            if node.name not in extra and not env.knows(node.name):
                raise UnboundNameError(f"species {node.name!r} is not defined")
        elif isinstance(node, (Sum, Prod)):
            stack.extend((node.left, node.right))
        elif isinstance(node, (Power, Restrict, Park, Tree)):
            stack.append(node.base)
        elif isinstance(node, Compose):
            stack.extend((node.outer, node.inner))
