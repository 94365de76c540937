"""Exact exponential generating series, truncated to a finite order.

A series is the vector of structure counts a_0..a_N, kept as exact Python
integers; no floats, no fractions.  The EGF operations become integer
ones: a product is the binomial convolution sum_k C(n,k) a_k b_(n-k), a
composition is sum_k f_k (g^k)_n / k!, and Lagrange inversion for
T = A(X*T) gives T_n = (A^(n+1))_n / (n+1).  Every division goes through
one exact-division check, which raises NonIntegralSeriesError on a
remainder.

Recursive definitions iterate from the zero series to a fixed point (same
contract as structure generation: error after N+2 non-stabilizing rounds).
Tree-like series go through Lagrange inversion; the parking-like series
follows the slot-peeling recursion, which is the route that stays valid for
non-identity chi.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .chi import ChiMap
from .errors import InadmissibleCompositionError, NonIntegralSeriesError, SpeciesError
from .expr import (
    E,
    EPlus,
    Compose,
    One,
    Park,
    Power,
    Prod,
    Ref,
    Restrict,
    SpeciesEnv,
    Sum,
    Tree,
    X,
    Zero,
)
from .memo import Memo


@dataclass(frozen=True)
class EgfSeries:
    order: int
    counts: tuple  # a_0 .. a_order as exact integers

    def __post_init__(self):
        if not isinstance(self.counts, tuple):
            object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != self.order + 1:
            raise SpeciesError(
                f"expected {self.order + 1} counts, got {len(self.counts)}"
            )

    def count(self, n: int) -> int:
        return self.counts[n]


def series_equal_prefix(a: EgfSeries, b: EgfSeries, upto: int) -> bool:
    if a.order < upto or b.order < upto:
        raise SpeciesError(f"series too short to compare up to order {upto}")
    return a.counts[: upto + 1] == b.counts[: upto + 1]


# -- count-vector arithmetic (integers, truncated) ----------------------------


def _exact(num: int, den: int, n: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise NonIntegralSeriesError(
            f"coefficient {n} gives non-integral count {num}/{den}"
        )
    return quotient


def _mul(a: list, b: list) -> list:
    """Counts of the product species: the binomial convolution of a and b.

    C(i+j, i) is carried along each row rather than read from a Pascal
    table, whose size grows as order^3 bits.
    """
    out = [0] * len(a)
    for i, x in enumerate(a):
        if not x:
            continue
        c = 1  # C(i + j, i)
        for j in range(len(a) - i):
            if b[j]:
                out[i + j] += c * x * b[j]
            c = c * (i + j + 1) // (j + 1)
    return out


def _lagrange(a: list) -> list:
    """Counts of T = A(X*T) from A's counts: T_n = (A^(n+1))_n / (n+1)."""
    out, power = [], a
    for n in range(len(a)):
        out.append(_exact(power[n], n + 1, n))
        power = _mul(power, a)
    return out


def lagrange_solve(base: EgfSeries, order: int) -> EgfSeries:
    """The tree-like series over a base series, by Lagrange inversion."""
    if base.order < order:
        raise SpeciesError(
            f"base series order {base.order} too short for requested order {order}"
        )
    return EgfSeries(order, _lagrange(list(base.counts[: order + 1])))


# -- species evaluation --------------------------------------------------------


class _Evaluator:
    """Species-to-count-vector evaluation at a fixed truncation order."""

    def __init__(self, env: SpeciesEnv, order: int):
        self.env = env
        self.order = order
        self._memo = Memo()

    def eval(self, expr) -> list:
        cached = self._memo.cache.get(expr)
        if cached is not None:
            return cached
        rule = _RULES.get(type(expr))
        if rule is None:
            raise TypeError(f"not a species expression: {expr!r}")
        reads_before = self._memo.reads
        return self._memo.store(expr, rule(self, expr), reads_before)

    # -- rules, one per node type (see _RULES) -------------------------------

    def _restrict(self, expr: Restrict) -> list:
        out = [0] * (self.order + 1)
        if expr.card <= self.order:
            out[expr.card] = self.eval(expr.base)[expr.card]
        return out

    def _ref(self, expr: Ref) -> list:
        N = self.order
        body = self.env.lookup(expr.name)
        return self._memo.solve(
            expr,
            [0] * (N + 1),
            N + 2,
            lambda: self.eval(body),
            f"series for {expr.name!r} did not stabilize at order "
            f"{N} after {N + 2} rounds",
        )

    def _power(self, expr: Power) -> list:
        """b^k as b * b^(k-1), built upward so each b^j is memoized and reused.

        A loop, not recursion: exponents in the thousands must not hit the
        interpreter's recursion limit.
        """
        reads_before = self._memo.reads
        base = self.eval(expr.base)
        out = [1] + [0] * self.order
        for j in range(1, expr.exponent + 1):
            step = Power(expr.base, j)
            cached = self._memo.cache.get(step)
            if cached is None:
                cached = self._memo.store(step, _mul(base, out), reads_before)
            out = cached
        return out

    def _compose(self, expr: Compose) -> list:
        """sum_k f_k (g^k)_n / k!: k-sets of inner structures, outer on the k blocks."""
        inner = self.eval(expr.inner)
        if inner[0]:
            raise InadmissibleCompositionError(
                "series composition requires a zero constant term inside"
            )
        outer = self.eval(expr.outer)
        out = [0] * (self.order + 1)
        power = [1] + [0] * self.order  # inner^k
        k_factorial = 1
        for k, f in enumerate(outer):
            if k:
                power = _mul(power, inner)
                k_factorial *= k
            if f:
                for n in range(k, self.order + 1):
                    out[n] += f * _exact(power[n], k_factorial, n)
        return out

    def _park(self, base, chi: ChiMap, order: int) -> list:
        """Slot-peeling recursion on truncated count vectors.

        The first chi(1) slots form a power structure on n of the labels;
        the rest is the shifted parking-like series at order - n, and the
        labels split between the two in C(n+j, n) ways.
        """
        key = ("park", base, chi, order)
        cached = self._memo.cache.get(key)
        if cached is not None:
            return cached
        reads_before = self._memo.reads
        power = self.eval(Power(base, chi(1)))
        out = [0] * (order + 1)
        out[0] = power[0]
        for n in range(1, order + 1):
            if not power[n]:
                continue
            tail = self._park(base, chi.shift(n), order - n)
            c = 1  # C(n + j, n): ways to split the labels
            for j, t in enumerate(tail):
                if t:
                    out[n + j] += c * power[n] * t
                c = c * (n + j + 1) // (j + 1)
        return self._memo.store(key, out, reads_before)


# Series rule of every node type: rule(evaluator, expr) -> count vector.
_RULES = {
    Zero: lambda ev, e: [0] * (ev.order + 1),
    One: lambda ev, e: [1] + [0] * ev.order,
    X: lambda ev, e: ([0, 1] + [0] * ev.order)[: ev.order + 1],
    E: lambda ev, e: [1] * (ev.order + 1),
    EPlus: lambda ev, e: [0] + [1] * ev.order,
    Sum: lambda ev, e: [x + y for x, y in zip(ev.eval(e.left), ev.eval(e.right))],
    Prod: lambda ev, e: _mul(ev.eval(e.left), ev.eval(e.right)),
    Power: _Evaluator._power,
    Restrict: _Evaluator._restrict,
    Compose: _Evaluator._compose,
    Ref: _Evaluator._ref,
    Park: lambda ev, e: ev._park(e.base, e.chi, ev.order),
    Tree: lambda ev, e: _lagrange(ev.eval(e.base)),
}


def egf_of_species(expr, env: SpeciesEnv | None = None, order: int = 8) -> EgfSeries:
    """Structure counts a_0..a_order of a species, by series evaluation."""
    if order < 0:
        raise SpeciesError(f"series order must be >= 0, got {order}")
    if order >= sys.maxsize:
        raise SpeciesError(f"series order {order} is too large to index a count vector")
    if env is None:
        env = SpeciesEnv.standard()
    return EgfSeries(order, _Evaluator(env, order).eval(expr))
