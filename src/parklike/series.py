"""Exact exponential generating series, truncated to a finite order.

A series is the vector of structure counts a_0..a_N, kept as exact Python
integers; no floats, no fractions.  The EGF operations become integer
ones: a product is the binomial convolution sum_k C(n,k) a_k b_(n-k), a
composition is sum_k f_k (g^k)_n / k!, and Lagrange inversion for
T = A(X*T) gives T_n = (A^(n+1))_n / (n+1), read off about 2 sqrt(N)
products by baby and giant steps (Paterson-Stockmeyer, SIAM J. Comput. 2,
1973), O(N^2.5) in all.  Every division goes through one exact-division
check, which raises NonIntegralSeriesError on a remainder.  A set
composition E@G skips the powers of G: F = E(G) solves F' = G'F, so
f_(n+1) = sum_k C(n,k) g_(k+1) f_(n-k), one quadratic recurrence
(Flajolet-Sedgewick, Analytic Combinatorics, 2009).

Recursive definitions iterate from the zero series to a fixed point (same
contract and memo as structure generation: error after N+2 non-stabilizing
rounds; a result that read an approximation is kept for the round only).
A round is a Newton step y + (H(y) - y)(1 - J)^(-1), so a well-founded
definition settles in O(log N) rounds (Pivoteau-Salvy-Soria, JCTA 119,
2012).  Each rule returns its counts with their slope by y, the innermost
solve's approximation, so J comes with H(y); an outer solve's approximation
is fixed meanwhile.  Where y is read through restriction, parking, trees, a
non-set composition or a finished solve, or J_0 is not 0, the round is H(y).

Tree-like series go through Lagrange inversion, and so do parking-like
series over an affine chi, by Lagrange-Buermann (Flajolet-Sedgewick, Thm
A.2).  A table chi takes the slot-peeling recursion, which fills every chi
map it reaches at once and names the entry a table runs out at;
park_by_peeling runs it on any chi, so verify can compare the two routes.
"""

from __future__ import annotations

import sys
from math import isqrt

from .chi import ChiMap
from .errors import InadmissibleCompositionError, NonIntegralSeriesError, SpeciesError, shown
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
from .frozen import Frozen
from .memo import Memo


class EgfSeries(Frozen):
    __slots__ = ("order", "counts")  # counts: a_0 .. a_order as exact integers

    def __init__(self, order: int, counts):
        if order < 0:
            raise SpeciesError(f"series order must be >= 0, got {shown(order)}")
        if not isinstance(counts, tuple):
            counts = tuple(counts)
        if len(counts) != order + 1:
            raise SpeciesError(f"expected {order + 1} counts, got {len(counts)}")
        Frozen.__init__(self, order, counts)

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
    if b.count(0) > a.count(0):
        a, b = b, a  # the outer loop skips zeros, so it takes the sparser factor
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


def _pow(a: list, k: int) -> list:
    """a^k by square-and-multiply: about 2 log2(k) products, none by 1."""
    out = None
    while k:
        if k & 1:
            out = a if out is None else _mul(out, a)
        k >>= 1
        if k:
            a = _mul(a, a)
    return [1] + [0] * (len(a) - 1) if out is None else out


def _recurrence(head: list, terms: list, lag: int) -> list:
    """out with out_(n+lag) = head_(n+lag) + sum_(k,x) C(n,k) x out_(n-k).

    The sum runs over the (k, x) of terms with k <= n, k ascending, so zero
    coefficients cost nothing; with lag 0 every k must be at least 1.  Each
    term carries its C(n, k) from one n to the next.
    """
    out = head[:lag]
    binomials = [1] * len(terms)
    for n in range(len(head) - lag):
        total = head[n + lag]
        for i, (k, x) in enumerate(terms):
            if k > n:
                break
            if k < n:
                binomials[i] = binomials[i] * n // (n - k)
            if out[n - k]:
                total += binomials[i] * x * out[n - k]
        out.append(total)
    return out


def _lagrange(b: list, a: int = 1, s: int = 1) -> list:
    """Counts of B(T)^s, T = X*B(T)^a: p_n = s (B^(s+an))_n / (s+an), B^s if
    a = 0 or s = 0.  This is park(B, chi) for chi(m) = am + s - a; a = s = 1
    is tree(B).  For n = qm + r, m = ceil(sqrt(N+1)), B^(s+an) is (B^a)^(qm)
    times B^s (B^a)^r: one dot product, about 2m products, O(N^2.5) in all."""
    if not a or not s:
        return _pow(b, s)
    out, row = [], [1]  # C(n, k), k = 0..n
    m = isqrt(len(b) - 1) + 1  # ceil(sqrt(N+1))
    step = _pow(b, a)
    baby = [step if s == a else _pow(b, s)]  # B^s (B^a)^r, r = 0..m-1
    while len(baby) < m:
        baby.append(_mul(baby[-1], step))
    leap = baby[-1] if s == a else _pow(step, m)  # (B^a)^m
    giant = [1] + [0] * (len(b) - 1)  # (B^a)^(qm)
    for n in range(len(b)):
        q, r = divmod(n, m)
        if q and not r:  # next giant step
            giant = _mul(giant, leap)
        total = sum(c * g * baby[r][n - k] for k, (c, g) in enumerate(zip(row, giant)) if g)
        out.append(_exact(s * total, s + a * n, n))
        row = [1] + [row[k - 1] + row[k] for k in range(1, n + 1)] + [1]
    return out


def _peel(counts: list, chi: ChiMap) -> list:
    """The parking-like series over base counts by slot peeling, any chi.

    With p = base^chi(1), P_chi[0] = p_0 and, for m >= 1,
    P_chi[m] = sum_(n=1..m) C(m,n) p_n P_(chi.shift(n))[m-n]: the first
    chi(1) slots form a power structure on n of the labels, the rest is
    the shifted parking-like series.  Coefficient m reads only coefficients
    below m, so every chi map reached fills at once, index by index, and
    id.shift(1) == id is no cycle.
    """
    order = len(counts) - 1
    powers = [[1] + [0] * order]  # base^j, one product per new j

    def power(j: int) -> list:
        while len(powers) <= j:
            powers.append(_mul(powers[-1], counts))
        return powers[j]

    # Find every map and the highest index it needs, depth-first in the
    # order of the recursion, so that a table which runs out names the
    # same chi(m) as the recursion would.  A table map fixes its index
    # bound; an affine map met again with a higher bound is walked again.
    need: dict = {}
    shifts: dict = {}  # (map, n) -> map.shift(n), each taken once

    def enter(at: ChiMap, bound: int):
        if need.get(at, -1) >= bound:
            return None
        need[at] = bound
        p = power(at(1))
        return at, bound, (n for n in range(1, bound + 1) if p[n])

    stack = [enter(chi, order)]
    while stack:
        at, bound, ns = stack[-1]
        for n in ns:
            shifted = shifts.get((at, n))
            if shifted is None:
                shifted = shifts[at, n] = at.shift(n)
            frame = enter(shifted, bound - n)
            if frame is not None:
                stack.append(frame)
                break
        else:
            stack.pop()

    series = {at: [power(at(1))[0]] for at in need}
    terms = {}  # map -> [(n, p_n, shifted map's series)]
    for at, bound in need.items():
        p = power(at(1))
        terms[at] = [(n, p[n], series[shifts[at, n]]) for n in range(1, bound + 1) if p[n]]
    row = [1]  # C(m, n), n = 0..m
    for m in range(1, order + 1):
        row = [1] + [row[n - 1] + row[n] for n in range(1, m)] + [1]
        for at, bound in need.items():
            if m <= bound:
                series[at].append(
                    sum(row[n] * pn * tail[m - n] for n, pn, tail in terms[at] if n <= m)
                )
    return series[chi]


def _prefix(base: EgfSeries, order: int) -> list:
    """The counts a_0..a_order of a base series, for a route to that order."""
    if order < 0:
        raise SpeciesError(f"series order must be >= 0, got {shown(order)}")
    if base.order < order:
        raise SpeciesError(f"base series order {base.order} too short for requested order {order}")
    return list(base.counts[: order + 1])


def lagrange_solve(base: EgfSeries, order: int) -> EgfSeries:
    """The tree-like series over a base series, by Lagrange inversion."""
    return EgfSeries(order, _lagrange(_prefix(base, order)))


def park_by_peeling(base: EgfSeries, chi: ChiMap, order: int) -> EgfSeries:
    """The parking-like series over a base series, by slot peeling."""
    return EgfSeries(order, _peel(_prefix(base, order), chi))


# -- species evaluation --------------------------------------------------------


_SETS = (E, EPlus)  # outer species whose composition takes the exp rule

# The slope of a node that reads the innermost approximation where no rule
# gives a derivative; a round whose body has it is a plain one.
_UNKNOWN = object()


def _add(a, b):
    """The slope of a sum of nodes with slopes a and b."""
    if a is None or b is _UNKNOWN:
        return b
    if b is None or a is _UNKNOWN:
        return a
    return [x + y for x, y in zip(a, b)]


def _times(slope, counts: list):
    """The slope of a node with the given slope times a fixed factor."""
    return slope if slope is None or slope is _UNKNOWN else _mul(slope, counts)


def _opaque(slope):
    """The slope of a node with no derivative rule over a part with this slope."""
    return None if slope is None else _UNKNOWN


class _Evaluator:
    """Species-to-count-vector evaluation at a fixed truncation order.

    Every rule returns (counts, slope), the slope by y, the approximation of
    the innermost solve: None where the node does not read y, a count vector
    from the sum, product, power and set-composition rules, and _UNKNOWN
    through a restriction, a parking, a tree, a non-set composition or a
    finished solve that read y.  Final results read none.
    """

    def __init__(self, env: SpeciesEnv, order: int):
        self.env = env
        self.order = order
        self._memo = Memo()

    def eval(self, expr) -> tuple:
        memo = self._memo
        pair = memo.cache.get(expr)
        if pair is None and memo.round:
            pair = memo.reused(expr)
        if pair is not None:
            return pair
        rule = _RULES.get(type(expr))
        if rule is None:
            raise TypeError(f"not a species expression: {expr!r}")
        mark = len(memo.read)
        return memo.store(expr, rule(self, expr), mark)

    # -- rules, one per node type (see _RULES) -------------------------------

    def _sum(self, expr: Sum) -> tuple:
        left, d_left = self.eval(expr.left)
        right, d_right = self.eval(expr.right)
        return [x + y for x, y in zip(left, right)], _add(d_left, d_right)

    def _prod(self, expr: Prod) -> tuple:
        left, d_left = self.eval(expr.left)
        right, d_right = self.eval(expr.right)
        return _mul(left, right), _add(_times(d_left, right), _times(d_right, left))

    def _restrict(self, expr: Restrict) -> tuple:
        out = [0] * (self.order + 1)
        if expr.card > self.order:
            return out, None
        counts, slope = self.eval(expr.base)
        out[expr.card] = counts[expr.card]
        return out, _opaque(slope)

    def _ref(self, expr: Ref) -> tuple:
        N = self.order
        memo = self._memo
        innermost = next(reversed(memo.solving), None)
        mark = len(memo.read)
        body = self.env.lookup(expr.name)
        counts = memo.solve(
            expr,
            [0] * (N + 1),
            N + 2,
            lambda: self._newton(expr, body),
            f"series for {expr.name!r} did not stabilize at order "
            f"{N} after {N + 2} rounds",
        )
        if expr == innermost:
            return counts, [1] + [0] * N
        # An outer solve's approximation is fixed for the inner round; a
        # finished solve read y if the log gained a read of the innermost.
        return counts, _UNKNOWN if innermost in memo.read[mark:] else None

    def _newton(self, ref: Ref, body) -> list:
        """One round for ref := body: y + (H(y) - y)(1 - J)^(-1), J the slope
        of body, else H(y)."""
        value, slope = self.eval(body)
        if slope is None or slope is _UNKNOWN or slope[0] or not any(slope):
            return value  # with J = 0 the step is H(y) too
        y = self.eval(ref)[0]  # the approximation this round improves
        # step = (H(y) - y) + J*step, the difference taken first.
        terms = [(k, j) for k, j in enumerate(slope) if j]
        step = _recurrence([h - a for h, a in zip(value, y)], terms, 0)
        return [a + b for a, b in zip(y, step)]

    def _power(self, expr: Power) -> tuple:
        k = expr.exponent
        if not k:  # the unit, whatever the base: b is not evaluated
            return [1] + [0] * self.order, None
        base, slope = self.eval(expr.base)
        if slope is None or slope is _UNKNOWN:
            return _pow(base, k), slope
        lower = _pow(base, k - 1)  # d b^k = k b^(k-1) db
        return _mul(lower, base), [k * c for c in _mul(slope, lower)]

    def _compose(self, expr: Compose) -> tuple:
        """sum_k f_k (g^k)_n / k!: k-sets of inner structures, outer on the k blocks."""
        inner, d_inner = self.eval(expr.inner)
        if inner[0]:
            raise InadmissibleCompositionError
        if type(expr.outer) in _SETS:
            # F = E(G) solves F' = G'F: f_(n+1) = sum_k C(n,k) g_(k+1) f_(n-k).
            terms = [(k, g) for k, g in enumerate(inner[1:]) if g]
            out = _recurrence([1] + [0] * self.order, terms, 1)
            slope = _times(d_inner, out)  # d E(G) = E(G) dG, and E+ = E - 1
            out[0] = int(type(expr.outer) is E)  # E+ has no empty set
            return out, slope
        outer, d_outer = self.eval(expr.outer)
        out = [0] * (self.order + 1)
        power = [1] + [0] * self.order  # inner^k
        k_factorial = 1
        last = max((k for k, f in enumerate(outer) if f), default=-1)  # no power past f_last
        for k, f in enumerate(outer[: last + 1]):
            if k:
                power = _mul(power, inner)
                k_factorial *= k
            if f:
                for n in range(k, self.order + 1):
                    out[n] += f * _exact(power[n], k_factorial, n)
        return out, _opaque(d_outer if d_inner is None else d_inner)

    def _park(self, expr: Park) -> tuple:
        """Lagrange-Buermann for an affine chi, slot peeling for a table."""
        (counts, slope), chi = self.eval(expr.base), expr.chi
        if chi.kind == "affine":
            return _lagrange(counts, chi.a, chi(1)), _opaque(slope)
        return _peel(counts, chi), _opaque(slope)

    def _tree(self, expr: Tree) -> tuple:
        counts, slope = self.eval(expr.base)
        return _lagrange(counts), _opaque(slope)


# Series rule of every node type: rule(evaluator, expr) -> (counts, slope).
_RULES = {
    Zero: lambda ev, e: ([0] * (ev.order + 1), None),
    One: lambda ev, e: ([1] + [0] * ev.order, None),
    X: lambda ev, e: (([0, 1] + [0] * ev.order)[: ev.order + 1], None),
    E: lambda ev, e: ([1] * (ev.order + 1), None),
    EPlus: lambda ev, e: ([0] + [1] * ev.order, None),
    Sum: _Evaluator._sum,
    Prod: _Evaluator._prod,
    Power: _Evaluator._power,
    Restrict: _Evaluator._restrict,
    Compose: _Evaluator._compose,
    Ref: _Evaluator._ref,
    Park: _Evaluator._park,
    Tree: _Evaluator._tree,
}


def egf_of_species(expr, env: SpeciesEnv | None = None, order: int = 8) -> EgfSeries:
    """Structure counts a_0..a_order of a species, by series evaluation."""
    if order < 0:
        raise SpeciesError(f"series order must be >= 0, got {shown(order)}")
    if order >= sys.maxsize:
        raise SpeciesError(f"series order {shown(order)} is too large to index a count vector")
    if env is None:
        env = SpeciesEnv.standard()
    return EgfSeries(order, _Evaluator(env, order).eval(expr)[0])
