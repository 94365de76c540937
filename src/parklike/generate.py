"""Exhaustive generation of labeled structures.

The Generator walks a species expression and produces every structure on a
given label set.  Results are memoized per (expression, label set), and
every label set is built on its own from the memoized results on its
subsets; no result is ever copied onto other labels.  So equal
substructures are one shared object, and a list costs one new top-level
node per structure — large runs (millions of structures) stay affordable.

Recursive definitions (Ref nodes) are solved by fixed point: within a fixed
label count n, iterate the defining equation starting from the empty
structure set until it stabilizes, erroring after n + 2 non-stabilizing
rounds.  Structures on fewer labels are final and cached normally.  Results
computed against a provisional approximation are never memoized.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import InadmissibleCompositionError
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
from .parking import generate_parking_raw
from .structures import (
    UNIT,
    AtomVal,
    ComposeVal,
    ProdVal,
    SetVal,
    SumVal,
    canonical_labels,
    order_isomorphism,
    serialize,
)
from .treelike import generate_trees_raw


def iter_subsets(labels):
    """All subsets, smallest first, lexicographic within a size."""
    items = sorted(labels)
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            yield frozenset(combo)


def iter_set_partitions(labels):
    """All partitions into non-empty blocks, each a tuple of frozensets.

    Blocks come out ordered by minimum element; the whole iteration is
    deterministic (the classical refinement recursion over sorted labels).
    """
    items = sorted(labels)
    if not items:
        yield ()
        return

    def rec(i, blocks):
        if i == len(items):
            yield tuple(frozenset(b) for b in blocks)
            return
        x = items[i]
        for block in blocks:
            block.append(x)
            yield from rec(i + 1, blocks)
            block.pop()
        blocks.append([x])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


class Generator:
    """Structure generator over a fixed environment.

    The environment must not be mutated once generation has started; cache
    entries are keyed by expression only.  ``memoize=False`` disables all
    caching (slower, used to exercise the raw recursion in tests).
    """

    def __init__(self, env: SpeciesEnv | None = None, *, memoize: bool = True):
        self.env = env if env is not None else SpeciesEnv.standard()
        self._memo = Memo(memoize)
        self._cache = self._memo.cache

    # -- public API ----------------------------------------------------------

    def generate(self, expr, labels) -> list:
        """All structures of expr on labels, sorted by canonical serialization."""
        result = self._gen(expr, frozenset(labels))
        return sorted(result, key=serialize)

    def raw(self, expr, labels) -> list:
        """Same set as generate(), in deterministic construction order.

        Skips the serialization sort — use for counting large spaces.
        """
        return self._gen(expr, frozenset(labels))

    def count(self, expr, n: int) -> int:
        return len(self._gen(expr, canonical_labels(n)))

    def contains(self, expr, s) -> bool:
        """Whether s is one of expr's structures on s's own label set.

        s is moved onto {1..k} along the order isomorphism and compared by
        value with the canonical list.  The list on s's own labels equals
        that list relabeled the other way (species are functorial; verify's
        prop-functoriality checks it), so both tests give the same verdict.
        """
        labels = s.underlying()
        canon = canonical_labels(len(labels))
        try:
            s = s.relabel(order_isomorphism(labels, canon))
        except KeyError:  # e.g. an outer structure off its blocks' minima
            return False
        return s in self._gen(expr, canon)

    # -- dispatch ------------------------------------------------------------

    def _gen(self, expr, labels: frozenset) -> list:
        key = (expr, labels)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        reads_before = self._memo.reads
        return self._memo.store(key, self._compute(expr, labels), reads_before)

    def _compute(self, expr, labels: frozenset) -> list:
        n = len(labels)
        if isinstance(expr, Zero):
            return []
        if isinstance(expr, One):
            return [UNIT] if n == 0 else []
        if isinstance(expr, X):
            return [AtomVal(next(iter(labels)))] if n == 1 else []
        if isinstance(expr, E):
            return [SetVal(labels)]
        if isinstance(expr, EPlus):
            return [SetVal(labels)] if n > 0 else []
        if isinstance(expr, Sum):
            out = [SumVal("L", s) for s in self._gen(expr.left, labels)]
            out.extend(SumVal("R", s) for s in self._gen(expr.right, labels))
            return out
        if isinstance(expr, Prod):
            return self._compute_prod(expr.left, expr.right, labels)
        if isinstance(expr, Power):
            return self._compute_power(expr.base, expr.exponent, labels)
        if isinstance(expr, Restrict):
            return self._gen(expr.base, labels) if n == expr.card else []
        if isinstance(expr, Compose):
            return self._compute_compose(expr, labels)
        if isinstance(expr, Ref):
            body = self.env.lookup(expr.name)
            return self._memo.solve(
                (expr, labels),
                [],
                n + 2,
                lambda: self._gen(body, labels),
                f"recursion for {expr.name!r} did not stabilize on "
                f"{n} labels after {n + 2} rounds",
            )
        if isinstance(expr, Park):
            return generate_parking_raw(self, expr.base, expr.chi, labels)
        if isinstance(expr, Tree):
            return generate_trees_raw(self, expr.base, labels)
        raise TypeError(f"not a species expression: {expr!r}")

    def _compute_prod(self, left, right, labels: frozenset) -> list:
        out = []
        for part in iter_subsets(labels):
            lefts = self._gen(left, part)
            if not lefts:
                continue
            rights = self._gen(right, labels - part)
            out.extend(
                ProdVal(l, r) for l in lefts for r in rights
            )
        return out

    def _compute_power(self, base, k: int, labels: frozenset) -> list:
        """b^k as b * b^(k-1), with every b^j (j < k) built upward beforehand.

        A loop, not recursion: exponents in the thousands must not hit the
        interpreter's recursion limit.  Round j stores b^j on every subset of
        labels, so round j + 1 finds its right factors cached.
        """
        if k == 0:
            return [UNIT] if not labels else []
        parts = list(iter_subsets(labels))
        for j in range(1, k):
            for part in parts:
                key = (Power(base, j), part)
                if key not in self._cache:
                    reads_before = self._memo.reads
                    result = self._compute_prod(base, Power(base, j - 1), part)
                    self._memo.store(key, result, reads_before)
        return self._compute_prod(base, Power(base, k - 1), labels)

    def _compute_compose(self, expr: Compose, labels: frozenset) -> list:
        if self._gen(expr.inner, frozenset()):
            raise InadmissibleCompositionError(
                "composition requires the inner species to have no structure "
                "on the empty set"
            )
        out = []
        for blocks in iter_set_partitions(labels):
            inner_lists = [self._gen(expr.inner, b) for b in blocks]
            if not all(inner_lists):
                continue
            reps = frozenset(min(b) for b in blocks)
            for outer in self._gen(expr.outer, reps):
                for choice in product(*inner_lists):
                    out.append(ComposeVal(outer, tuple(zip(blocks, choice))))
        return out
