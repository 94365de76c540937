"""Exhaustive generation of labeled structures.

The Generator walks a species expression and produces every structure on a
given label set, by one rule per node type (the _RULES table), the
parking-like and tree-like operators included.  Results are memoized per
(expression, label set), and every label set is built on its own from the
memoized results on its subsets; no result is ever copied onto other labels.
So equal substructures are one shared object, and a list costs one new
top-level node per structure — large runs (millions of structures) stay
affordable.  The Park rule memoizes its slot sequences as plain tuples
under (base, chi, labels) keys, which never equal an (expression, labels)
key, and wraps only those of the map asked for as ParkingLike values.
Generation answers which structures there are; whether one given value is
among them is read off the value by membership.accepts, which lists nothing.

Recursive definitions (Ref nodes) are solved by fixed point: within a fixed
label count n, iterate the defining equation starting from the empty
structure set until it stabilizes, erroring after n + 2 non-stabilizing
rounds.  Structures on fewer labels are final and cached normally.  Results
computed against a provisional approximation are never memoized.

generate, raw and count pause the cyclic garbage collector while they build
and restore the caller's setting afterwards.  Every full collection would
re-walk the whole memo, and there is nothing for it to find: values are
immutable and built bottom-up from existing ones, so the structure graph is
acyclic, and generation makes no reference cycles of its own (no
self-referencing closures).  Reference counting frees every structure,
paused or not.
"""

from __future__ import annotations

import gc
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
from .structures import (
    UNIT,
    AtomVal,
    ComposeVal,
    ParkingLike,
    ProdVal,
    SetVal,
    SumVal,
    TreeLike,
    canonical_labels,
    serialize,
)


def iter_subsets(labels):
    """All subsets, smallest first, lexicographic within a size."""
    items = sorted(labels)
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            yield frozenset(combo)


def iter_set_partitions(labels):
    """All partitions into non-empty blocks, each a tuple of frozensets.

    Blocks come out ordered by minimum element, in the order of the classical
    refinement recursion: each sorted label joins every open block in turn,
    then opens a new one.  A stack of (labels placed, partition of the sorted
    prefix) pairs drives it; a popped prefix pushes its next label's choices
    in reverse, so joining the first block pops first.  A lazy loop, so no
    self-referencing closure is left for the cyclic collector.
    """
    items = sorted(labels)
    stack = [(0, ())]
    while stack:
        i, blocks = stack.pop()
        if i == len(items):
            yield blocks
            continue
        x = items[i]
        stack.append((i + 1, (*blocks, frozenset((x,)))))
        for j in reversed(range(len(blocks))):
            stack.append((i + 1, (*blocks[:j], blocks[j] | {x}, *blocks[j + 1:])))


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
        result = self._build(expr, labels)
        texts = {}  # one for the whole listing, so shared parts reuse their text
        return sorted(result, key=lambda s: serialize(s, texts))

    def raw(self, expr, labels) -> list:
        """Same set as generate(), in deterministic construction order.

        Skips the serialization sort — use for counting large spaces.
        """
        return self._build(expr, labels)

    def count(self, expr, n: int) -> int:
        return len(self._build(expr, canonical_labels(n)))

    def check_admissible(self, expr: Compose) -> None:
        """Raise unless expr's inner species has no structure on the empty set."""
        if self._gen(expr.inner, frozenset()):
            raise InadmissibleCompositionError(
                "composition requires the inner species to have no structure "
                "on the empty set"
            )

    # -- dispatch ------------------------------------------------------------

    def _build(self, expr, labels) -> list:
        """_gen on labels with the cyclic collector paused; see the module doc."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._gen(expr, frozenset(labels))
        finally:
            if enabled:
                gc.enable()

    def _gen(self, expr, labels: frozenset) -> list:
        key = (expr, labels)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        rule = _RULES.get(type(expr))
        if rule is None:
            raise TypeError(f"not a species expression: {expr!r}")
        reads_before = self._memo.reads
        return self._memo.store(key, rule(self, expr, labels), reads_before)

    # -- rules, one per node type (see _RULES) -------------------------------

    def _compute_sum(self, expr: Sum, labels: frozenset) -> list:
        out = [SumVal("L", s) for s in self._gen(expr.left, labels)]
        out.extend(SumVal("R", s) for s in self._gen(expr.right, labels))
        return out

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
        prev = Power(base, 0)
        for j in range(1, k):
            node = Power(base, j)  # one node per step: the next step's lookups hit by identity
            for part in parts:
                key = (node, part)
                if key not in self._cache:
                    reads_before = self._memo.reads
                    result = self._compute_prod(base, prev, part)
                    self._memo.store(key, result, reads_before)
            prev = node
        return self._compute_prod(base, prev, labels)

    def _compute_compose(self, expr: Compose, labels: frozenset) -> list:
        self.check_admissible(expr)
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

    def _compute_ref(self, expr: Ref, labels: frozenset) -> list:
        n = len(labels)
        body = self.env.lookup(expr.name)
        return self._memo.solve(
            (expr, labels),
            [],
            n + 2,
            lambda: self._gen(body, labels),
            f"recursion for {expr.name!r} did not stabilize on "
            f"{n} labels after {n + 2} rounds",
        )

    def _sequences(self, base, chi, labels: frozenset) -> list:
        """The slot sequences of park(base, chi) on labels, by slot peeling:
        the first chi(1) slots are a power structure on a non-empty subset of
        n labels (or on nothing, when labels is empty), and the rest a slot
        sequence on the other labels for rho_n(m) = chi(n+m) - chi(1)."""
        key = (base, chi, labels)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        reads_before = self._memo.reads
        k1 = chi(1)
        power = Power(base, k1)
        out = [] if labels else [flatten_power(pw, k1) for pw in self._gen(power, labels)]
        items = sorted(labels)
        for n in range(1, len(items) + 1):
            shifted = chi.shift(n)
            for combo in combinations(items, n):
                first = frozenset(combo)
                heads = self._gen(power, first)
                if not heads:
                    continue
                tails = self._sequences(base, shifted, labels - first)
                if not tails:
                    continue
                for pw in heads:
                    prefix = flatten_power(pw, k1)
                    out.extend([prefix + tail for tail in tails])
        return self._memo.store(key, out, reads_before)

    def _compute_tree(self, expr: Tree, labels: frozenset) -> list:
        """Tree-like structures, T = base(X * T).

        Enumerates the head set W, the assignment of the remaining labels to
        heads, the subtrees on each head's share, and the base structure on W.
        """
        base = expr.base
        out = []
        items = sorted(labels)
        for w in range(len(items) + 1):
            for heads in combinations(items, w):
                roots = self._gen(base, frozenset(heads))
                if not roots:
                    continue
                rest = sorted(labels - frozenset(heads))
                for assignment in product(heads, repeat=len(rest)):
                    shares = {h: [] for h in heads}
                    for label, h in zip(rest, assignment):
                        shares[h].append(label)
                    sub_lists = [self._gen(expr, frozenset(shares[h])) for h in heads]
                    if not all(sub_lists):
                        continue
                    for choice in product(*sub_lists):
                        children = tuple(zip(heads, choice))
                        out.extend(TreeLike(root, children) for root in roots)
        return out


def flatten_power(s, k: int) -> tuple:
    """The k factors of a power structure _compute_park built: no shape check."""
    out = []
    for _ in range(k):
        out.append(s.left)
        s = s.right
    return tuple(out)


# Generation rule of every node type: rule(generator, expr, labels) -> list.
_RULES = {
    Zero: lambda g, e, labels: [],
    One: lambda g, e, labels: [] if labels else [UNIT],
    X: lambda g, e, labels: [AtomVal(next(iter(labels)))] if len(labels) == 1 else [],
    E: lambda g, e, labels: [SetVal(labels)],
    EPlus: lambda g, e, labels: [SetVal(labels)] if labels else [],
    Sum: Generator._compute_sum,
    Prod: lambda g, e, labels: g._compute_prod(e.left, e.right, labels),
    Power: lambda g, e, labels: g._compute_power(e.base, e.exponent, labels),
    Restrict: lambda g, e, labels: g._gen(e.base, labels) if len(labels) == e.card else [],
    Compose: Generator._compute_compose,
    Ref: Generator._compute_ref,
    Park: lambda g, e, labels: [ParkingLike(e.chi, q) for q in g._sequences(e.base, e.chi, labels)],
    Tree: Generator._compute_tree,
}
