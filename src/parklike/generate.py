"""Exhaustive generation and counting of labeled structures.

The generation rule of each node type (the _RULES table, the parking-like
and tree-like operators included) yields the *terms* of an expression on a
label set.  A term (make, factors, weight) stands for make(*choice) for every
choice in the Cartesian product of its factors, in construction order, weight
times over; a factor is the same fold's result for a sub-expression on a
subset of the labels, or for a term of its own (the tuples of a tree's
children, or of a composition's blocks), and a leaf is one term with no
factors.  Three folds read the terms.  The list fold (raw, generate) makes
the structures; the text fold (texts) makes their canonical texts, compact
or in json.dumps's default spacing, each written from its parts' texts, so a
listing builds and serializes no structure; the count fold (count) sums
weight times the product of the factor counts, so it builds no structure and
keeps no list.  The fold supplies the makes (_STRUCTURES, or the writers of
the text's style, structures.WRITERS), which the count fold ignores.

The fold supplies the walk a rule makes over its labels (subsets, set
partitions, assignments of labels to tree heads) as (part, multiplicity)
pairs, and subsets as (part, rest, multiplicity) triples, rest the labels
not in part; a walk is made on each call and dropped when its rule is done.
The list and text folds walk every part once, and memoize their results per
(expression, label set), building every label set from their results on the
subsets: in the list fold equal substructures are one shared object, and a
list costs one new top-level node per structure.  A b^k is made from chains
(first factor, chain of the other k - 1): its rounds b^j, j < k, are built
upward on every subset as chains, which copy nothing per round, and a
power's structure or text, or a parking head's slots, is made once from its
chain.  A slot sequence is a flat tuple of slots, or of slot texts.  The Park
rule makes each parking-like value straight from its heads and tails, and
memoizes its tails' sequences unless the park is the request (see _park).  A
count depends on the sizes of the parts only (species are functors on
bijections), so the count fold memoizes per (expression, label count) and
walks one part per pattern of part sizes, weighted by the number of parts
that share it, in the order the list fold's walk first meets that pattern.
So each sub-expression and size is folded where the list fold first meets
it, and a factor is empty exactly when its count is 0, so the first chi
read, error and fixed-point solve of every sub-expression and size come in
the same order in all three folds, and with them the same error.  Each shift
of a chi map is made once per Generator, and one shifted map per (value,
origin) serves all folds, so their lookups hit by identity.

A Ref is solved by fixed point: on n labels, iterate its body from the empty
result (no structure, count 0) until it stabilizes, erroring after n + 2
rounds.  A solve reaches only subsets of its labels, so in the count fold a
nested request of the same size is for the same set.  A result that read an
approximation is kept for the round (see memo), so it is folded once a round.
generate, raw, texts and count pause the cyclic garbage collector and restore
the caller's setting: a full collection would re-walk the whole memo and find
nothing, since values are built bottom-up from existing ones and no fold
makes a cycle (it holds no reference to its Generator).
"""

from __future__ import annotations

import gc
from functools import cached_property, partial
from itertools import accumulate, combinations, islice, product, repeat, starmap
from math import comb, factorial, prod
from types import SimpleNamespace

from .errors import InadmissibleCompositionError
from .expr import (
    E, EPlus, Compose, One, Park, Power, Prod, Ref, Restrict, SpeciesEnv, Sum, Tree, X, Zero,
)
from .memo import Memo
from .structures import (
    UNIT, WRITERS, AtomVal, ComposeVal, ParkingLike, ProdVal, SetVal, SumVal, TreeLike,
    canonical_labels, serialize,
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


# -- the walks a rule makes over its labels, as (part, multiplicity) pairs -----
#
# The list fold walks every subset, partition and head assignment, each once.
# The count fold walks one per pattern of part sizes, in the order the list
# fold first meets that pattern, weighted by how many share it; its parts are
# consecutive runs of the sorted labels.


def _label_subsets(labels):
    return zip(iter_subsets(labels), repeat(1))


def _label_splits(labels):
    """_label_subsets as (part, rest, 1), rest the labels not in part: the
    i-th subset from the end, so no difference is built."""
    parts = [part for part, _one in _label_subsets(labels)]
    return zip(parts, reversed(parts), repeat(1))


def _label_partitions(labels):
    return zip(iter_set_partitions(labels), repeat(1))


def _label_shares(w: int, rest: list):
    """Every assignment of the sorted labels rest to w heads, as the heads'
    shares, the last label's head varying fastest."""
    for assignment in product(range(w), repeat=len(rest)):
        shares = [[] for _ in range(w)]
        for label, h in zip(rest, assignment):
            shares[h].append(label)
        yield tuple(map(frozenset, shares)), 1


def _size_subsets(labels):
    """The first k sorted labels for each size k, in C(n, k) subsets."""
    items = sorted(labels)
    return ((frozenset(items[:k]), comb(len(items), k)) for k in range(len(items) + 1))


def _size_splits(labels):
    """_size_subsets as (part, rest, weight), rest the labels not in part."""
    return ((part, labels - part, weight) for part, weight in _size_subsets(labels))


def _size_partitions(labels):
    """One partition per sequence of block sizes s_j (blocks ordered by their
    minimum), in prod C(r_j - 1, s_j - 1) partitions, r_j the labels not in
    earlier blocks: block j holds the least of them and s_j - 1 others."""
    items = sorted(labels)
    for sizes in _size_patterns(len(items), (), grow=True):
        weight, left = 1, len(items)
        for s in sizes:
            weight *= comb(left - 1, s - 1)
            left -= s
        yield _runs(items, sizes), weight


def _size_shares(w: int, rest: list):
    """One assignment of rest to w heads per tuple of share sizes t_h, in
    r!/prod t_h! assignments."""
    for sizes in _size_patterns(len(rest), (0,) * w, grow=False):
        yield _runs(rest, sizes), factorial(len(rest)) // prod(map(factorial, sizes))


def _size_patterns(n: int, sizes: tuple, grow: bool):
    """The part sizes reached by placing n labels one at a time, each joining
    part 0, 1, ... in turn and then, if grow, a part of its own: the walk of
    iter_set_partitions (grow) or of a head assignment, each tuple once, in
    the order that walk first reaches it.  A state (labels placed, sizes) met
    again is skipped: everything below it came out the first time."""
    seen = set()
    stack = [(0, sizes)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        i, sizes = state
        if i == n:
            yield sizes
            continue
        if grow:
            stack.append((i + 1, (*sizes, 1)))
        for j in reversed(range(len(sizes))):
            stack.append((i + 1, (*sizes[:j], sizes[j] + 1, *sizes[j + 1:])))


def _runs(items: list, sizes: tuple) -> tuple:
    """items cut into consecutive runs of the given sizes, as frozensets."""
    return tuple(frozenset(items[end - s:end]) for s, end in zip(sizes, accumulate(sizes)))


class Generator:
    """Structure generator and counter over a fixed environment.

    The environment must not be mutated once generation has started; cache
    entries are keyed by expression only.  ``memoize=False`` disables every
    result cache (slower, used to exercise the raw recursion in tests); the
    shifted chi maps are still kept.  The count and text folds are made on
    first use: membership's Generators make neither.
    """

    def __init__(self, env: SpeciesEnv | None = None, *, memoize: bool = True):
        self.env = env if env is not None else SpeciesEnv.standard()
        self._maps = {}  # shifted chi maps, shared by the folds: see _Fold.shift
        self._lists = _Fold(self.env, _listing, _STRUCTURES, memoize, self._maps)

    @cached_property
    def _counts(self):
        return _Fold(self.env, _counting, _STRUCTURES, self._lists.memo.enabled, self._maps)

    @cached_property
    def _texts(self):  # the text fold of each style, by whether it is spaced
        return {spaced: _Fold(self.env, _listing, makes, self._lists.memo.enabled, self._maps)
                for spaced, makes in WRITERS.items()}

    # -- public API ----------------------------------------------------------

    def generate(self, expr, labels) -> list:
        """All structures of expr on labels, sorted by canonical serialization."""
        return sorted(self.raw(expr, labels), key=serialize)

    def raw(self, expr, labels) -> list:
        """Same set as generate(), in construction order: the list fold of
        expr's terms.  Skips the serialization sort."""
        return _paused(self._lists, expr, frozenset(labels))

    def texts(self, expr, labels, spaced: bool = False) -> list:
        """The canonical texts of raw(expr, labels), in the same order, or
        with json.dumps's default spacing if spaced: the text fold of the
        same terms, which writes each text from its parts' texts and builds
        no structure."""
        return _paused(self._texts[spaced], expr, frozenset(labels))

    def count(self, expr, n: int) -> int:
        """The number of expr's structures on n labels: the count fold of the
        same terms, which builds no structure, folds each sub-expression once
        per label count, and walks one label set per pattern of part sizes,
        weighted by how many share it, where the list fold first meets it."""
        return _paused(self._counts, expr, canonical_labels(n))

    def check_admissible(self, expr: Compose) -> None:
        """Raise unless expr's inner species has no structure on the empty set."""
        _check_admissible(self._lists, expr)


def _paused(fold, expr, labels: frozenset):
    """fold(expr, labels), the request fold.root, with the cyclic collector
    paused; see the module doc."""
    enabled = gc.isenabled()
    gc.disable()
    fold.root = expr, labels
    try:
        return fold(expr, labels)
    finally:
        if enabled:
            gc.enable()


def _listing(terms) -> list:
    """The list and text folds: what the terms stand for, in order."""
    out = []
    for make, factors, _weight in terms:
        out.extend(starmap(make, product(*factors)))
    return out


def _counting(terms) -> int:
    """The count fold: how many structures the terms stand for."""
    return sum(weight * prod(factors) for _make, factors, weight in terms)


def _same(s):
    return s


def _pairs(keys, *values) -> tuple:
    return tuple(zip(keys, values))


def _slot_tuple(chain) -> tuple:
    """The factors of a chain the list fold made (ProdVals ending in UNIT)."""
    out = []
    while type(chain) is ProdVal:
        out.append(chain.left)
        chain = chain.right
    return tuple(out)


def _parking(chi, heads: tuple, tails: tuple = ()) -> ParkingLike:
    return ParkingLike(chi, heads + tails)


def _tree_val(children, root):
    return TreeLike(root, children)


# What a fold makes of a choice of a term's factors: structures in the list
# fold, texts in the text fold (structures.WRITERS); the count fold ignores them.
#   unit(), atom(label), set(labels)     the structures of 1, X and E
#   sum(side, inner), prod(left, right), compose(outer, blocks), tree(children, root)
#   link(first factor, chain of the others)   a chain of a power's round
#   power(chain), slots(chain)           the power's structure, its factors as slots
#   sequence(heads' slots, tails' sequence)   a slot sequence
#   park(chi), blocks(blocks), children(sorted heads)   the make of a parking-like
#       structure from (heads' slots[, tails' sequence]), of the blocks from
#       their inner structures, and of the children from the heads' subtrees
_STRUCTURES = SimpleNamespace(
    unit=partial(_same, UNIT), atom=AtomVal, set=SetVal, sum=SumVal, prod=ProdVal,
    link=ProdVal, power=_same, slots=_slot_tuple, sequence=tuple.__add__,
    park=partial(partial, _parking), blocks=partial(partial, _pairs), compose=ComposeVal,
    children=partial(partial, _pairs), tree=_tree_val,
)


class _Fold:
    """The memoized results of one fold (_listing or _counting) of the rules'
    terms, under one set of makes.  It holds no reference to its Generator:
    no cycle keeps the memo."""

    def __init__(self, env, combine, makes: SimpleNamespace, memoize: bool, maps: dict):
        self.env = env
        self.combine = combine
        self.makes = makes
        # A count depends on the sizes of the parts only (transport of
        # structure), so the count fold keys its memo by len(labels) and walks
        # one part per size pattern; the list and text folds key by labels,
        # and walk all.
        if combine is _counting:
            walks = len, _size_splits, _size_partitions, _size_shares
        else:
            walks = _same, _label_splits, _label_partitions, _label_shares
        self.labels_key, self.subsets, self.partitions, self.shares = walks
        self.memo = Memo(memoize)
        self.cache = self.memo.cache
        self._maps = maps
        self.root = None  # the (expression, labels) of the request being folded

    def __call__(self, expr, labels: frozenset):
        key = (expr, self.labels_key(labels))
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        rule = _RULES.get(type(expr))
        if rule is None:
            raise TypeError(f"not a species expression: {expr!r}")
        return self.memoized(rule, expr, labels, key=key)

    def memoized(self, rule, *args, key=None):
        """The fold of the terms of rule(self, *args), cached under key, by
        default (rule, *args) with the labels, its last argument, keyed as in
        __call__; that never equals an expression's key.  Kept for the round
        only, if it read an approximation."""
        key = key or (rule, *args[:-1], self.labels_key(args[-1]))
        cached = self.cache.get(key)
        if cached is None and self.memo.round:
            cached = self.memo.reused(key)
        if cached is not None:
            return cached
        mark = len(self.memo.read)
        return self.memo.store(key, self.combine(rule(self, *args)), mark)

    def shift(self, chi, n: int):
        """The one map equal to chi.shift(n) of this Generator, made once per
        (chi's value, chi's origin, n): no two equal maps key the memo, and
        an exhausted table is named by its own origin."""
        key = (chi, chi.origin, n)
        shifted = self._maps.get(key)
        if shifted is None:
            shifted = chi.shift(n)
            shifted = self._maps[key] = self._maps.setdefault((shifted.key(), shifted.origin), shifted)
        return shifted


# -- rules, one per node type (see _RULES): each yields terms ------------------


def _check_admissible(fold, expr: Compose) -> None:
    if fold(expr.inner, frozenset()):
        raise InadmissibleCompositionError(
            "composition requires the inner species to have no structure on the empty set")


def _prod(fold, left, right, labels: frozenset):
    for part, rest, weight in fold.subsets(labels):
        lefts = fold(left, part)
        if lefts:
            yield fold.makes.prod, [lefts, fold(right, rest)], weight


def _round(fold, base, j: int, labels: frozenset):
    """b^j on labels as chains: round 0 is the unit on no labels, round j
    links b on a subset to round j - 1 on the rest."""
    if j == 0:
        yield from _RULES[One](fold, None, labels)
        return
    for part, rest, weight in fold.subsets(labels):
        firsts = fold(base, part)
        if firsts:
            yield fold.makes.link, [firsts, fold.memoized(_round, base, j - 1, rest)], weight


def _rounds(fold, base, k: int, labels: frozenset):
    """Round k of b on labels, every round j < k built upward beforehand on
    every subset of labels (one per size, in the count fold): a loop, not
    recursion, so exponents in the thousands stay within the interpreter's
    recursion limit, and round j + 1 finds round j cached.  Below k = 2
    there is no round to build beforehand, and no walk is made."""
    parts = [part for part, _rest, _weight in fold.subsets(labels)] if k > 1 else ()
    for j in range(1, k):
        for part in parts:
            fold.memoized(_round, base, j, part)
    return fold.memoized(_round, base, k, labels)


def _power(fold, expr: Power, labels: frozenset):
    """b^k as b * b^(k-1): each structure is made once, from its chain."""
    yield fold.makes.power, [_rounds(fold, expr.base, expr.exponent, labels)], 1


def _compose(fold, expr: Compose, labels: frozenset):
    """The outer structure varies slowest, then the inner ones, block by block."""
    _check_admissible(fold, expr)
    for blocks, weight in fold.partitions(labels):
        inner = [fold(expr.inner, b) for b in blocks]
        if all(inner):
            outer = fold(expr.outer, frozenset(min(b) for b in blocks))
            made = fold.combine([(fold.makes.blocks(blocks), inner, 1)])
            yield fold.makes.compose, [outer, made], weight


def _ref(fold, expr: Ref, labels: frozenset):
    n = len(labels)
    body = fold.env.lookup(expr.name)
    error = f"recursion for {expr.name!r} did not stabilize on {n} labels after {n + 2} rounds"
    step = partial(fold, body, labels)
    key = (expr, fold.labels_key(labels))
    yield _same, [fold.memo.solve(key, fold.combine(()), n + 2, step, error)], 1


def _heads(fold, base, k: int, labels: frozenset):
    """b^k on labels as its k factors, the first chi(1) slots of a sequence."""
    yield fold.makes.slots, [_rounds(fold, base, k, labels)], 1


def _sequences(fold, base, chi, labels: frozenset, kept=True):
    """The slot sequences of park(base, chi) on labels, by slot peeling:
    the first chi(1) slots are a power structure on a non-empty subset of
    n labels (or on nothing, when labels is empty), and the rest a slot
    sequence on the other labels for rho_n(m) = chi(n+m) - chi(1), memoized
    if kept and otherwise folded for this call only."""
    k = chi(1)
    if not labels:
        yield _same, [fold.memoized(_heads, base, k, labels)], 1
        return
    n = 0
    for first, rest, weight in islice(fold.subsets(labels), 1, None):  # non-empty, by size
        heads = fold.memoized(_heads, base, k, first)
        if not heads:
            continue
        if len(first) > n:  # shifted once some head exists, as series slot peeling does
            n = len(first)
            shifted = fold.shift(chi, n)
        tails = (fold.memoized(_sequences, base, shifted, rest) if kept
                 else fold.combine(_sequences(fold, base, shifted, rest)))
        if tails:
            yield fold.makes.sequence, [heads, tails], weight


def _park(fold, expr: Park, labels: frozenset):
    """The slot sequences' terms, each made a parking-like structure straight
    from its heads and tails; the sequences on labels are not kept.  Nor are
    their tails' if the park is the request, folded on this label set only,
    where each tail is reached once; parks inside a request share tails."""
    make = fold.makes.park(expr.chi)
    kept = fold.root != (expr, labels)
    for _make, factors, weight in _sequences(fold, expr.base, expr.chi, labels, kept):
        yield make, factors, weight


def _tree(fold, expr: Tree, labels: frozenset):
    """Tree-like structures, T = base(X * T): the head set W, the assignment
    of the other labels to heads, the subtrees on each head's share, and the
    base structure on W, which varies fastest."""
    for heads, rest, weight in fold.subsets(labels):
        roots = fold(expr.base, heads)
        if not roots:
            continue
        pairs = fold.makes.children(sorted(heads))
        for shares, ways in fold.shares(len(heads), sorted(rest)):
            subtrees = [fold(expr, share) for share in shares]
            if all(subtrees):
                children = fold.combine([(pairs, subtrees, 1)])
                yield fold.makes.tree, [children, roots], weight * ways


# Generation rule of every node type: rule(fold, expr, labels) -> terms.
_RULES = {
    Zero: lambda fold, e, labels: (),
    One: lambda fold, e, labels: () if labels else ((fold.makes.unit, (), 1),),
    X: lambda fold, e, labels: (
        ((partial(fold.makes.atom, *labels), (), 1),) if len(labels) == 1 else ()
    ),
    E: lambda fold, e, labels: ((partial(fold.makes.set, labels), (), 1),),
    EPlus: lambda fold, e, labels: ((partial(fold.makes.set, labels), (), 1),) if labels else (),
    Sum: lambda fold, e, labels: (
        (partial(fold.makes.sum, "L"), [fold(e.left, labels)], 1),
        (partial(fold.makes.sum, "R"), [fold(e.right, labels)], 1),
    ),
    Prod: lambda fold, e, labels: _prod(fold, e.left, e.right, labels),
    Power: _power,
    Restrict: lambda fold, e, labels: (
        ((_same, [fold(e.base, labels)], 1),) if len(labels) == e.card else ()
    ),
    Compose: _compose,
    Ref: _ref,
    Park: _park,
    Tree: _tree,
}
