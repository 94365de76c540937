"""Exhaustive generation and counting of labeled structures.

The generation rule of each node type (the _RULES table, the parking-like
and tree-like operators included) yields the *terms* of an expression on a
label set.  A term (make, factors, weight) stands for make(*choice) for every
choice in the Cartesian product of its factors, in construction order, weight
times over; a factor is the same fold's result for a sub-expression on a
subset of the labels, the factors in the order their value's text takes
them (a tree's subtrees, then its root), and a leaf is a term with none.
Three folds read the terms.  The list fold (raw, generate) makes the
structures; the text fold (texts) makes their canonical texts, compact or in
json.dumps's default spacing, each written from its parts' texts, so a
listing builds and serializes no structure; the count fold (count) sums
weight times the product of the factor counts, so it builds no structure and
keeps no list.  The fold supplies the makes (_STRUCTURES, or the writers of
the text's style, structures.WRITERS), which the count fold ignores.  A
make is a function of a choice, or in the text fold a template (see
structures._template) that _listing joins each choice into in C, so most
texts are written with no Python frame.

The fold supplies the walk a rule makes over its labels (subsets, set
partitions, assignments of labels to tree heads) as (part, multiplicity)
pairs, and subsets as (part, rest, multiplicity) triples, rest the labels
not in part; a walk is made on each call and dropped when its rule is done.
Set partitions and head assignments are one placement walk (_placements),
over labels in the list and text folds and over part sizes in the count fold.
The list and text folds walk every part once, and cache their results per
(expression, label set), building every label set from their results on the
subsets: in the list fold equal substructures are one shared object, and a
list costs one new top-level node per structure.  A b^k is made from chains
(first factor, chain of the other k - 1): its rounds b^j, j < k, are built
upward on every subset as chains, which copy nothing per round, and a
power's structure or text, or a parking head's slots, is made once from its
chain.  A slot sequence is a flat tuple of slots, or of slot texts, which
kept tails share; a parking-like text's template takes each term's
sequences joined, so a tail is written as text where it is used.  The Park
rule makes each parking-like value straight from its heads and tails, and
caches its tails' sequences unless the park is the request (see _park).  A
count depends on the sizes of the parts only (species are functors on
bijections), so the count fold caches per (expression, label count) and
walks one part per pattern of part sizes, weighted by the number of parts
that share it, in the order the list fold's walk first meets that pattern:
the same walk, over sizes, skipping a state met before.
So each sub-expression and size is folded where the list fold first meets
it, and a factor is empty exactly when its count is 0, so the first chi
read, error and fixed-point solve of every sub-expression and size come in
the same order in all three folds, and with them the same error.  Each shift
of a chi map is made once per fold, and one shifted map per (value, origin)
serves the fold, so its lookups hit by identity.

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
from operator import add, or_
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
    then opens a new one (see _placements)."""
    return _placements([frozenset((x,)) for x in sorted(labels)], (), or_, True)


def _placements(items, parts: tuple, join, grow: bool, seen=None):
    """The parts reached by placing the items one at a time, depth first:
    each joins part 0, 1, ... in turn through join(part, item), then, if
    grow, opens a part of its own.  The one walk of set partitions (grow,
    from no parts) and head assignments (from w empty parts), over labels,
    or over sizes with items all 1 and join add.  Given seen, a state (items
    placed, parts) met again is skipped: all below it came out the first
    time.  A lazy stack loop, so it leaves the cyclic collector nothing, and
    states share their prefix's parts."""
    n = len(items)
    stack = [(0, parts)]
    while stack:
        state = stack.pop()
        if seen is not None:
            if state in seen:
                continue
            seen.add(state)
        i, parts = state
        if i == n:
            yield parts
            continue
        x = items[i]
        if grow:
            stack.append((i + 1, (*parts, x)))
        for j in reversed(range(len(parts))):
            stack.append((i + 1, (*parts[:j], join(parts[j], x), *parts[j + 1:])))


# -- the walks a rule makes over its labels, as (part, multiplicity) pairs -----
#
# The list fold walks every subset, partition and head assignment, each once.
# The count fold walks one per pattern of part sizes, by the same walk over
# sizes, so in the order the list fold first meets it, weighted by how many
# share it; its parts are consecutive runs of the sorted labels.


def _label_splits(labels):
    """Every subset (iter_subsets) as (part, rest, 1), rest the labels not in
    part: the i-th subset from the end, so no difference is built."""
    parts = list(iter_subsets(labels))
    return zip(parts, reversed(parts), repeat(1))


def _label_partitions(labels):
    return zip(iter_set_partitions(labels), repeat(1))


def _label_shares(w: int, rest: list):
    """Every assignment of the sorted labels rest to w heads, as the heads'
    shares, the last label's head varying fastest."""
    return zip(_placements([frozenset((x,)) for x in rest], (frozenset(),) * w, or_, False), repeat(1))


def _size_splits(labels):
    """The first k sorted labels for each size k and the rest, in C(n, k)
    subsets, as (part, rest, weight)."""
    items = sorted(labels)
    return ((frozenset(items[:k]), frozenset(items[k:]), comb(len(items), k)) for k in range(len(items) + 1))


def _size_partitions(labels):
    """One partition per sequence of block sizes s_j (blocks ordered by their
    minimum), as iter_set_partitions' walk over sizes first meets it, in
    prod C(r_j - 1, s_j - 1) partitions, r_j the labels not in earlier
    blocks: block j holds the least of them and s_j - 1 others."""
    items = sorted(labels)
    for sizes in _placements((1,) * len(items), (), add, True, set()):
        weight, left = 1, len(items)
        for s in sizes:
            weight *= comb(left - 1, s - 1)
            left -= s
        yield _runs(items, sizes), weight


def _size_shares(w: int, rest: list):
    """One assignment of rest to w heads per tuple of share sizes t_h, as
    _label_shares' walk over sizes first meets it, in r!/prod t_h! assignments."""
    for sizes in _placements((1,) * len(rest), (0,) * w, add, False, set()):
        yield _runs(rest, sizes), factorial(len(rest)) // prod(map(factorial, sizes))


def _runs(items: list, sizes: tuple) -> tuple:
    """items cut into consecutive runs of the given sizes, as frozensets."""
    return tuple(frozenset(items[end - s:end]) for s, end in zip(sizes, accumulate(sizes)))


class Generator:
    """Structure generator and counter over a fixed environment.

    The environment must not be mutated once generation has started; cache
    entries are keyed by expression only.  The count and text folds are made
    on first use: membership's Generators make neither.
    """

    def __init__(self, env: SpeciesEnv | None = None):
        self.env = env if env is not None else SpeciesEnv.standard()
        self._lists = _Fold(self.env, _listing, _STRUCTURES)

    @cached_property
    def _counts(self):
        return _Fold(self.env, _counting, _STRUCTURES)

    @cached_property
    def _texts(self):  # the text fold of each style, by whether it is spaced
        return {spaced: _Fold(self.env, _listing, makes) for spaced, makes in WRITERS.items()}

    # -- public API ----------------------------------------------------------

    def generate(self, expr, labels) -> list:
        """All structures of expr on labels, sorted by canonical serialization."""
        return _paused(self._lists, expr, frozenset(labels), partial(sorted, key=serialize))

    def raw(self, expr, labels) -> list:
        """Same set as generate(), in construction order: the list fold of
        expr's terms, in a list the memo does not keep.  Skips the sort."""
        return _paused(self._lists, expr, frozenset(labels), list)

    def texts(self, expr, labels, spaced: bool = False) -> list:
        """The canonical texts of raw(expr, labels), in the same order, or
        with json.dumps's default spacing if spaced: the text fold of the
        same terms, which writes each text from its parts' texts and builds
        no structure.  The list is the caller's, as raw's is."""
        return _paused(self._texts[spaced], expr, frozenset(labels), list)

    def count(self, expr, n: int) -> int:
        """The number of expr's structures on n labels: the count fold of the
        same terms, which builds no structure, folds each sub-expression once
        per label count, and walks one label set per pattern of part sizes,
        weighted by how many share it, where the list fold first meets it."""
        return _paused(self._counts, expr, canonical_labels(n), int)

    def check_admissible(self, expr: Compose) -> None:
        """Raise unless expr's inner species has no structure on the empty set."""
        _check_admissible(self._lists, expr)


def _paused(fold, expr, labels: frozenset, own):
    """own(fold(expr, labels)), the request fold.root, with the cyclic
    collector paused (see the module doc): a listing the memo keeps is
    copied here, where no collection can start and re-walk the memo."""
    enabled = gc.isenabled()
    gc.disable()
    fold.root = expr, labels
    try:
        return own(fold(expr, labels))
    finally:
        if enabled:
            gc.enable()


def _listing(terms) -> list:
    """The list and text folds: what the terms stand for, in order.  A make
    _same lists its one factor, None the choices themselves, and a template
    (structures._template) the joins of each choice into it, all in C."""
    out = []
    for make, factors, _weight in terms:
        if make is _same:
            out.extend(*factors)
        elif make is None:
            out.extend(product(*factors))
        elif type(make) is tuple:
            pieces = list(make)
            pieces[1::2] = factors
            out.extend(map("".join, product(*pieces)))
        else:
            out.extend(starmap(make, product(*factors)))
    return out


def _counting(terms) -> int:
    """The count fold: how many structures the terms stand for."""
    return sum(weight * prod(factors) for _make, factors, weight in terms)


def _same(s):
    return s


def _slot_tuple(chain) -> tuple:
    """The factors of a chain the list fold made (ProdVals ending in UNIT)."""
    out = []
    while type(chain) is ProdVal:
        out.append(chain.left)
        chain = chain.right
    return tuple(out)


def _parking(chi, heads: tuple, tails: tuple = ()) -> ParkingLike:
    return ParkingLike(chi, heads + tails)


def _shaped(cls, keys, *factors):
    """A composition or a tree of one shape: cls(last factor, (key, factor) pairs)."""
    return cls(factors[-1], tuple(zip(keys, factors)))


# What a fold makes of a choice of a term's factors, which come in the order
# the value's text takes them: structures in the list fold, texts in the text
# fold (structures.WRITERS); the count fold ignores them.
#   unit(), atom(label), set(labels)     the structures of 1, X and E
#   prod(left, right), link(first factor, chain of the others)   a product,
#       and a chain of a power's round
#   power(chain), slots(chain)           the power's structure, its factors as slots
#   sum(side), compose(blocks), tree(heads, a sorted tuple)   the make of a sum's side
#       from its inner structure, of a composition from its blocks' inner
#       structures and its outer one, and of a tree from its heads' subtrees
#       and its root
#   park(chi)   the makes of a parking-like structure from (heads' slots) and
#       from (heads' slots, tails' sequence), each factor's sequences joined
#   joined(sequences)   a factor's slot sequences as the park makes take them
_STRUCTURES = SimpleNamespace(
    unit=partial(_same, UNIT), atom=AtomVal, set=SetVal, sum=partial(partial, SumVal),
    prod=ProdVal, link=ProdVal, power=_same, slots=_slot_tuple,
    park=lambda chi: (partial(_parking, chi),) * 2, joined=_same,
    compose=partial(partial, _shaped, ComposeVal), tree=partial(partial, _shaped, TreeLike),
)


class _Fold:
    """The cached results of one fold (_listing or _counting) of the rules'
    terms, under one set of makes.  It holds no reference to its Generator:
    no cycle keeps the memo."""

    def __init__(self, env, combine, makes: SimpleNamespace):
        self.env = env
        self.combine = combine
        self.makes = makes
        # A count depends on the sizes of the parts only (transport of
        # structure), so the count fold keys its memo by len(labels) and walks
        # one part per size pattern; the list and text folds key by labels,
        # and walk all.
        self.sized = combine is _counting
        if self.sized:
            walks = _size_splits, _size_partitions, _size_shares
        else:
            walks = _label_splits, _label_partitions, _label_shares
        self.subsets, self.partitions, self.shares = walks
        self.memo = Memo()
        self.cache = self.memo.cache
        self._maps = {}  # shifted chi maps: see shift
        self.root = None  # the (expression, labels) of the request being folded

    def __call__(self, expr, labels: frozenset):
        key = (expr, len(labels)) if self.sized else (expr, labels)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        rule = _RULES.get(type(expr))
        if rule is None:
            raise TypeError(f"not a species expression: {expr!r}")
        return self.folded(rule, expr, labels, key=key)

    def folded(self, rule, *args, key=None):
        """The fold of the terms of rule(self, *args), cached under key, by
        default (rule, *args) with the labels, its last argument, keyed as in
        __call__; that never equals an expression's key.  Kept for the round
        only, if it read an approximation."""
        key = key or ((rule, *args[:-1], len(args[-1])) if self.sized else (rule, *args))
        cached = self.cache.get(key)
        if cached is None and self.memo.round:
            cached = self.memo.reused(key)
        if cached is not None:
            return cached
        mark = len(self.memo.read)
        return self.memo.store(key, self.combine(rule(self, *args)), mark)

    def shift(self, chi, n: int):
        """The one map equal to chi.shift(n) of this fold, made once per
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
        raise InadmissibleCompositionError


def _prod(fold, left, right, labels: frozenset):
    for part, rest, weight in fold.subsets(labels):
        lefts = fold(left, part)
        if lefts:
            yield fold.makes.prod, [lefts, fold(right, rest)], weight


def _round(fold, base, j: int, labels: frozenset):
    """b^j on labels as chains: round 0 is the unit on no labels, round j
    links b on a subset to round j - 1 on the rest, so round 1 links b on
    all labels only, though b is folded on every subset, in the same order."""
    if j == 0:
        yield from _RULES[One](fold, None, labels)
        return
    for part, rest, weight in fold.subsets(labels):
        firsts = fold(base, part)
        if firsts and (j > 1 or not rest):
            yield fold.makes.link, [firsts, fold.folded(_round, base, j - 1, rest)], weight


def _rounds(fold, base, k: int, labels: frozenset):
    """Round k of b on labels, every round j < k built upward beforehand on
    every subset of labels (one per size, in the count fold): a loop, not
    recursion, so exponents in the thousands stay within the interpreter's
    recursion limit, and round j + 1 finds round j cached.  Below k = 2
    there is no round to build beforehand, and no walk is made."""
    parts = [part for part, _rest, _weight in fold.subsets(labels)] if k > 1 else ()
    for j in range(1, k):
        for part in parts:
            fold.folded(_round, base, j, part)
    return fold.folded(_round, base, k, labels)


def _power(fold, expr: Power, labels: frozenset):
    """b^k as b * b^(k-1): each structure is made once, from its chain."""
    yield fold.makes.power, [_rounds(fold, expr.base, expr.exponent, labels)], 1


def _compose(fold, expr: Compose, labels: frozenset):
    """Compositions in text order: per partition, the inner structures vary
    slowest, block by block, and the outer structure fastest."""
    _check_admissible(fold, expr)
    for blocks, weight in fold.partitions(labels):
        inner = [fold(expr.inner, b) for b in blocks]
        if all(inner):
            outer = fold(expr.outer, frozenset(min(b) for b in blocks))
            yield fold.makes.compose(blocks), [*inner, outer], weight


def _ref(fold, expr: Ref, labels: frozenset):
    n = len(labels)
    body = fold.env.lookup(expr.name)
    error = f"recursion for {expr.name!r} did not stabilize on {n} labels after {n + 2} rounds"
    step = partial(fold, body, labels)
    key = (expr, len(labels)) if fold.sized else (expr, labels)
    yield _same, [fold.memo.solve(key, fold.combine(()), n + 2, step, error)], 1


def _heads(fold, base, k: int, labels: frozenset):
    """b^k on labels as its k factors, the first chi(1) slots of a sequence."""
    yield fold.makes.slots, [_rounds(fold, base, k, labels)], 1


def _sequences(fold, base, chi, labels: frozenset, kept=True):
    """The slot sequences of park(base, chi) on labels, by slot peeling:
    the first chi(1) slots are a power structure on a non-empty subset of
    n labels (or on nothing, when labels is empty), and the rest a slot
    sequence on the other labels for rho_n(m) = chi(n+m) - chi(1), cached
    if kept and otherwise folded for this call only."""
    k = chi(1)
    if not labels:
        yield _same, [fold.folded(_heads, base, k, labels)], 1
        return
    n = 0
    for first, rest, weight in islice(fold.subsets(labels), 1, None):  # non-empty, by size
        heads = fold.folded(_heads, base, k, first)
        if not heads:
            continue
        if len(first) > n:  # shifted once some head exists, as series slot peeling does
            n = len(first)
            shifted = fold.shift(chi, n)
        tails = (fold.folded(_sequences, base, shifted, rest) if kept
                 else fold.combine(_sequences(fold, base, shifted, rest)))
        if tails and (rest or shifted(1)):
            yield tuple.__add__, [heads, tails], weight
        elif tails:  # the one tail, on no labels with no first slot, is empty: no separator
            yield _same, [heads], weight


def _park(fold, expr: Park, labels: frozenset):
    """The slot sequences' terms, each made a parking-like structure straight
    from its heads and tails (in the text fold, a template of their
    sequences, each joined); the sequences on labels are not kept.  Nor are
    their tails' if the park is the request, folded on this label set only,
    where each tail is reached once; parks inside a request share tails."""
    makes = fold.makes.park(expr.chi)  # by the number of factors
    kept = fold.root != (expr, labels)
    for _make, factors, weight in _sequences(fold, expr.base, expr.chi, labels, kept):
        yield makes[len(factors) - 1], list(map(fold.makes.joined, factors)), weight


def _tree(fold, expr: Tree, labels: frozenset):
    """Tree-like structures, T = base(X * T): the head set W, the assignment
    of the other labels to heads, the subtrees on each head's share, and the
    base structure on W, which varies fastest."""
    for heads, rest, weight in fold.subsets(labels):
        roots = fold(expr.base, heads)
        if not roots:
            continue
        make = fold.makes.tree(tuple(sorted(heads)))
        for shares, ways in fold.shares(len(heads), sorted(rest)):
            subtrees = [fold(expr, share) for share in shares]
            if all(subtrees):
                yield make, [*subtrees, roots], weight * ways


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
        (fold.makes.sum("L"), [fold(e.left, labels)], 1),
        (fold.makes.sum("R"), [fold(e.right, labels)], 1),
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
