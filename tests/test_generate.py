import gc
import io
import json
import re
import tracemalloc
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from itertools import product
from math import comb

import pytest

from parklike import (
    Generator,
    SpeciesEnv,
    accepts,
    egf_of_species,
    park_to_tree,
    parse_species,
    serialize,
    validate_parking,
    validate_tree,
)
from parklike.cli import main
from parklike.errors import (
    ChiTableExhaustedError,
    DivergentRecursionError,
    InadmissibleCompositionError,
    SpeciesError,
    UnboundNameError,
)
from parklike.chi import ChiMap
from parklike.frozen import Keyed
from parklike.expr import (
    Compose,
    E,
    EPlus,
    One,
    Park,
    Power,
    Prod,
    Ref,
    Restrict,
    Tree,
    X,
    Zero,
)
from parklike.generate import (
    _Fold,
    _label_partitions,
    _label_shares,
    _label_splits,
    _round,
    _sequences,
    _size_partitions,
    _size_shares,
    _size_splits,
    iter_set_partitions,
    iter_subsets,
)
from parklike.structures import (
    UNIT,
    AtomVal,
    ComposeVal,
    ParkingLike,
    ProdVal,
    SetVal,
    SumVal,
    TreeLike,
    UnitVal,
    canonical_labels,
)
from parklike.verify import BASES


def counts(gen, expr, upto):
    return [gen.count(expr, n) for n in range(upto + 1)]


# -- primitive species --------------------------------------------------------


def test_zero_one_x(gen):
    assert counts(gen, Zero(), 3) == [0, 0, 0, 0]
    assert counts(gen, One(), 3) == [1, 0, 0, 0]
    assert counts(gen, X(), 3) == [0, 1, 0, 0]


def test_sets(gen):
    assert counts(gen, E(), 4) == [1, 1, 1, 1, 1]
    assert counts(gen, EPlus(), 4) == [0, 1, 1, 1, 1]


# -- named species from the standard environment -----------------------------


@pytest.mark.parametrize(
    "name, expected",
    [
        ("L", [1, 1, 2, 6, 24, 120]),  # linear orders
        ("Par", [1, 1, 2, 5, 15, 52]),  # set partitions (Bell)
        ("Comp", [1, 1, 3, 13, 75, 541]),  # ordered set partitions (Fubini)
        ("Sub", [1, 2, 4, 8, 16, 32]),  # subset pairs: 2^n
        ("Forest", [1, 1, 3, 16, 125, 1296]),  # rooted forests: (n+1)^(n-1)
        ("Ary(2)", [1, 1, 4, 30, 336, 5040]),  # binary trees: n! * Catalan(n)
    ],
)
def test_standard_species_counts(gen, name, expected):
    assert counts(gen, Ref(name), 5) == expected


def test_generate_returns_sorted_structures(gen):
    structures = gen.generate(Ref("Par"), {1, 2, 3})
    texts = [serialize(s) for s in structures]
    assert len(texts) == 5
    assert texts == sorted(texts)
    assert len(set(texts)) == len(texts)


def test_module_level_generate_and_count(env):
    assert len(Generator(env).generate(parse_species("L", env), {4, 7})) == 2
    assert Generator(env).count(parse_species("E@E+", env), 4) == 15


# -- combinator laws ----------------------------------------------------------


def test_product_binomial_convolution(gen):
    left, right = Ref("L"), E()
    for n in range(6):
        expected = sum(
            comb(n, k) * gen.count(left, k) * gen.count(right, n - k)
            for k in range(n + 1)
        )
        assert gen.count(Prod(left, right), n) == expected


def test_power_of_sets_counts_functions(gen):
    # sequences of k disjoint sets covering [n] = functions [n] -> [k]
    for k in range(4):
        for n in range(6):
            assert gen.count(Power(E(), k), n) == k**n


def test_power_zero_is_one(gen):
    assert counts(gen, Power(Zero(), 0), 2) == [1, 0, 0]


def test_restrict_masks_exactly(gen):
    for n in range(5):
        assert gen.count(Restrict(E(), 2), n) == (1 if n == 2 else 0)
        assert gen.count(Restrict(Ref("L"), 3), n) == (6 if n == 3 else 0)


def test_compose_requires_empty_free_inner(gen):
    with pytest.raises(InadmissibleCompositionError):
        gen.count(Compose(E(), E()), 2)
    with pytest.raises(InadmissibleCompositionError):
        gen.count(Compose(X(), One()), 0)


def test_compose_counts(gen):
    # E @ E+ is set partitions, X @ X is a lone singleton
    assert counts(gen, Compose(E(), EPlus()), 4) == [1, 1, 2, 5, 15]
    assert counts(gen, Compose(X(), X()), 2) == [0, 1, 0]


# -- recursion ----------------------------------------------------------------


def test_divergent_recursion_detected():
    env = SpeciesEnv.standard()
    env.bind("S", parse_species("S + X", env, extra_names=("S",)))
    with pytest.raises(DivergentRecursionError):
        Generator(env).count(Ref("S"), 1)


@pytest.mark.parametrize(
    "definitions, n, error",
    [
        (("A:=1+A",), 0, "recursion for 'A' did not stabilize on 0 labels after 2 rounds"),
        (("A:=1+B", "B:=A"), 0, "recursion for 'A' did not stabilize on 0 labels after 2 rounds"),
        (("A:=X+B", "B:=A"), 1, "recursion for 'A' did not stabilize on 1 labels after 3 rounds"),
    ],
)
def test_divergent_recursion_error_text(defined, definitions, n, error):
    with pytest.raises(DivergentRecursionError) as info:
        Generator(defined(*definitions)).count(Ref("A"), n)
    assert str(info.value) == error


@pytest.mark.parametrize("definitions", [("A:=A",), ("A:=E*A",), ("A:=1+B", "B:=A")])
def test_recursion_without_a_base_case_is_empty_where_it_stabilizes(defined, definitions):
    # The least fixed point of A = A and of A = E*A is the empty species; the
    # mutual pair diverges only on no labels.
    gen = Generator(defined(*definitions))
    assert [gen.count(Ref("A"), n) for n in range(1, 4)] == [0, 0, 0]


def test_unbound_ref_raises(gen):
    with pytest.raises(UnboundNameError):
        gen.count(Ref("Ghost"), 1)


def test_mutual_recursion():
    # Even/odd-length linear orders defined in terms of each other.
    env = SpeciesEnv.standard()
    env.bind("Ev", parse_species("1 + X*Od", env, extra_names=("Ev", "Od")))
    env.bind("Od", parse_species("X*Ev", env, extra_names=("Ev", "Od")))
    gen = Generator(env)
    assert [gen.count(Ref("Ev"), n) for n in range(5)] == [1, 0, 2, 0, 24]
    assert [gen.count(Ref("Od"), n) for n in range(5)] == [0, 1, 0, 6, 0]


def test_user_defined_binary_trees():
    env = SpeciesEnv.standard()
    env.bind("B", parse_species("1 + X*B^2", env, extra_names=("B",)))
    gen = Generator(env)
    assert [gen.count(Ref("B"), n) for n in range(5)] == [1, 1, 4, 30, 336]


# -- functoriality and memoization -------------------------------------------


def test_counts_depend_only_on_size(gen):
    assert len(gen.raw(Ref("Par"), frozenset({10, 20, 30}))) == 5
    assert len(gen.raw(Ref("Par"), frozenset({-1, 0, 99}))) == 5


def test_a_warm_memo_lists_as_a_fresh_one(env):
    # The memo is keyed by label set: results cached on other sets, some
    # overlapping {2, 5, 9} and some inside it, leave its listing unchanged.
    expr = parse_species("E@E+ + L", env)
    warm = Generator(env)
    for labels in ({1, 2, 3}, {2, 5}, {5, 9}):
        warm.raw(expr, labels)
        warm.texts(expr, labels)
    fresh, labels = Generator(env), frozenset({2, 5, 9})
    assert [serialize(s) for s in warm.raw(expr, labels)] == [serialize(s) for s in fresh.raw(expr, labels)]
    assert warm.texts(expr, labels) == fresh.texts(expr, labels)


def test_a_listing_is_the_callers_to_change(env):
    # Cleared, reversed or grown, a listing leaves the memo's own alone: the
    # repeat request and a larger one that reuses it list as a fresh Generator.
    warm, fresh = Generator(env), Generator(env)
    pair = Prod(E(), E())
    for spaced in (False, True):
        warm.raw(E(), {1}).clear()
        warm.raw(pair, {1, 2}).reverse()
        warm.texts(E(), {2}, spaced).append("extra")
        warm.texts(pair, {1, 2}, spaced).clear()
        for expr, labels in [(E(), {1}), (E(), {2}), (pair, {1, 2}), (pair, {1, 2, 3})]:
            assert warm.raw(expr, labels) == fresh.raw(expr, labels)
            assert warm.texts(expr, labels, spaced) == fresh.texts(expr, labels, spaced)
    assert len(warm.raw(pair, {1, 2, 3})) == 8


def test_relabel_transports_generated_structures(gen):
    base = gen.generate(Ref("Comp"), {1, 2, 3})
    moved = [s.relabel({1: 4, 2: 5, 3: 6}) for s in base]
    expected = gen.generate(Ref("Comp"), {4, 5, 6})
    assert {serialize(s) for s in moved} == {serialize(s) for s in expected}


# Every base of the verify suite plus one expression per remaining operator.
MEMBERSHIP_EXPRS = [base for _name, base in BASES] + [
    Park(E(), ChiMap.identity()),
    Park(Ref("L"), ChiMap.affine(2, 0)),
    Tree(E()),
    Restrict(Ref("Par"), 2),
    Power(E(), 3),
    Prod(X(), Ref("L")),
]


def test_contains_matches_the_serialized_lookup(gen, env):
    # Reference: membership of serialize(s) among the serialized structures
    # of the expression on s's own (here shifted, gapped) label set.
    for n in range(5):
        labels = frozenset(range(7, 7 + 2 * n, 2))
        candidates = [
            (s, serialize(s)) for expr in MEMBERSHIP_EXPRS for s in gen.raw(expr, labels)
        ]
        for expr in MEMBERSHIP_EXPRS:
            members = {serialize(t) for t in gen.raw(expr, labels)}
            for s, text in candidates:
                assert accepts(expr, s, env) == (text in members)


def test_accepts_deep_powers(env):
    # One interpreter frame per exponent step would pass the recursion limit.
    s = UNIT
    for _ in range(3000):
        s = ProdVal(SetVal(frozenset()), s)
    assert accepts(Power(E(), 3000), s, env)
    assert not accepts(Power(E(), 2999), s, env)


def test_accepts_raises_generations_admissibility_error(env):
    expr = Compose(E(), E())
    with pytest.raises(InadmissibleCompositionError) as generated:
        Generator(env).count(expr, 1)
    s = ComposeVal(SetVal({1}), ((frozenset({1}), SetVal({1})),))
    with pytest.raises(InadmissibleCompositionError) as accepted:
        accepts(expr, s, env)
    assert str(accepted.value) == str(generated.value)


def several_slot_parking(env, labels):
    """A park(Par) parking on labels with a slot on more than one label."""
    parks = Generator(env).raw(Park(Ref("Par"), ChiMap.identity()), labels)
    return next(p for p in parks if any(len(s.underlying()) > 1 for s in p.sequence))


@pytest.mark.parametrize(
    "check",
    [
        lambda p, env: validate_parking(p, Ref("Par"), env),
        lambda p, env: validate_tree(park_to_tree(p), Ref("Par"), env),
        lambda p, env: accepts(Park(Ref("Par"), ChiMap.identity()), p, env),
        lambda p, env: accepts(Tree(Ref("Par")), park_to_tree(p), env),
    ],
    ids=["validate_parking", "validate_tree", "accepts-park", "accepts-tree"],
)
def test_one_validation_builds_one_generator(env, monkeypatch, check):
    p = several_slot_parking(env, {1, 2, 3, 4})
    assert len(p.sequence) == 5
    built = []
    init = Generator.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Generator, "__init__", counted)
    assert check(p, env)
    assert len(built) == 1


def test_validation_without_a_base_builds_no_generator(env, monkeypatch):
    p = several_slot_parking(env, {1, 2, 3})
    monkeypatch.setattr(Generator, "__init__", None)  # any construction fails
    assert validate_parking(p) and validate_tree(park_to_tree(p))


def test_equal_substructures_are_one_object(gen):
    # Each label set is built from the memoized lists of its subsets, so an
    # equal substructure anywhere in a listing is the same Python object.
    labels = frozenset(range(11, 17))
    slots = [s for p in gen.raw(Park(E(), ChiMap.identity()), labels) for s in p.sequence]
    assert all(isinstance(s, SetVal) for s in slots)
    assert len({id(s) for s in slots}) == len(set(slots)) == 64

    subtrees, stack = [], list(gen.raw(Tree(E()), labels))
    while stack:
        children = [sub for _head, sub in stack.pop().children]
        subtrees.extend(children)
        stack.extend(children)
    assert len({id(t) for t in subtrees}) == len(set(subtrees)) == 10023


# -- iteration helpers --------------------------------------------------------


def test_iter_subsets_order():
    subs = list(iter_subsets({1, 2, 3}))
    assert subs[0] == frozenset()
    assert subs[-1] == {1, 2, 3}
    assert len(subs) == 8
    sizes = [len(s) for s in subs]
    assert sizes == sorted(sizes)


def test_iter_set_partitions_counts_are_bell():
    for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in iter_set_partitions(canonical_labels(n))) == bell


def test_iter_set_partitions_blocks_ordered_by_min():
    for part in iter_set_partitions({1, 2, 3, 4}):
        mins = [min(b) for b in part]
        assert mins == sorted(mins)
        assert mins[:1] == [1]


def refinement_partitions(labels):
    """The classical refinement recursion, as a test-local oracle: each label
    in turn joins every open block, then opens a new one."""
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


def test_iter_set_partitions_is_lazy():
    # All 40-label partitions would never finish; the first is one block.
    assert next(iter_set_partitions(range(1, 41))) == (frozenset(range(1, 41)),)


@pytest.mark.parametrize("n", range(9))
def test_iter_set_partitions_order_is_the_refinement_recursion(n):
    labels = {3 * i + 2 for i in range(n)}  # not 1..n: positions are not labels
    assert list(iter_set_partitions(labels)) == list(refinement_partitions(labels))


# -- the cyclic collector ---------------------------------------------------------


@contextmanager
def collector(enabled: bool):
    """Run the block with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


def test_iter_set_partitions_leaves_no_cyclic_garbage():
    gc.collect()
    with collector(False):
        for _ in iter_set_partitions(canonical_labels(5)):
            pass
        assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("method, arg", [("generate", {1, 2}), ("raw", {1, 2}), ("count", 2)])
def test_generation_leaves_the_collector_as_it_found_it(env, enabled, method, arg):
    with collector(enabled):
        getattr(Generator(env), method)(Ref("Par"), arg)
        assert gc.isenabled() is enabled
        with pytest.raises(InadmissibleCompositionError):
            getattr(Generator(env), method)(Compose(E(), E()), arg)
        assert gc.isenabled() is enabled


def test_listing_runs_no_collection(env):
    # 16,807 trees and their sub-results would set off many collections of
    # the young generation, and full ones over everything built so far.  The
    # hook counts only collections that start while the trees are built: the
    # one the pause puts off runs at some allocation after the collector is
    # back on, which this test does not pin.  The rules recurse through the
    # fold itself, so only the outermost call goes through the wrapper.
    gen, expr = Generator(env), Tree(E())
    build = gen._lists
    building, started = False, []

    def outermost(expr, labels):
        nonlocal building
        building = True
        try:
            return build(expr, labels)
        finally:
            building = False

    def hook(phase, info):
        if phase == "start" and building:
            started.append(info["generation"])

    gen._lists = outermost
    with collector(True):
        gc.callbacks.append(hook)
        try:
            assert len(gen.raw(expr, canonical_labels(6))) == 7**5
        finally:
            gc.callbacks.remove(hook)
    assert started == []


# -- counting -------------------------------------------------------------------


COUNTED = [
    ("park(E)", 7),
    ("park(E, affine(2,0))", 5),
    ("park(E, table(1,1,2,5,5,5))", 5),
    ("park(L)", 5),
    ("park(Par)", 5),
    ("tree(E)", 6),
    ("tree(Comp)", 5),
    ("L", 7),
    ("Forest", 6),
    ("Ary(2)", 5),
    ("(E+)^3", 6),
    ("E@E+", 5),
    ("restrict(Par,3) + Sub*X", 4),
    ("0 + 1", 2),
]


def test_counting_builds_no_structure(env, monkeypatch):
    # The count fold multiplies the factor counts of each term and never
    # calls a term's constructor; the series route gives the counts.
    def refuse(self, *args):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (UnitVal, SetVal, AtomVal, SumVal, ProdVal, ComposeVal, ParkingLike, TreeLike):
        monkeypatch.setattr(cls, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a SetVal"):
        SetVal({1})
    for text, n in COUNTED:
        expr = parse_species(text, env)
        gen = Generator(env)
        counts = [gen.count(expr, k) for k in range(n + 1)]
        assert counts == list(egf_of_species(expr, env, n).counts), text


def test_park_lookups_hit_by_identity(env, monkeypatch):
    # One Power node per (base, exponent) and one shifted map per (value,
    # origin): no memo lookup compares two equal but distinct keys.
    calls = []
    equal = Keyed.__eq__

    def counted(self, other):
        calls.append(type(self).__name__)
        return equal(self, other)

    monkeypatch.setattr(Keyed, "__eq__", counted)
    park = Park(E(), ChiMap.identity())
    assert len(Generator(env).raw(park, canonical_labels(6))) == 7**5
    assert [name for name in calls if name in ("Power", "ChiMap")] == []
    assert Generator(env).count(park, 6) == 7**5
    assert [name for name in calls if name in ("Power", "ChiMap")] == []


@pytest.mark.parametrize("text, n", [("park(E)", 6), ("Ary(2)", 8)])
def test_the_count_memo_holds_one_entry_per_size(env, text, n):
    # A count depends on the number of labels only, so the count fold keys
    # each expression, rule call and fixed-point solve by its label count.
    gen = Generator(env)
    gen.count(parse_species(text, env), n)
    sizes = {}
    for key in gen._counts.cache:
        assert type(key[-1]) is int and 0 <= key[-1] <= n, key
        sizes.setdefault(key[:-1], set()).add(key[-1])
    assert sizes and max(map(len, sizes.values())) <= n + 1


@pytest.mark.parametrize(
    "text, n, expected",
    [
        ("L", 10, 3628800),  # 10!
        ("park(E)", 8, 9**7),  # (n+1)^(n-1)
        ("Ary(2)", 8, 40320 * 1430),  # n! times the Catalan number C_8
        ("Par", 12, 4213597),  # the Bell number B_12
        ("tree(E)", 9, 10**8),  # (n+1)^(n-1)
        ("E^3000", 8, 3000**8),  # each label picks one of the 3000 factors
    ],
)
def test_counts_at_sizes_past_the_listings(env, text, n, expected):
    assert Generator(env).count(parse_species(text, env), n) == expected


# -- the count fold's walks: one part per size pattern --------------------------


def _pairs(splits):
    """The (part, weight) pairs of a subset walk's splits."""
    return [(part, weight) for part, _rest, weight in splits]


def _walk_pairs(labels):
    """(list walk, count walk, the size pattern of a part) for each walk."""
    items = sorted(labels)

    def sizes(parts):
        return tuple(map(len, parts))

    yield _pairs(_label_splits(labels)), _pairs(_size_splits(labels)), len
    yield _label_partitions(labels), _size_partitions(labels), sizes
    for w in range(4):
        yield _label_shares(w, items), _size_shares(w, items), sizes


@pytest.mark.parametrize("n", range(8))
def test_count_walks_weigh_one_part_per_size_pattern(n):
    # The count walk gives the patterns in the order the list walk first
    # meets them, each on one of the list walk's parts, weighted by how many
    # of them share it.
    for listed, counted, pattern in _walk_pairs(canonical_labels(n)):
        parts = {}
        for part, one in listed:
            assert one == 1
            parts[part] = pattern(part)
        shared = Counter(parts.values())  # in first-met order
        weights = {}
        for part, weight in counted:
            assert part in parts
            weights[pattern(part)] = weight
        assert list(weights) == list(shared) and weights == shared


@pytest.mark.parametrize("n", range(1, 13))
def test_count_walks_take_one_part_per_size_pattern(n):
    # Work bounded by count, not by time: n + 1 subset sizes, 2^(n-1) block
    # size sequences (compositions of n) against Bell(n) partitions, and
    # C(n+w-1, w-1) share sizes against w^n assignments.
    labels = canonical_labels(n)
    assert len(list(_size_splits(labels))) == n + 1
    assert len(list(_size_partitions(labels))) == 2 ** (n - 1)
    for w in range(1, 5):
        assert len(list(_size_shares(w, sorted(labels)))) == comb(n + w - 1, w - 1)


# The walks that the one placement walk replaced, kept as oracles: head
# assignments by itertools.product, and the size patterns by a loop of their own.


def product_shares(w: int, rest: list):
    """Every assignment of the sorted labels rest to w heads, as the heads'
    shares, the last label's head varying fastest."""
    for assignment in product(range(w), repeat=len(rest)):
        shares = [[] for _ in range(w)]
        for label, h in zip(rest, assignment):
            shares[h].append(label)
        yield tuple(map(frozenset, shares)), 1


def size_patterns(n: int, sizes: tuple, grow: bool):
    """The part sizes reached by placing n labels one at a time, each joining
    part 0, 1, ... in turn and then, if grow, a part of its own, each tuple
    once, in the order that walk first reaches it."""
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


@pytest.mark.parametrize("n", range(7))
def test_label_shares_are_the_product_walk(n):
    labels = sorted({3 * i + 2 for i in range(n)})  # not 1..n: positions are not labels
    for w in range(5):
        assert list(_label_shares(w, labels)) == list(product_shares(w, labels)), w


@pytest.mark.parametrize("n", range(10))
def test_size_walks_give_the_reference_size_patterns(n):
    labels = {3 * i + 2 for i in range(n)}
    sizes = [tuple(map(len, blocks)) for blocks, _weight in _size_partitions(labels)]
    assert sizes == list(size_patterns(n, (), grow=True))
    for w in range(5):
        sizes = [tuple(map(len, shares)) for shares, _weight in _size_shares(w, sorted(labels))]
        assert sizes == list(size_patterns(n, (0,) * w, grow=False)), w


def first_meetings(monkeypatch, run):
    """Every (expression or rule call, label count) the folds are asked for,
    in the order first asked, then the error run raised, if any."""
    met = {}
    call, folded = _Fold.__call__, _Fold.folded

    def traced_call(fold, expr, labels):
        met.setdefault((expr, len(labels)))
        return call(fold, expr, labels)

    def traced_folded(fold, rule, *args, key=None):
        met.setdefault((rule, *args[:-1], len(args[-1])))
        return folded(fold, rule, *args, key=key)

    with monkeypatch.context() as patched:
        patched.setattr(_Fold, "__call__", traced_call)
        patched.setattr(_Fold, "folded", traced_folded)
        try:
            run()
        except SpeciesError as error:
            met.setdefault(str(error))
    return list(met)


@pytest.mark.parametrize(
    "definitions, text, n",
    [
        ((), "Par", 6),  # Compose
        ((), "tree(1 + restrict(E,2) + restrict(E,3))", 6),  # Tree heads and shares
        ((), "tree(Par)*L", 5),  # Prod
        ((), "(E+)^3", 5),  # Power rounds
        ((), "park(Par)", 4),  # Park slot peeling
        (("A:=X + park(A, table(1,2,4,5))*A",), "A", 4),
        (("A:=X+tree(A^2)",), "A", 5),
        (("A:=A+E+",), "E@A", 4),
        ((), "park(E, table(2))", 4),  # a shifted table runs out
        (("A:=X + park(A, affine(0,1))",), "A", 1),  # sequences read the approximation
        ((), "park(E, table(1,1,2)) * E^3", 3),  # tails with no slot; Power rounds
    ],
)
def test_counting_meets_each_size_where_listing_first_meets_it(
    defined, monkeypatch, definitions, text, n
):
    # The order of first meetings decides which chi entry, fixed-point solve
    # and error comes first; every walk of the count fold keeps it.
    env = defined(*definitions)
    expr = parse_species(text, env)
    listed = first_meetings(monkeypatch, lambda: Generator(env).raw(expr, canonical_labels(n)))
    counted = first_meetings(monkeypatch, lambda: Generator(env).count(expr, n))
    written = first_meetings(monkeypatch, lambda: Generator(env).texts(expr, canonical_labels(n)))
    assert counted == listed and written == listed


# -- the subset splits, the park tails and the shifted maps --------------------


def test_a_split_pairs_each_part_with_the_labels_not_in_it():
    labels = frozenset({2, 3, 5, 7, 11})
    listed = list(_label_splits(labels))
    assert _pairs(listed) == [(part, 1) for part in iter_subsets(labels)]
    assert all(rest == labels - part for part, rest, _weight in listed)
    # Each rest is an object of the same walk: one object per subset.
    assert len({id(s) for part, rest, _weight in listed for s in (part, rest)}) == 2**5
    # One part per size, the least labels, weighted by the subsets of its size.
    counted = list(_size_splits(labels))
    firsts, sizes = {}, Counter()
    for part in iter_subsets(labels):
        firsts.setdefault(len(part), part)
        sizes[len(part)] += 1
    assert _pairs(counted) == [(part, sizes[k]) for k, part in firsts.items()]
    assert all(rest == labels - part for part, rest, _weight in counted)


def test_nested_products_keep_no_subset_walk():
    # X*X*X lists nothing on 10 labels.  What is kept is the memo of X and
    # X*X on the 1,024 subsets; each walk is dropped when its rule is done
    # (1.8 MB traced on Python 3.11; keeping every walk, 3^10 splits, took 5.4 MB).
    out = _Counted()
    tracemalloc.start()
    try:
        with redirect_stdout(out):
            rc = main(["enumerate", "--expr", "X*X*X", "--n", "10", "--budget", "10"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and out.written == 0
    assert peak < 3_000_000, peak


@pytest.mark.parametrize("text", ["park(E)", "park(E)*X", "tree(park(E))", "park(park(E))"])
def test_each_park_tail_is_folded_once(env, monkeypatch, text):
    # A park that is the request itself is folded on one label set, where
    # each tail is reached from one head set, so its tails are not kept; a
    # park inside the request is folded on label sets that share tails, and
    # keeps them.
    folded = Counter()

    def counted(fold, base, chi, labels, *kept):
        if not kept:  # a tail's sequences, not the park's own
            folded[base, chi, labels] += 1
        return _sequences(fold, base, chi, labels, *kept)

    monkeypatch.setattr("parklike.generate._sequences", counted)
    expr = parse_species(text, env)
    listed = Generator(env).texts(expr, canonical_labels(4))
    assert folded and max(folded.values()) == 1, folded.most_common(1)
    monkeypatch.undo()
    assert listed == Generator(env).texts(expr, canonical_labels(4))


@pytest.mark.parametrize("text", ["park(E)", "(E+)^3"])
def test_round_one_links_the_whole_set_only(env, monkeypatch, text):
    # Round 0 of b^k is the unit on no labels, so a round-1 term on a part
    # short of the whole set would have an empty factor: none is made, and
    # round 0 is looked up on no labels only.
    rounds = []

    def recorded(fold, base, j, labels):
        terms = list(_round(fold, base, j, labels))
        rounds.append((j, terms))
        return terms

    monkeypatch.setattr("parklike.generate._round", recorded)
    expr = parse_species(text, env)
    gen = Generator(env)
    listed = gen.texts(expr, canonical_labels(5))
    firsts = [factors for j, terms in rounds if j == 1 for _make, factors, _weight in terms]
    assert firsts and all(all(factors) for factors in firsts)
    zeros = [key[-1] for key in gen._texts[False].cache if key[0] is recorded and key[2] == 0]
    assert zeros == [frozenset()]
    monkeypatch.undo()
    assert listed == Generator(env).texts(expr, canonical_labels(5))


def test_a_repeated_shift_builds_no_map(env, monkeypatch):
    # Looked up by the map's value and origin and the shift: an equal map
    # gets the same object within a fold; each fold holds its own table.
    gen = Generator(env)
    table = ChiMap.from_table((1, 2, 4, 5, 7))
    shifted = gen._lists.shift(table, 2)
    assert shifted == table.shift(2) and shifted.origin == (table, 2)
    others = [fold.shift(table, 2) for fold in (gen._counts, gen._texts[False])]
    assert all(other == shifted and other is not shifted for other in others)
    built = []
    init = ChiMap.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChiMap, "__init__", counted)
    equal = ChiMap("table", table=(1, 2, 4, 5, 7))
    built.clear()
    for fold, first in zip((gen._lists, gen._counts, gen._texts[False]), (shifted, *others)):
        assert fold.shift(table, 2) is first and fold.shift(equal, 2) is first
    assert built == []
    assert gen._lists._maps is not gen._counts._maps


def test_equal_shifted_tables_name_their_own_table(env):
    # table(1,2,3,4,5) shifted by 1 equals table(1,2,3,4); each, shifted and
    # run out, names the table that was written, in either order of asking.
    gen = Generator(env)
    long, short = ChiMap.from_table((1, 2, 3, 4, 5)), ChiMap.from_table((1, 2, 3, 4))
    peeled = gen._lists.shift(long, 1)
    assert peeled == short and peeled.origin == (long, 1)
    from_short, from_peeled = gen._lists.shift(short, 3), gen._lists.shift(peeled, 3)
    assert from_short == from_peeled and from_short is not from_peeled
    with pytest.raises(ChiTableExhaustedError, match=r"^chi table\(1,2,3,4\) has 4 entries, needed chi\(5\)$"):
        from_short(2)
    with pytest.raises(ChiTableExhaustedError, match=r"^chi table\(1,2,3,4,5\) has 5 entries, needed chi\(6\)$"):
        from_peeled(2)
    assert gen._lists.shift(peeled, 3) is from_peeled and gen._lists.shift(short, 3) is from_short
    # Another fold holds its own table, whose maps name their own tables too.
    other = gen._counts.shift(gen._counts.shift(long, 1), 3)
    assert other == from_peeled and other is not from_peeled
    assert gen._counts.shift(short, 3) is not from_short
    with pytest.raises(ChiTableExhaustedError, match=r"^chi table\(1,2,3,4,5\) has 5 entries, needed chi\(6\)$"):
        other(2)


@pytest.mark.parametrize(
    "text",
    [
        "park(E)",
        "park(L, affine(2,0))",
        "park(E, affine(1,-1))",  # chi(1) = 0: heads with no slot
        "park(E+, affine(0,1))",
        "park(Par, table(0,1,1,3,4))",
        "park(E, table(1,1,2,2,3))",  # tails whose shifted map has no first slot
        "park(X + E^2, table(2,2,3,5,6,8))",
        "park(E, table(1,2))",  # runs out
    ],
)
def test_park_texts_are_serialize_of_the_listing_in_order(env, text):
    expr = parse_species(text, env)
    for n in range(5):
        labels = canonical_labels(n)
        try:
            listed = [serialize(s) for s in Generator(env).raw(expr, labels)]
        except SpeciesError as error:
            with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                Generator(env).texts(expr, labels)
            continue
        assert Generator(env).texts(expr, labels) == listed, n
        spaced = Generator(env).texts(expr, labels, spaced=True)
        assert spaced == [json.dumps(json.loads(line), sort_keys=True) for line in listed], n


class _Counted(io.TextIOBase):
    """A stdout that counts what is written and keeps none of it."""

    written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)


def test_park_listing_peak_memory_is_within_twice_the_output():
    # The 16,807 lines (3.3 MB), their sorted copy and the memo on the
    # smaller label sets: park's own tails are folded per head, not kept.
    out = _Counted()
    tracemalloc.start()
    try:
        with redirect_stdout(out):
            rc = main(["enumerate", "--expr", "park(E)", "--n", "6", "--format", "jsonl"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and out.written == 3_307_214
    assert peak < 2 * out.written, peak / out.written
