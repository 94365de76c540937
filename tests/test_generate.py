from math import comb

import pytest

from parklike import (
    Generator,
    SpeciesEnv,
    parse_species,
    serialize,
)
from parklike.errors import (
    DivergentRecursionError,
    InadmissibleCompositionError,
    UnboundNameError,
)
from parklike.chi import ChiMap
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
from parklike.generate import iter_set_partitions, iter_subsets
from parklike.structures import SetVal, canonical_labels
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


def test_relabeling_consistency_without_memoizer(env):
    expr = parse_species("E@E+ + L", env)
    plain = Generator(env, memoize=False)
    cached = Generator(env)
    direct = {serialize(s) for s in plain.raw(expr, frozenset({2, 5, 9}))}
    via_cache = {serialize(s) for s in cached.raw(expr, frozenset({2, 5, 9}))}
    assert direct == via_cache


def test_relabel_transports_generated_structures(gen):
    base = gen.generate(Ref("Comp"), {1, 2, 3})
    moved = [s.relabel({1: 4, 2: 5, 3: 6}) for s in base]
    expected = gen.generate(Ref("Comp"), {4, 5, 6})
    assert {serialize(s) for s in moved} == {serialize(s) for s in expected}


def test_contains_matches_the_serialized_lookup(gen):
    # Reference: membership of serialize(s) among the serialized structures
    # of the base on s's own (here shifted, gapped) label set.
    for n in range(5):
        labels = frozenset(range(7, 7 + 2 * n, 2))
        candidates = [s for _name, base in BASES for s in gen.raw(base, labels)]
        for _name, base in BASES:
            members = {serialize(t) for t in gen.raw(base, labels)}
            for s in candidates:
                assert gen.contains(base, s) == (serialize(s) in members)


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
