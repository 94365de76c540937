from collections import Counter
from itertools import combinations_with_replacement
from math import factorial, isqrt
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from parklike import (
    ChiMap,
    EgfSeries,
    Generator,
    egf_of_species,
    lagrange_solve,
    parse_species,
    series,
    series_equal_prefix,
)
from parklike.errors import (
    ChiTableExhaustedError,
    DivergentRecursionError,
    InadmissibleCompositionError,
    SpeciesError,
)
from parklike.expr import (
    Compose,
    E,
    EPlus,
    One,
    Power,
    Prod,
    Ref,
    SpeciesEnv,
    Sum,
    X,
    Zero,
)


def egf(text, env, order=6):
    return egf_of_species(parse_species(text, env), env, order)


def cayley(n):
    """(n+1)^(n-1), which is 1 at n = 0."""
    return (n + 1) ** (n - 1) if n else 1


# -- species-to-series translation ---------------------------------------------


def test_primitives(env):
    assert egf("0", env, 3).counts == (0, 0, 0, 0)
    assert egf("1", env, 3).counts == (1, 0, 0, 0)
    assert egf("X", env, 3).counts == (0, 1, 0, 0)
    assert egf("E", env, 3).counts == (1, 1, 1, 1)
    assert egf("E+", env, 3).counts == (0, 1, 1, 1)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("L", (1, 1, 2, 6, 24)),
        ("Par", (1, 1, 2, 5, 15, 52)),
        ("Comp", (1, 1, 3, 13, 75, 541)),
        ("Forest", (1, 1, 3, 16, 125)),
        ("Sub", (1, 2, 4, 8, 16)),
        ("X^2", (0, 0, 2, 0)),
        ("X + E", (1, 2, 1, 1)),
        ("restrict(L, 2)", (0, 0, 2, 0)),
        # Bench-scale orders, against closed forms.
        ("tree(Sub)", tuple(2**n * cayley(n) for n in range(35))),
        (
            "park(E, affine(2,0))",
            tuple(2 * (2 * n + 2) ** (n - 1) if n else 1 for n in range(17)),
        ),
        ("Forest", tuple(cayley(n) for n in range(25))),
        ("Ary(2)", tuple(factorial(2 * n) // factorial(n + 1) for n in range(35))),
        # An exponent far past the recursion limit.
        ("E^3000", (1, 3000, 3000**2, 3000**3)),
    ],
)
def test_known_series(env, text, expected):
    assert egf(text, env, len(expected) - 1).counts == expected


def test_counts_accessors(env):
    s = egf("L", env, 4)
    assert s.order == 4
    assert s.count(3) == 6


def test_compose_admissibility(env):
    with pytest.raises(InadmissibleCompositionError):
        egf_of_species(Compose(E(), E()), env, 3)


def test_divergent_recursion():
    env = SpeciesEnv.standard()
    env.bind("S", parse_species("S + X", env, extra_names=("S",)))
    with pytest.raises(DivergentRecursionError):
        egf("S", env, 2)


@pytest.mark.parametrize(
    "definitions, error",
    [
        (("A:=1+A",), "series for 'A' did not stabilize at order 3 after 5 rounds"),
        (("A:=1+B", "B:=A"), "series for 'A' did not stabilize at order 3 after 5 rounds"),
        (("A:=X+B", "B:=A"), "series for 'A' did not stabilize at order 3 after 5 rounds"),
    ],
)
def test_divergent_recursion_error_text(defined, definitions, error):
    with pytest.raises(DivergentRecursionError) as info:
        egf("A", defined(*definitions), 3)
    assert str(info.value) == error


@pytest.mark.parametrize("definitions", [("A:=A",), ("A:=E*A",)])
def test_recursion_without_a_base_case_is_the_zero_series(defined, definitions):
    assert egf("A", defined(*definitions), 3).counts == (0, 0, 0, 0)


def diverges(order):
    return f"series for 'A' did not stabilize at order {order} after {order + 2} rounds"


def zero_series(order):
    return (0,) * (order + 1)


# Verdicts word for word at orders 0, 3 and 12.  A:=A and A:=E*A take plain
# rounds (J_0 = 1), A:=1+A*A one Newton round and then plain ones (J = 2A),
# and the mutual pairs have no derivative at all.
@pytest.mark.parametrize("order", [0, 3, 12])
@pytest.mark.parametrize(
    "definitions, verdict",
    [
        (("A:=A",), zero_series),
        (("A:=E*A",), zero_series),
        (("A:=1+A",), diverges),
        (("A:=1+A*A",), diverges),
        (("A:=1+B", "B:=A"), diverges),
        (("A:=X+B", "B:=A"), lambda n: zero_series(n) if n == 0 else diverges(n)),
    ],
)
def test_recursion_verdicts_are_pinned(defined, definitions, verdict, order):
    expected = verdict(order)
    if isinstance(expected, tuple):
        assert egf("A", defined(*definitions), order).counts == expected
        return
    with pytest.raises(DivergentRecursionError) as info:
        egf("A", defined(*definitions), order)
    assert str(info.value) == expected


@pytest.mark.parametrize(
    "text, order, result",
    [
        ("park(E, table(1,2))", 1, (1, 1)),
        ("park(E, table(1,2))", 2, "chi table(1,2) has 2 entries, needed chi(3)"),
        ("park(E, table(1,2))", 12, "chi table(1,2) has 2 entries, needed chi(3)"),
        ("park(E, table(1,1,2,5))", 3, (1, 1, 1, 4)),
        ("park(E, table(1,1,2,5))", 4, "chi table(1,1,2,5) has 4 entries, needed chi(5)"),
        ("park(E, table(1,1,2,5))", 12, "chi table(1,1,2,5) has 4 entries, needed chi(5)"),
        # The first map that runs out is the one slot peeling meets first
        # depth-first: here chi(4), three shifts by 1 deep, not chi(6) at the
        # top, where the base's power skips from n = 1 to n = 5.
        ("park(X+restrict(E,5), table(1,2,3))", 2, (0, 0, 0)),
        ("park(X+restrict(E,5), table(1,2,3))", 3, "chi table(1,2,3) has 3 entries, needed chi(4)"),
        ("park(X+restrict(E,5), table(1,2,3))", 12, "chi table(1,2,3) has 3 entries, needed chi(4)"),
    ],
)
def test_table_exhaustion_texts_are_pinned(env, text, order, result):
    if isinstance(result, tuple):
        assert egf(text, env, order).counts == result
        return
    with pytest.raises(ChiTableExhaustedError) as info:
        egf(text, env, order)
    assert str(info.value) == result


def outcome(route):
    try:
        return route()
    except SpeciesError as error:
        return type(error), str(error)


def test_short_chi_tables_give_one_answer_on_both_routes(env):
    # Generation shifts chi by n only once a first block on n labels has a
    # head, as slot peeling does only where p_n != 0: both routes read the
    # same table entries, and name the same chi(m) when the table runs out.
    tables = [t for k in (1, 2, 3) for t in combinations_with_replacement(range(4), k)]
    for base in ("E", "X", "L"):
        for table in tables:
            expr = parse_species(f"park({base}, table({','.join(map(str, table))}))", env)
            gen = Generator(env)
            for n in range(4):
                generated = outcome(lambda: gen.count(expr, n))
                assert generated == outcome(lambda: egf_of_species(expr, env, n).count(n)), (
                    base, table, n
                )


def test_counts_validate_length():
    with pytest.raises(SpeciesError):
        EgfSeries(2, (1, 0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: EgfSeries(-1, ()),
        lambda: lagrange_solve(EgfSeries(2, (1, 1, 1)), -1),
        lambda: series.park_by_peeling(EgfSeries(2, (1, 1, 1)), ChiMap.identity(), -1),
        lambda: egf_of_species(E(), None, -1),
    ],
    ids=["EgfSeries", "lagrange_solve", "park_by_peeling", "egf_of_species"],
)
def test_negative_order_is_rejected(make):
    with pytest.raises(SpeciesError) as info:
        make()
    assert str(info.value) == "series order must be >= 0, got -1"


# -- Lagrange inversion ----------------------------------------------------------


def test_lagrange_constant_base():
    one = EgfSeries(4, (1, 0, 0, 0, 0))
    assert lagrange_solve(one, 4).counts == (1, 0, 0, 0, 0)


def test_lagrange_exponential_base(env):
    got = lagrange_solve(egf("E", env, 6), 6)
    assert got.counts == (1, 1, 3, 16, 125, 1296, 16807)


def test_lagrange_doubled_exponential(env):
    got = lagrange_solve(egf("Sub", env, 5), 5)
    assert got.counts == tuple(2**n * (n + 1) ** (n - 1) if n else 1 for n in range(6))


def test_lagrange_agrees_with_fixed_point(env):
    # independent route: solve T = E@(X*T) by plain iteration
    fix = SpeciesEnv.standard()
    fix.bind("T", parse_species("E@(X*T)", fix, extra_names=("T",)))
    assert series_equal_prefix(
        lagrange_solve(egf("E", env, 8), 8), egf("T", fix, 8), 8
    )


def lagrange_by_powers(a):
    """T_n = (A^(n+1))_n / (n+1), one full product per n: the oracle."""
    out, power = [], a
    for n in range(len(a)):
        out.append(series._exact(power[n], n + 1, n))
        power = series._mul(power, a)
    return out


coefficients = st.one_of(st.just(0), st.integers(0, 5), st.integers(0, 10**20))


@given(st.lists(coefficients, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_lagrange_agrees_with_one_power_per_coefficient(a):
    assert series._lagrange(a) == lagrange_by_powers(a)


# N + 1 on both sides of each turn of the baby/giant split.
@pytest.mark.parametrize("length", [1, 2, 4, 5, 9, 10, 16, 17, 36, 37])
@pytest.mark.parametrize(
    "pattern", [[1], [0, 1], [3, 1, 0, 2], [2, 0, 0, 0, 0, 7]], ids=["E", "X-led", "dense", "sparse"]
)
def test_lagrange_at_the_split_turns(length, pattern):
    a = (pattern * length)[:length]
    assert series._lagrange(a) == lagrange_by_powers(a)


@pytest.mark.parametrize("order", [34, 99, 150])
def test_lagrange_takes_about_two_root_n_products(env, monkeypatch, order):
    # One power per coefficient would be order + 1 products.
    base = egf("E", env, order)
    calls = []
    mul = series._mul
    monkeypatch.setattr(series, "_mul", lambda a, b: calls.append(1) or mul(a, b))
    assert lagrange_solve(base, order).counts == tuple(cayley(n) for n in range(order + 1))
    assert len(calls) <= 2 * (isqrt(order) + 1) + 1  # 2 ceil(sqrt(order + 1)) + 1


def test_composition_builds_no_power_past_the_outers_last_coefficient(env, monkeypatch):
    # X^2@(E+) reads only inner^2: (e^x - 1)^2 counts 2^n - 2 for n >= 1.
    calls = []
    mul = series._mul
    monkeypatch.setattr(series, "_mul", lambda a, b: calls.append(1) or mul(a, b))
    assert egf("X^2@(E+)", env, 200).counts == tuple(2**n - 2 if n else 0 for n in range(201))
    assert len(calls) <= 3
    # restrict(L,3)@(E+) is (e^x - 1)^3, 3! S(n, 3) structures on n labels.
    assert egf("restrict(L,3)@(E+)", env, 200).counts == tuple(
        3**n - 3 * 2**n + 3 if n else 0 for n in range(201)
    )


# -- the exp rule, Newton rounds and slot peeling against other routes -------------

leaves = st.sampled_from([Zero(), One(), X(), E(), EPlus(), Ref("L"), Ref("Par"), Ref("Sub")])
species = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda p: Sum(*p)),
        st.tuples(sub, sub).map(lambda p: Prod(*p)),
        st.tuples(sub, st.integers(min_value=0, max_value=3)).map(lambda p: Power(*p)),
    ),
    max_leaves=4,
)
# X*G and E+*G have no structure on the empty set, so they compose.
inners = st.one_of(species.map(lambda g: Prod(X(), g)), species.map(lambda g: Prod(EPlus(), g)))


@given(inners)
@settings(max_examples=60, deadline=None)
def test_exp_rule_agrees_with_the_general_composition(inner):
    # A Sum outer takes the general rule, with the same counts as E or E+.
    env, order = SpeciesEnv.standard(), 10
    for exp_outer, general_outer in ((E(), Sum(One(), EPlus())), (EPlus(), Sum(EPlus(), Zero()))):
        assert (
            egf_of_species(Compose(exp_outer, inner), env, order).counts
            == egf_of_species(Compose(general_outer, inner), env, order).counts
        )


def test_newton_rounds_agree_with_plain_rounds(defined):
    # Mutual recursion has no derivative, so A takes plain rounds; L takes
    # Newton rounds.
    assert egf("A", defined("A:=1+X*B", "B:=A"), 200).counts == tuple(
        factorial(n) for n in range(201)
    )


@pytest.mark.parametrize(
    "text, order, closed",
    [
        ("Forest", 100, cayley),
        ("Ary(2)", 150, lambda n: factorial(2 * n) // factorial(n + 1)),
        ("park(E)", 60, cayley),
        ("park(E)", 300, cayley),
        ("park(E, affine(3,1))", 60, lambda n: 4 * (4 + 3 * n) ** (n - 1) if n else 1),
        ("park(L)", 40, lambda n: factorial(2 * n) // factorial(n + 1)),
        ("park(E, affine(2,0))", 40, lambda n: 2 * (2 * n + 2) ** (n - 1) if n else 1),
        ("tree(E)", 200, cayley),
        ("tree(Sub)", 100, lambda n: 2**n * cayley(n)),
        ("tree(L)", 80, lambda n: factorial(2 * n) // factorial(n + 1)),
    ],
)
def test_closed_forms_at_large_orders(env, text, order, closed):
    assert egf(text, env, order).counts == tuple(closed(n) for n in range(order + 1))


@pytest.mark.parametrize(
    "text, order", [("L", 1700), ("Comp", 200), ("Forest", 100), ("Ary(2)", 150), ("Ary(3)", 100)]
)
def test_newton_rounds_settle_in_logarithmically_many(env, monkeypatch, text, order):
    # Plain rounds would take order + 2 rounds; a Newton round doubles the
    # number of settled coefficients.
    rounds = []
    newton = series._Evaluator._newton
    monkeypatch.setattr(
        series._Evaluator, "_newton", lambda ev, ref, body: rounds.append(ref) or newton(ev, ref, body)
    )
    egf(text, env, order)
    assert 2 <= len(rounds) <= order.bit_length() + 2


def test_an_inner_solve_takes_newton_rounds_within_an_outer_round(defined, monkeypatch):
    # The outer solve's approximation stays fixed for the inner solve's
    # rounds, so B's slope by its own approximation is read off B's body,
    # and a reused result that read only A's approximation is not a read of
    # B's own.
    rounds = Counter()
    newton = series._Evaluator._newton
    monkeypatch.setattr(
        series._Evaluator,
        "_newton",
        lambda ev, ref, body: rounds.update([ref.name]) or newton(ev, ref, body),
    )
    counts = egf("A", defined("A:=X*E@B", "B:=X*E@A"), 30).counts
    assert counts == (0,) + tuple(n ** (n - 1) for n in range(1, 31))
    assert rounds["B"] <= rounds["A"]
    rounds.clear()
    counts = egf("A", defined("A:=X+A*B", "B:=X+B*A"), 60).counts
    assert counts == egf("A", defined("A:=X+A*A"), 60).counts
    assert rounds["B"] <= ((60).bit_length() + 2) * rounds["A"]
    # Within a round, B is solved once, not once per mention of it.
    rounds.clear()
    egf("A", defined("A:=X+B*B*B*B+B", "B:=X+A*A*A"), 40)
    assert rounds["B"] <= rounds["A"]


def test_large_exponent_keeps_no_power_per_step(env):
    # Square-and-multiply holds a few count vectors, not one per exponent
    # step (400000 of them, about 150 MB).
    tracemalloc.start()
    try:
        counts = egf("E^400000", env, 2).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (1, 400000, 400000**2)
    assert peak < 2_000_000


# -- parking-like and tree-like series -------------------------------------------


def test_parking_series_tables(env):
    assert egf("park(Par)", env, 5).counts == (1, 1, 4, 29, 311, 4447)
    assert egf("park(Comp)", env, 5).counts == (1, 1, 5, 46, 631, 11586)
    assert egf("park(L)", env, 3).counts == (1, 1, 4, 30)


def test_tree_series(env):
    assert egf("tree(E)", env, 5).counts == (1, 1, 3, 16, 125, 1296)
    assert egf("park(E)", env, 5).counts == egf("tree(E)", env, 5).counts


def test_two_routes_to_doubled_parking(env):
    # Pairing consecutive slots matches chi(m) = 2m over E with the
    # subset-pair base at chi = id; the two series must agree.
    assert series_equal_prefix(
        egf("park(E, affine(2,0))", env, 5), egf("park(Sub)", env, 5), 5
    )


# -- parking series: Lagrange-Buermann for affine chi against slot peeling ---------

PARK_BASES = [
    "E", "E+", "X", "0", "1", "1+X", "X^2", "restrict(L,2)+1", "L", "Par", "Sub",
    "Comp", "Ary(2)", "E@(X+X)", "park(E)", "tree(L)", "Forest",
]
# chi = affine(a, c) for every a in 0..3 and c >= -a, so that chi(1) = a + c >= 0.
AFFINE = [(a, c) for a in range(4) for c in range(-a, 6)]


@pytest.mark.parametrize("index, text", enumerate(PARK_BASES), ids=PARK_BASES)
def test_buermann_agrees_with_slot_peeling(env, index, text):
    order = 9 + index % 6  # orders 9..14 across the bases
    base = egf(text, env, order)
    for a, c in AFFINE:
        chi = ChiMap.affine(a, c)
        peeled = series.park_by_peeling(base, chi, order).counts
        assert tuple(series._lagrange(list(base.counts), a, a + c)) == peeled, (a, c)
        assert egf(f"park({text}, {chi.key()})", env, order).counts == peeled, (a, c)


@pytest.mark.parametrize("text", ["E", "1+X", "X^2", "L", "Par", "tree(L)"])
def test_affine_parking_series_match_generation(env, text):
    gen = Generator(env)
    for a in range(4):
        for c in (-a, 0, 2):
            expr = parse_species(f"park({text}, {ChiMap.affine(a, c).key()})", env)
            counts = egf_of_species(expr, env, 3).counts
            assert counts == tuple(gen.count(expr, n) for n in range(4)), (a, c)


def test_parking_with_no_first_slots_is_the_unit_series(env):
    # chi(1) = 0: the empty structure only.
    for text in ("park(E, affine(1,-1))", "park(L, affine(3,-3))", "park(Par, affine(0,0))"):
        assert egf(text, env, 8).counts == (1,) + (0,) * 8


def test_constant_chi_parks_a_power(env):
    # chi(m) = 3 for every m: three slots, whatever the label count.
    assert egf("park(L, affine(0,3))", env, 10).counts == egf("L^3", env, 10).counts
    assert egf("park(E, affine(0,3))", env, 10).counts == tuple(3**n for n in range(11))


@pytest.mark.parametrize("order", [34, 99, 150])
@pytest.mark.parametrize("a, c", [(1, 0), (2, 0), (3, 1), (1, 2), (0, 3)])
def test_affine_parking_takes_about_two_root_n_products(env, monkeypatch, order, a, c):
    # Slot peeling would take order + 1 full products and an O(order^2) fill
    # per shifted map.
    s, m = a + c, isqrt(order) + 1
    calls = []
    mul = series._mul
    monkeypatch.setattr(series, "_mul", lambda x, y: calls.append(1) or mul(x, y))
    counts = egf(f"park(E, {ChiMap.affine(a, c).key()})", env, order).counts
    assert counts == tuple(s * (s + a * n) ** (n - 1) if n else 1 for n in range(order + 1))
    # k^j by squaring takes at most 2 (j.bit_length() - 1) products.  With
    # a = 0 the series is B^s alone; else _lagrange's bound, plus B^a, and
    # B^s and (B^a)^m unless s == a.
    if not a:
        bound = 2 * (s.bit_length() - 1)
    else:
        powers = a.bit_length() - 1
        if s != a:
            powers += s.bit_length() - 1 + m.bit_length() - 1
        bound = 2 * m + 1 + 2 * powers
    assert len(calls) <= bound


def test_series_match_generation(env):
    gen = Generator(env)
    for text in ("park(E)", "park(L)", "tree(L)", "park(E, table(1,1,2,5,5))"):
        expr = parse_species(text, env)
        s = egf_of_species(expr, env, 4)
        for n in range(5):
            assert s.count(n) == gen.count(expr, n)


def test_all_counts_are_non_negative_ints(env):
    for text in ("L", "Par", "park(Comp)", "tree(Sub)", "E@E+"):
        for c in egf(text, env, 5).counts:
            assert isinstance(c, int) and c >= 0


# -- comparison helper ------------------------------------------------------------


def test_series_equal_prefix(env):
    a = egf("L", env, 5)
    b = egf("L", env, 3)
    assert series_equal_prefix(a, b, 3)
    with pytest.raises(SpeciesError):
        series_equal_prefix(a, b, 5)
    c = egf("Par", env, 3)
    assert not series_equal_prefix(b, c, 3)
