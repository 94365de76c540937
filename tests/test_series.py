from math import factorial

import pytest

from parklike import (
    EgfSeries,
    Generator,
    egf_of_species,
    lagrange_solve,
    parse_species,
    series_equal_prefix,
)
from parklike.errors import (
    DivergentRecursionError,
    InadmissibleCompositionError,
    SpeciesError,
)
from parklike.expr import Compose, E, Ref, SpeciesEnv


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


def test_counts_validate_length():
    with pytest.raises(SpeciesError):
        EgfSeries(2, (1, 0))


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
