import pytest

from parklike import SpeciesEnv, expr_to_text, parse_chi_text, parse_species
from parklike.errors import ParseError, SpeciesError, UnboundNameError
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
    Sum,
    Tree,
    X,
    Zero,
)


@pytest.fixture
def env():
    return SpeciesEnv.standard()


def test_primitives(env):
    assert parse_species("0", env) == Zero()
    assert parse_species("1", env) == One()
    assert parse_species("X", env) == X()
    assert parse_species("E", env) == E()
    assert parse_species("E+", env) == EPlus()


def test_precedence_power_binds_tightest(env):
    # ^ > @ > * > +
    assert parse_species("X^2*E", env) == Prod(Power(X(), 2), E())
    assert parse_species("E@X^2", env) == Compose(E(), Power(X(), 2))
    assert parse_species("X*E@X", env) == Prod(X(), Compose(E(), X()))
    assert parse_species("X + X*E", env) == Sum(X(), Prod(X(), E()))


def test_sum_and_product_are_left_associative(env):
    e = parse_species("X + E + 1", env)
    assert e == Sum(Sum(X(), E()), One())
    e = parse_species("X*X*E", env)
    assert e == Prod(Prod(X(), X()), E())


def test_composition_left_associative(env):
    assert parse_species("X@E@L", env) == Compose(Compose(X(), E()), Ref("L"))


def test_parens_override(env):
    assert parse_species("(X + E)*1", env) == Prod(Sum(X(), E()), One())
    assert parse_species("(1 + X)^3", env) == Power(Sum(One(), X()), 3)


def test_eplus_lexes_greedily(env):
    # "E+" is one token whenever '+' directly follows 'E'; a sum needs space.
    assert parse_species("E+ + E", env) == Sum(EPlus(), E())
    assert parse_species("E + E", env) == Sum(E(), E())
    with pytest.raises(ParseError):
        parse_species("E+1", env)


def test_builtin_calls(env):
    assert parse_species("tree(E)", env) == Tree(E())
    assert parse_species("restrict(E,3)", env) == Restrict(E(), 3)
    p = parse_species("park(L)", env)
    assert p == Park(Ref("L"), p.chi) and p.chi.is_identity
    p = parse_species("park(E, affine(2,0))", env)
    assert p.chi.key() == "affine(2,0)"
    p = parse_species("park(E, table(1,1,2,5))", env)
    assert p.chi.key() == "table(1,1,2,5)"


def test_ary_synthesized_on_demand(env):
    e = parse_species("Ary(3)", env)
    assert e == Ref("Ary(3)")
    assert env.knows("Ary(3)")


@pytest.mark.parametrize(
    "text, pos",
    [
        ("X*", 2),
        ("E+1", 2),
        ("((X)", 4),
        ("park()", 5),
        ("Ary(0)", 0),
        ("X^-1", 2),
        ("", 0),
        ("X $ E", 2),
    ],
)
def test_parse_errors_carry_positions(env, text, pos):
    with pytest.raises(ParseError) as exc:
        parse_species(text, env)
    assert exc.value.position == pos


def test_deep_parentheses_parse(env):
    # Each nesting level costs the parser a fixed number of stack frames.
    assert parse_species("(" * 150 + "X" + ")" * 150, env) == X()


def test_unbound_name(env):
    with pytest.raises(UnboundNameError):
        parse_species("Mystery", env)


def test_unbound_name_is_reported_where_it_is_read(env):
    with pytest.raises(UnboundNameError, match="'B'"):
        parse_species("B + (", env)


def test_extra_names_allow_forward_references(env):
    e = parse_species("1 + X*B^2", env, extra_names=("B",))
    assert e == Sum(One(), Prod(X(), Power(Ref("B"), 2)))


@pytest.mark.parametrize(
    "text",
    [
        "X*E + 1",
        "E+@X",
        "E+ + E",
        "X^2*E",
        "park(L)",
        "park(E, affine(2,0))",
        "park(E, table(1,1,2))",
        "tree(E)@E",
        "restrict(E, 3)",
        "Ary(2)",
        "(1 + X)^3",
        "X@E@L",
        "0 + 1",
    ],
)
def test_print_parse_round_trip(env, text):
    expr = parse_species(text, env)
    printed = expr_to_text(expr)
    assert parse_species(printed, env) == expr


def test_parse_chi_text():
    assert parse_chi_text("id").is_identity
    assert parse_chi_text("affine(2,3)")(2) == 7
    assert parse_chi_text("table(1,2,2)")(3) == 2
    with pytest.raises(SpeciesError):
        parse_chi_text("table(3,1)")


def test_env_bind_rejects_primitive_names(env):
    with pytest.raises(SpeciesError):
        env.bind("E", One())
    with pytest.raises(SpeciesError):
        env.bind("E+", One())


def test_env_copy_is_independent(env):
    fresh = env.copy()
    fresh.bind("Q", One())
    assert fresh.knows("Q") and not env.knows("Q")


def test_standard_envs_do_not_share_bindings():
    # Every standard environment copies one table of the standard
    # definitions: a binding, or an Ary(k) made on lookup, stays in its own.
    first, second = SpeciesEnv.standard(), SpeciesEnv.standard()
    first.bind("Q", One())
    first.bind("L", X())
    first.lookup("Ary(7)")
    assert first.names() == ["Ary(7)", "Comp", "Forest", "L", "Par", "Q", "Sub"]
    assert second.names() == SpeciesEnv.standard().names() == ["Comp", "Forest", "L", "Par", "Sub"]
    assert second.lookup("L") == Sum(One(), Prod(X(), Ref("L")))
