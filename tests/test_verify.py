import pytest

from parklike import (
    Generator, SpeciesEnv, egf_of_species, lagrange_solve, run_suite, series, series_equal_prefix,
)
from parklike.errors import SpeciesError
from parklike.expr import Compose, Prod, Ref, Tree, X
from parklike.verify import (
    BASES,
    PROPERTY_CHECKS,
    REFERENCE_CHECKS,
    check_parking_three_routes,
)


def test_reference_suite_at_reduced_scale():
    report = run_suite("paper", max_n=2)
    assert report["suite"] == "paper"
    assert report["max_n"] == 2
    assert report["ok"] is True
    assert len(report["checks"]) == len(REFERENCE_CHECKS)
    for check in report["checks"]:
        assert check["ok"] is True, check
        assert check["name"] and check["detail"]


def test_properties_suite_at_reduced_scale():
    report = run_suite("properties", max_n=3)
    assert report["ok"] is True
    assert len(report["checks"]) == len(PROPERTY_CHECKS)


def test_all_suite_concatenates():
    report = run_suite("all", max_n=1)
    names = [c["name"] for c in report["checks"]]
    assert names == [n for n, _ in REFERENCE_CHECKS + PROPERTY_CHECKS]


def test_unknown_suite_rejected():
    with pytest.raises(SpeciesError):
        run_suite("everything")


def test_negative_max_n_rejected():
    # max_n = -1 would cap every check at no labels and report ok.
    with pytest.raises(SpeciesError):
        run_suite("all", max_n=-1)


def test_crashed_check_reports_as_failure(tmp_path):
    # an empty golden directory makes the example checks blow up, which must
    # surface as ok=False rather than an exception
    report = run_suite("paper", max_n=1, golden_dir=str(tmp_path))
    failing = {c["name"] for c in report["checks"] if not c["ok"]}
    assert "golden-listings" in failing
    assert report["ok"] is False


def test_three_routes_agree_at_order_60():
    # check_series_three_routes's routes at order 60 instead of its 12:
    # Lagrange inversion against the fixed point of TreeFix := base@(X*TreeFix),
    # which takes the exp rule and Newton rounds over E, plain rounds and the
    # general composition over the other bases, and generation to n = 2.
    env = SpeciesEnv.standard()
    for name, base in BASES:
        lag = lagrange_solve(egf_of_species(base, env, 60), 60)
        fix_env = env.copy()
        fix_env.bind("TreeFix", Compose(base, Prod(X(), Ref("TreeFix"))))
        fixed = egf_of_species(Ref("TreeFix"), fix_env, 60)
        assert series_equal_prefix(lag, fixed, 60), name
        gen = Generator(env)
        assert tuple(gen.count(Tree(base), n) for n in range(3)) == lag.counts[:3], name


def test_parking_three_routes_at_full_scale():
    # Lagrange-Buermann and slot peeling at order 12 and generation to n = 4,
    # for every base under id, affine(2,0), affine(1,2) and affine(0,3).
    ok, detail = check_parking_three_routes()
    assert ok, detail
    assert detail == "6 bases under 4 chi maps: order 12 series + counts to n<=4 agree"


def test_parking_three_routes_catch_a_wrong_exponent(monkeypatch):
    # Read with s = 1 always, Buermann still gives the id and tree series.
    lagrange = series._lagrange
    monkeypatch.setattr(series, "_lagrange", lambda b, a=1, s=1: lagrange(b, a, 1))
    ok, detail = check_parking_three_routes(max_n=2)
    assert not ok
    assert detail == "base E, chi affine(2,0): Buermann and slot peeling disagree"
