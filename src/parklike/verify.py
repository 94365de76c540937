"""Named verification checks over the whole library.

Each check returns (ok, detail) and is independently runnable; run_suite
groups them into a reference suite (known count sequences, golden listings,
worked examples, bijection and series cross-checks; selected on the command
line as "paper") and a properties suite (structural invariants).  max_n
lowers the scale of the generation-heavy checks — with max_n=None every
check runs at its full declared scale.

The reference listings live as JSON/JSONL files under data/golden; a
different directory can be supplied to point the suite at alternative
fixtures (or to prove that corrupted fixtures are caught).
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import combinations
from math import comb, factorial
from pathlib import Path

from .bijection import park_to_tree, tree_to_park
from .chi import ChiMap
from .errors import SpeciesError
from .expr import Compose, E, Park, Power, Prod, Ref, Restrict, SpeciesEnv, Tree, X
from .generate import Generator
from .parking import ParkingLike, is_parking_blocks, validate_parking
from .series import egf_of_species, lagrange_solve, series_equal_prefix
from .structures import SetVal, from_jsonable, serialize

BASES = (
    ("E", E()),
    ("L", Ref("L")),
    ("Par", Ref("Par")),
    ("Comp", Ref("Comp")),
    ("Sub", Ref("Sub")),
    ("Ary(2)", Ref("Ary(2)")),
)

_ID = ChiMap.identity()


def _cap(default: int, max_n) -> int:
    return default if max_n is None else min(default, max_n)


def _env(env) -> SpeciesEnv:
    return env if env is not None else SpeciesEnv.standard()


def _read_golden(golden_dir, name: str) -> str:
    if golden_dir is not None:
        return (Path(golden_dir) / name).read_text()
    return resources.files("parklike").joinpath(f"data/golden/{name}").read_text()


def _cayley(n: int) -> int:
    return 1 if n == 0 else (n + 1) ** (n - 1)


# -- reference suite -----------------------------------------------------------


def check_classical_counts(max_n=None, golden_dir=None, env=None):
    """Parking over the set species counts (n+1)^(n-1), by generation."""
    hi = _cap(7, max_n)
    gen = Generator(_env(env))
    got = [gen.count(Park(E(), _ID), n) for n in range(hi + 1)]
    want = [_cayley(n) for n in range(hi + 1)]
    return got == want, f"n<={hi}: generated {got}, expected {want}"


def check_golden_listings(max_n=None, golden_dir=None, env=None):
    """Parking over linear orders reproduces the frozen listings exactly."""
    hi = _cap(3, max_n)
    gen = Generator(_env(env))
    sizes = []
    for n in range(hi + 1):
        want = _read_golden(golden_dir, f"park_linear_n{n}.jsonl").splitlines()
        got = [serialize(s) for s in gen.generate(Park(Ref("L"), _ID), range(1, n + 1))]
        if got != sorted(want):
            return False, f"mismatch at n={n}: {len(got)} generated vs {len(want)} listed"
        sizes.append(len(got))
    return True, f"n<={hi}: listings match exactly, sizes {sizes}"


def check_worked_bijection(max_n=None, golden_dir=None, env=None):
    """The worked six-label example maps to its forest and back."""
    parking = from_jsonable(json.loads(_read_golden(golden_dir, "six_label_parking.json")))
    forest = from_jsonable(json.loads(_read_golden(golden_dir, "six_label_forest.json")))
    validate_parking(parking, E(), Generator(_env(env)))
    forward = park_to_tree(parking)
    if serialize(forward) != serialize(forest):
        return False, "forward image differs from the reference forest"
    backward = tree_to_park(forest)
    if serialize(backward) != serialize(parking):
        return False, "backward image differs from the reference parking sequence"
    return True, "forward and backward images match the worked example"


def check_bijection_exhaustive(max_n=None, golden_dir=None, env=None):
    """For every built-in base and n <= 4 the map is a bijection with inverse."""
    hi = _cap(4, max_n)
    checked = 0
    for name, base in BASES:
        gen = Generator(_env(env))
        for n in range(hi + 1):
            labels = range(1, n + 1)
            parks = gen.raw(Park(base, _ID), labels)
            trees = {serialize(t) for t in gen.raw(Tree(base), labels)}
            images = set()
            for p in parks:
                t = park_to_tree(p)
                images.add(serialize(t))
                if serialize(tree_to_park(t)) != serialize(p):
                    return False, f"round trip broke for base {name}, n={n}"
            if len(images) != len(parks) or images != trees:
                return False, (
                    f"base {name}, n={n}: {len(parks)} parkings, "
                    f"{len(images)} images, {len(trees)} trees"
                )
            checked += len(parks)
    return True, f"{checked} structures round-tripped across {len(BASES)} bases, n<={hi}"


def check_series_three_routes(max_n=None, golden_dir=None, env=None):
    """Lagrange inversion == recursive fixed point == generation counts."""
    order = 12
    hi = _cap(6, max_n)
    environment = _env(env)
    details = []
    for name, base in BASES:
        base_series = egf_of_species(base, environment, order)
        lag = lagrange_solve(base_series, order)
        fix_env = environment.copy()
        fix_env.bind("TreeFix", Compose(base, Prod(X(), Ref("TreeFix"))))
        fixed = egf_of_species(Ref("TreeFix"), fix_env, order)
        if not series_equal_prefix(lag, fixed, order):
            return False, f"base {name}: Lagrange and fixed point disagree"
        gen = Generator(environment)
        for n in range(hi + 1):
            got = gen.count(Tree(base), n)
            if got != lag.counts[n]:
                return False, (
                    f"base {name}, n={n}: generation {got} != series {lag.counts[n]}"
                )
        del gen
        details.append(f"{name}:{lag.counts[hi]}")
    return True, f"order {order} series + counts to n<={hi} agree ({', '.join(details)})"


def check_reference_tables(max_n=None, golden_dir=None, env=None):
    """Coefficient tables for parking over partitions and compositions."""
    environment = _env(env)
    want = {
        "Par": (1, 1, 4, 29, 311, 4447),
        "Comp": (1, 1, 5, 46, 631, 11586),
    }
    for name, table in want.items():
        got = egf_of_species(Park(Ref(name), _ID), environment, 5).counts
        if got != table:
            return False, f"park({name}) gave {got}, expected {table}"
    return True, "park(Par) and park(Comp) tables reproduced to order 5"


def check_closed_forms(max_n=None, golden_dir=None, env=None):
    """Closed-form count sequences for parking over L and over Sub."""
    environment = _env(env)
    want_l = tuple(factorial(2 * n) // factorial(n + 1) for n in range(7))
    got_l = egf_of_species(Park(Ref("L"), _ID), environment, 6).counts
    if got_l != want_l:
        return False, f"park(L) series {got_l} != (2n)!/(n+1)! {want_l}"
    want_sub = tuple(2**n * _cayley(n) for n in range(6))
    base_series = egf_of_species(Ref("Sub"), environment, 5)
    got_sub = lagrange_solve(base_series, 5).counts
    if got_sub != want_sub:
        return False, f"park(Sub) series {got_sub} != 2^n(n+1)^(n-1) {want_sub}"
    hi = _cap(4, max_n)
    gen = Generator(environment)
    for n in range(hi + 1):
        if gen.count(Park(Ref("L"), _ID), n) != want_l[n]:
            return False, f"park(L) generation disagrees at n={n}"
        if gen.count(Park(Ref("Sub"), _ID), n) != want_sub[n]:
            return False, f"park(Sub) generation disagrees at n={n}"
    return True, (
        f"park(L)={got_l}, park(Sub)={got_sub}, generation agrees to n<={hi}"
    )


def check_kary(max_n=None, golden_dir=None, env=None):
    """Parking over k-ary trees matches (k+1)-ary trees; arity 1 matches L."""
    environment = _env(env)
    hi = _cap(4, max_n)
    gen = Generator(environment)
    for k in (1, 2, 3):
        for n in range(hi + 1):
            parked = gen.count(Park(Ref(f"Ary({k})"), _ID), n)
            plain = gen.count(Ref(f"Ary({k + 1})"), n)
            if parked != plain:
                return False, f"k={k}, n={n}: park {parked} != {k + 1}-ary {plain}"
    hi1 = _cap(5, max_n)
    for n in range(hi1 + 1):
        a = gen.count(Park(Ref("Ary(1)"), _ID), n)
        b = gen.count(Park(Ref("L"), _ID), n)
        if a != b:
            return False, f"park(Ary(1)) {a} != park(L) {b} at n={n}"
    return True, f"k=1..3 to n<={hi}; park(Ary(1)) == park(L) to n<={hi1}"


def _compositions(total: int, parts: int):
    """All vectors of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _predicate_parkings(chi: ChiMap, n: int):
    """Brute-force oracle: every slot assignment passing the size predicate."""
    labels = list(range(1, n + 1))
    slots = chi(n + 1)

    def distribute(pool, sizes):
        if not sizes:
            yield ()
            return
        for chosen in combinations(pool, sizes[0]):
            remaining = [x for x in pool if x not in chosen]
            for rest in distribute(remaining, sizes[1:]):
                yield (frozenset(chosen),) + rest

    for sizes in _compositions(n, slots):
        if not is_parking_blocks(sizes, chi, n):
            continue
        for assignment in distribute(labels, sizes):
            yield ParkingLike(chi, tuple(SetVal(v) for v in assignment))


def check_general_chi(max_n=None, golden_dir=None, env=None):
    """Recursive generation equals predicate-filtered enumeration, base E."""
    hi = _cap(5, max_n)
    chis = (
        ChiMap.affine(1, 1),
        ChiMap.affine(2, 0),
        ChiMap.from_table((1, 1, 2, 5, 5, 5)),
    )
    gen = Generator(_env(env))
    total = 0
    for chi in chis:
        for n in range(hi + 1):
            got = {serialize(p) for p in gen.raw(Park(E(), chi), range(1, n + 1))}
            want = {serialize(p) for p in _predicate_parkings(chi, n)}
            if got != want:
                return False, (
                    f"chi={chi.key()}, n={n}: recursion {len(got)} vs "
                    f"predicate {len(want)}"
                )
            total += len(got)
    return True, f"3 chi maps to n<={hi}, {total} structures agree"


# -- properties suite ----------------------------------------------------------


def check_prop_functoriality(max_n=None, golden_dir=None, env=None):
    """Transporting the structure set along any permutation preserves it.

    Generation builds every label set on its own, so the shifted-label
    comparison checks it against the canonical list carried across.
    """
    hi = _cap(4, max_n)
    environment = _env(env)
    gen = Generator(environment)
    exprs = [base for _name, base in BASES] + [Park(E(), _ID), Tree(E())]
    checked = 0
    for expr in exprs:
        for n in range(hi + 1):
            labels = list(range(1, n + 1))
            structures = gen.raw(expr, labels)
            reference = {serialize(s) for s in structures}
            for perm in (tuple(reversed(labels)), tuple(labels[1:] + labels[:1])):
                mapping = dict(zip(labels, perm))
                moved = {serialize(s.relabel(mapping)) for s in structures}
                if moved != reference:
                    return False, f"{expr!r} not closed under relabeling at n={n}"
            # Off-canonical label sets carry order-isomorphic copies; for Comp
            # the outer structure moves with the block minima.
            shifted = [l + 10 for l in labels]
            iso = dict(zip(labels, shifted))
            direct = [serialize(s) for s in gen.generate(expr, shifted)]
            via_iso = sorted(serialize(s.relabel(iso)) for s in structures)
            if direct != via_iso:
                return False, f"{expr!r} disagrees on shifted labels at n={n}"
            checked += len(structures)
    return True, f"{checked} structures transported, n<={hi}"


def check_prop_binomial(max_n=None, golden_dir=None, env=None):
    """Product counts satisfy the binomial convolution."""
    hi = _cap(6, max_n)
    gen = Generator(_env(env))
    pairs = ((Ref("L"), Ref("Par")), (E(), Ref("Comp")), (Ref("Sub"), Ref("L")))
    for left, right in pairs:
        for n in range(hi + 1):
            direct = gen.count(Prod(left, right), n)
            conv = sum(
                comb(n, k) * gen.count(left, k) * gen.count(right, n - k)
                for k in range(n + 1)
            )
            if direct != conv:
                return False, f"{left!r}*{right!r} at n={n}: {direct} != {conv}"
    return True, f"{len(pairs)} products convolve correctly to n<={hi}"


def check_prop_no_duplicates(max_n=None, golden_dir=None, env=None):
    """Generation never repeats a serialized structure."""
    hi = _cap(4, max_n)
    gen = Generator(_env(env))
    exprs = [Park(base, _ID) for _name, base in BASES]
    exprs += [Tree(E()), Ref("Forest"), Prod(Ref("L"), Ref("L"))]
    total = 0
    for expr in exprs:
        for n in range(hi + 1):
            structures = gen.raw(expr, range(1, n + 1))
            if len({serialize(s) for s in structures}) != len(structures):
                return False, f"duplicates from {expr!r} at n={n}"
            total += len(structures)
    return True, f"{total} structures pairwise distinct, n<={hi}"


def check_prop_parking_invariants(max_n=None, golden_dir=None, env=None):
    """Disjoint cover, slot-tail emptiness and the size predicate always hold."""
    hi = _cap(4, max_n)
    gen = Generator(_env(env))
    chis = (_ID, ChiMap.affine(1, 1), ChiMap.affine(2, 0))
    total = 0
    for chi in chis:
        for base in (E(), Ref("L")):
            for n in range(hi + 1):
                for p in gen.raw(Park(base, chi), range(1, n + 1)):
                    validate_parking(p)  # raises on any invariant breach
                    total += 1
    return True, f"{total} parking structures validated, n<={hi}"


def check_prop_series_integrality(max_n=None, golden_dir=None, env=None):
    """Series counts for the library are non-negative integers matching generation."""
    order = 8
    hi = _cap(5, max_n)
    environment = _env(env)
    gen = Generator(environment)
    exprs = [base for _name, base in BASES]
    exprs += [Park(E(), _ID), Park(Ref("Par"), _ID), Tree(Ref("L")), Ref("Forest")]
    for expr in exprs:
        series = egf_of_species(expr, environment, order)
        if any(a < 0 for a in series.counts):
            return False, f"negative count in series of {expr!r}"
        for n in range(hi + 1):
            if gen.count(expr, n) != series.counts[n]:
                return False, f"{expr!r} series/generation mismatch at n={n}"
    return True, f"{len(exprs)} series integral and equal to generation, n<={hi}"


def check_prop_power_restrict(max_n=None, golden_dir=None, env=None):
    """Power of E counts k^n; restriction masks exactly one cardinality."""
    hi = _cap(5, max_n)
    gen = Generator(_env(env))
    for k in range(4):
        for n in range(hi + 1):
            got = gen.count(Power(E(), k), n)
            if got != k**n:
                return False, f"|E^{k}[{n}]| = {got}, expected {k ** n}"
    for c in range(_cap(3, max_n) + 1):
        for n in range(_cap(4, max_n) + 1):
            got = gen.count(Restrict(Ref("Par"), c), n)
            want = gen.count(Ref("Par"), n) if n == c else 0
            if got != want:
                return False, f"restriction mask wrong at c={c}, n={n}"
    return True, f"powers k<=3 and restrictions masked correctly, n<={hi}"


REFERENCE_CHECKS = (
    ("classical-counts", check_classical_counts),
    ("golden-listings", check_golden_listings),
    ("worked-bijection", check_worked_bijection),
    ("bijection-exhaustive", check_bijection_exhaustive),
    ("series-three-routes", check_series_three_routes),
    ("reference-tables", check_reference_tables),
    ("closed-forms", check_closed_forms),
    ("kary-correspondence", check_kary),
    ("general-chi", check_general_chi),
)

PROPERTY_CHECKS = (
    ("prop-functoriality", check_prop_functoriality),
    ("prop-binomial", check_prop_binomial),
    ("prop-no-duplicates", check_prop_no_duplicates),
    ("prop-parking-invariants", check_prop_parking_invariants),
    ("prop-series-integrality", check_prop_series_integrality),
    ("prop-power-restrict", check_prop_power_restrict),
)


def run_suite(suite: str = "all", max_n=None, golden_dir=None, env=None) -> dict:
    if suite == "paper":
        selected = REFERENCE_CHECKS
    elif suite == "properties":
        selected = PROPERTY_CHECKS
    elif suite == "all":
        selected = REFERENCE_CHECKS + PROPERTY_CHECKS
    else:
        raise SpeciesError(f"unknown suite {suite!r}")
    checks = []
    for name, fn in selected:
        try:
            ok, detail = fn(max_n=max_n, golden_dir=golden_dir, env=env)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append({"name": name, "ok": ok, "detail": detail})
    return {
        "suite": suite,
        "max_n": max_n,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
