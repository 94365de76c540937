from itertools import product
from math import factorial

import pytest

from parklike import (
    ChiMap,
    Generator,
    ParkingFunction,
    ParkingLike,
    SetVal,
    blocks_to_pf,
    is_parking_blocks,
    pf_to_blocks,
    serialize,
    validate_parking,
    validate_parking_function,
)
from parklike.errors import BlockLengthMismatchError, InvalidStructureError
from parklike.expr import E, Park, Ref
from parklike.structures import canonical_labels

ID = ChiMap.identity()


# -- the block-size predicate -------------------------------------------------


@pytest.mark.parametrize(
    "sizes, chi, n, expected",
    [
        ((2, 0, 1, 2, 0, 1, 0), ID, 6, True),
        ((0, 2, 1), ID, 2, False),
        ((1, 1, 1, 0), ChiMap.from_table([2, 3, 4, 4]), 3, True),
        ((0,), ID, 0, True),
        ((1, 0), ID, 1, True),
        ((0, 1), ID, 1, False),
    ],
)
def test_is_parking_blocks(sizes, chi, n, expected):
    assert is_parking_blocks(sizes, chi, n) is expected


def test_is_parking_blocks_checks_length():
    with pytest.raises(BlockLengthMismatchError):
        is_parking_blocks((1, 1), ID, 3)
    with pytest.raises(BlockLengthMismatchError):
        is_parking_blocks((), ID, 0)  # even n = 0 needs chi(1) = 1 slot


def test_empty_sequence_when_chi_is_zero():
    chi = ChiMap.affine(0, 0)
    assert is_parking_blocks((), chi, 0) is True


# -- generation ---------------------------------------------------------------


def test_classical_counts_small(env):
    got = [len(Generator(env).generate(Park(E(), ID), canonical_labels(n))) for n in range(5)]
    assert got == [1, 1, 3, 16, 125]


def test_linear_base_counts_small(env):
    got = [
        len(Generator(env).generate(Park(Ref("L"), ID), canonical_labels(n)))
        for n in range(4)
    ]
    assert got == [1, 1, 4, 30]


def test_zero_chi_generates_only_on_empty(env):
    chi = ChiMap.affine(0, 0)
    assert len(Generator(env).generate(Park(E(), chi), frozenset())) == 1
    assert Generator(env).generate(Park(E(), chi), {1}) == []


def test_affine_two_counts(env):
    chi = ChiMap.affine(2, 0)
    got = [len(Generator(env).generate(Park(E(), chi), canonical_labels(n))) for n in range(3)]
    assert got == [1, 2, 12]


def test_generated_structures_validate(env):
    for chi in (ID, ChiMap.affine(1, 1), ChiMap.from_table([1, 1, 2, 5, 5])):
        for n in range(4):
            for p in Generator(env).generate(Park(E(), chi), canonical_labels(n)):
                assert validate_parking(p, base=E(), env=env)
                assert p.underlying() == canonical_labels(n)


def test_generation_is_sorted_and_duplicate_free(env):
    out = [serialize(p) for p in Generator(env).generate(Park(E(), ID), canonical_labels(3))]
    assert out == sorted(out) and len(set(out)) == 16


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@pytest.mark.parametrize("chi", [ID, ChiMap.affine(1, 1), ChiMap.affine(2, 0)])
@pytest.mark.parametrize("base_name", ["E", "L", "Par"])
def test_count_factors_through_block_sizes(env, chi, base_name):
    # |A^(chi)[n]| = sum over admissible size vectors of
    #     multinomial(n; sizes) * prod_i |A[sizes_i]|
    base = E() if base_name == "E" else Ref(base_name)
    gen = Generator(env)
    for n in range(5):
        expected = 0
        for sizes in _compositions(n, chi(n + 1)):
            if not is_parking_blocks(sizes, chi, n):
                continue
            ways = factorial(n)
            for s in sizes:
                ways //= factorial(s)
            for s in sizes:
                ways *= gen.count(base, s)
            expected += ways
        assert len(Generator(env).generate(Park(base, chi), canonical_labels(n))) == expected


# -- validation ---------------------------------------------------------------


def test_validate_rejects_overlap():
    p = ParkingLike(ID, (SetVal({1, 2}), SetVal({2}), SetVal(frozenset()), SetVal(frozenset())))
    with pytest.raises(InvalidStructureError):
        validate_parking(p)


def test_validate_rejects_wrong_length():
    p = ParkingLike(ID, (SetVal({1}),))
    with pytest.raises(InvalidStructureError):
        validate_parking(p)


def test_validate_rejects_non_parking_sizes():
    p = ParkingLike(ID, (SetVal(frozenset()), SetVal({1, 2}), SetVal(frozenset())))
    with pytest.raises(InvalidStructureError):
        validate_parking(p)


def test_validate_rejects_occupied_tail():
    # (1, 3) in slot 1 leaves slots 3, 4 past chi(u) = 2... slot 3 occupied.
    p = ParkingLike(ID, (SetVal({1}), SetVal(frozenset()), SetVal({2}), SetVal(frozenset())))
    with pytest.raises(InvalidStructureError):
        validate_parking(p)


def test_validate_checks_base_membership(env):
    # An atom is not a set-species structure.
    from parklike import AtomVal

    p = ParkingLike(ID, (AtomVal(1), SetVal(frozenset())))
    with pytest.raises(InvalidStructureError):
        validate_parking(p, base=E(), env=env)


# -- classical parking functions ----------------------------------------------


def test_parking_function_round_trip():
    pf = ParkingFunction(((1, 1), (2, 1), (3, 2)))
    assert validate_parking_function(pf)
    p = pf_to_blocks(pf)
    assert validate_parking(p)
    assert blocks_to_pf(p) == pf


def test_parking_function_accepts_dict():
    pf = ParkingFunction({5: 1, 9: 1})
    assert pf(5) == 1 and pf.domain == {5, 9}


@pytest.mark.parametrize("mapping", [((1, 2), (2, 2)), ((1, 0),), ((1, 3), (2, 1))])
def test_bad_parking_functions_rejected(mapping):
    with pytest.raises(InvalidStructureError):
        validate_parking_function(ParkingFunction(mapping))


def test_all_parking_functions_on_three_labels():
    # brute force: maps [3] -> [3] satisfying the classical condition
    good = set()
    for slots in product((1, 2, 3), repeat=3):
        if all(sum(1 for s in slots if s <= k) >= k for k in (1, 2, 3)):
            good.add(slots)
    assert len(good) == 16
    for slots in good:
        pf = ParkingFunction(tuple(enumerate(slots, start=1)))
        assert blocks_to_pf(pf_to_blocks(pf)) == pf


def test_validate_parking_function_is_the_classical_condition():
    # Every slot vector over 0..n+1: slot 0 is never valid, and a label in
    # slot n+1 leaves the first n slots short.
    for n in range(6):
        accepted = 0
        for slots in product(range(n + 2), repeat=n):
            pf = ParkingFunction(tuple(enumerate(slots, start=1)))
            classical = 0 not in slots and all(sum(s <= k for s in slots) >= k for k in range(1, n + 1))
            try:
                valid = validate_parking_function(pf)
            except InvalidStructureError:
                valid = False
            assert valid == classical, slots
            if valid:
                accepted += 1
                assert blocks_to_pf(pf_to_blocks(pf)) == pf
        assert accepted == (n + 1) ** (n - 1)


def test_blocks_to_pf_needs_identity_chi():
    p = ParkingLike(ChiMap.affine(1, 1), (SetVal({1}), SetVal(frozenset()), SetVal(frozenset())))
    with pytest.raises(InvalidStructureError):
        blocks_to_pf(p)
