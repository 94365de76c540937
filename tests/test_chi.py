import pytest
from hypothesis import given, strategies as st

from parklike import ChiMap
from parklike.errors import ChiTableExhaustedError, SpeciesError


def test_identity_values():
    chi = ChiMap.identity()
    assert [chi(m) for m in range(1, 6)] == [1, 2, 3, 4, 5]
    assert chi.is_identity
    assert chi.key() == "id"


def test_affine_values():
    chi = ChiMap.affine(2, 3)
    assert [chi(m) for m in range(1, 5)] == [5, 7, 9, 11]
    assert not chi.is_identity
    assert ChiMap.affine(1, 0).is_identity


def test_affine_one_zero_is_the_identity():
    assert ChiMap.affine(1, 0) == ChiMap.identity()
    assert ChiMap.from_string("affine(1,0)").key() == "id"
    assert hash(ChiMap.affine(1, 0)) == hash(ChiMap.identity())
    assert ChiMap.affine(1, 1).shift(1) == ChiMap.identity()


def test_affine_negative_offset_allowed_when_nonnegative_at_one():
    chi = ChiMap.affine(2, -1)
    assert [chi(m) for m in (1, 2, 3)] == [1, 3, 5]


@pytest.mark.parametrize("a, b", [(-1, 5), (0, -1), (2, -3)])
def test_affine_rejects_negative_range(a, b):
    with pytest.raises(SpeciesError):
        ChiMap.affine(a, b)


def test_constant_affine_is_fine():
    chi = ChiMap.affine(0, 4)
    assert chi(1) == chi(17) == 4


def test_table_values_and_exhaustion():
    chi = ChiMap.from_table([1, 1, 2, 5])
    assert [chi(m) for m in range(1, 5)] == [1, 1, 2, 5]
    with pytest.raises(ChiTableExhaustedError):
        chi(5)


def test_table_must_be_non_decreasing():
    with pytest.raises(SpeciesError):
        ChiMap.from_table([1, 3, 2])
    with pytest.raises(SpeciesError):
        ChiMap.from_table([-1, 0])
    with pytest.raises(SpeciesError):
        ChiMap.from_table([])


# -- shifting: rho_n(m) = chi(n + m) - chi(1) ---------------------------------


def test_shift_of_identity():
    chi = ChiMap.identity()
    assert chi.shift(1) is chi
    for n in (2, 3, 5):
        rho = chi.shift(n)
        assert [rho(m) for m in range(1, 5)] == [n + m - 1 for m in range(1, 5)]


def test_shift_of_affine_drops_offset():
    chi = ChiMap.affine(3, 2)
    for n in (1, 2, 4):
        rho = chi.shift(n)
        assert [rho(m) for m in range(1, 4)] == [
            chi(n + m) - chi(1) for m in range(1, 4)
        ]
    assert chi.shift(1).key() == "affine(3,0)"


def test_shift_of_table():
    chi = ChiMap.from_table([1, 1, 2, 5, 5])
    rho = chi.shift(2)
    assert [rho(m) for m in (1, 2, 3)] == [chi(2 + m) - chi(1) for m in (1, 2, 3)]


def test_shifted_table_runs_out_on_the_written_table():
    chi = ChiMap.from_table([1, 1, 2, 5])
    rho = chi.shift(1).shift(2)  # rho(m) = chi(3 + m) - chi(2)
    assert rho == ChiMap.from_table([4])  # the origin is not part of the value
    message = r"^chi table\(1,1,2,5\) has 4 entries, needed chi\(5\)$"
    with pytest.raises(ChiTableExhaustedError, match=message):
        rho(2)
    with pytest.raises(ChiTableExhaustedError, match=message):
        rho.shift(1)


def test_shift_rejects_nonpositive():
    with pytest.raises(SpeciesError):
        ChiMap.identity().shift(0)
    with pytest.raises(SpeciesError):
        ChiMap.affine(1, 1).shift(-2)


# -- string form --------------------------------------------------------------


@pytest.mark.parametrize(
    "text", ["id", "affine(2,3)", "affine(2,-1)", "table(1,1,2,5)"]
)
def test_string_round_trip(text):
    chi = ChiMap.from_string(text)
    assert ChiMap.from_string(chi.key()) == chi


@pytest.mark.parametrize("text", ["", "bogus", "table()", "affine(1)", "id2"])
def test_from_string_rejects_garbage(text):
    with pytest.raises(SpeciesError):
        ChiMap.from_string(text)


tables = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8).map(
    lambda steps: [sum(steps[: i + 1]) for i in range(len(steps))]
)


@given(tables, st.integers(min_value=1, max_value=4))
def test_shift_definition_on_random_tables(values, n):
    chi = ChiMap.from_table(values)
    if n >= len(values):
        return
    rho = chi.shift(n)
    for m in range(1, len(values) - n + 1):
        assert rho(m) == chi(n + m) - chi(1)


@given(tables)
def test_tables_stay_non_decreasing_after_shift(values):
    chi = ChiMap.from_table(values)
    if len(values) < 2:
        return
    rho = chi.shift(1)
    got = [rho(m) for m in range(1, len(values))]
    assert got == sorted(got)
    assert all(v >= 0 for v in got)
