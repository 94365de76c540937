"""Listings as the CLI writes them: every byte through print, in blocks of
whole lines, and parking-like listings built from memoized slot sequences."""

import json

import pytest

from parklike import Generator, SpeciesEnv, cli, parse_species
from parklike.cli import main
from parklike.structures import canonical_labels

from jsonable import to_jsonable


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["text", "jsonl", "json"])
def test_enumerate_writes_only_through_print(capsys, monkeypatch, fmt):
    argv = ["enumerate", "--expr", "park(E, affine(2,0))", "--n", "3", "--format", fmt]
    rc, want, _ = run(capsys, *argv)
    assert rc == 0 and want
    recorded = []

    def recorder(*args, sep=" ", end="\n", file=None):
        assert file is None
        recorded.append(sep.join(map(str, args)) + end)

    monkeypatch.setattr(cli, "print", recorder, raising=False)
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and out == "" and err == ""
    assert "".join(recorded) == want


def first_difference(got, want):
    """(line index, got line, wanted line) where two texts first differ, or
    None: pytest's own diff of two texts this long takes minutes."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return i, a, b
    return None if len(got_lines) == len(want_lines) else ("line counts", len(got_lines), len(want_lines))


@pytest.mark.parametrize("fmt", ["text", "jsonl", "json"])
def test_a_listing_of_several_blocks_is_the_generated_listing(capsys, fmt):
    # park(E) on 5 labels: 1,296 lines, 222 KB, so several blocks.
    env = SpeciesEnv.standard()
    listing = Generator(env).generate(parse_species("park(E)", env), canonical_labels(5))
    forms = [to_jsonable(s) for s in listing]
    if fmt == "json":
        want = json.dumps(forms, sort_keys=True) + "\n"
    else:
        want = "".join(json.dumps(f, sort_keys=True, separators=(",", ":")) + "\n" for f in forms)
    rc, out, _ = run(capsys, "enumerate", "--expr", "park(E)", "--n", "5", "--format", fmt)
    assert rc == 0 and len(listing) == 1296
    assert len(out) > 3 * cli._BLOCK_BYTES
    assert first_difference(out, want) is None


def test_a_recursive_parking_count_matches_its_series(capsys):
    define = "A:=1+X*park(A, affine(2,0))"
    counts = []
    for n in range(6):
        rc, out, _ = run(capsys, "--define", define, "count", "--expr", "A", "--n", str(n))
        assert rc == 0
        counts.append(out.strip())
    assert counts == ["1", "1", "4", "54", "1440", "60480"]
    rc, out, _ = run(capsys, "--define", define, "series", "--expr", "A", "--order", "5")
    assert rc == 0 and json.loads(out)["counts"] == counts


@pytest.mark.parametrize("command", ["count", "enumerate"])
@pytest.mark.parametrize(
    "expr, n, error",
    [
        ("park(E, table(1,1,2,5))", 4, "chi table(1,1,2,5) has 4 entries, needed chi(5)"),
        # The map that runs out first depth-first, as on the series route.
        ("park(X+restrict(E,5), table(1,2,3))", 3, "chi table(1,2,3) has 3 entries, needed chi(4)"),
    ],
)
def test_table_exhaustion_texts_match_the_series_route(capsys, command, expr, n, error):
    rc, out, err = run(capsys, command, "--expr", expr, "--n", str(n))
    assert rc == 1 and out == "" and err == f"error: {error}\n"


def test_sequences_read_off_an_approximation_are_not_kept(capsys):
    # park(A, affine(0,1)) on a label set holds A on the same set, so each
    # round's sequences read the round's approximation; kept, they would
    # stop the solve at 1 after its second round.
    rc, out, err = run(capsys, "--define", "A:=X+park(A, affine(0,1))", "count", "--expr", "A", "--n", "1")
    assert rc == 1 and out == ""
    assert err == "error: recursion for 'A' did not stabilize on 1 labels after 3 rounds\n"
