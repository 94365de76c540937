"""Listings as the CLI writes them: every byte through print, in blocks of
whole lines, and parking-like listings built from memoized slot sequences."""

import hashlib
import json
from pathlib import Path

import pytest

from parklike import Generator, SpeciesEnv, cli, parse_species
from parklike.chi import ChiMap
from parklike.cli import main
from parklike.structures import WRITERS, canonical_labels, serialize

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


@pytest.mark.parametrize("command", ["count", "enumerate", "series"])
@pytest.mark.parametrize(
    "expr, n, error",
    [
        ("park(E, table(1,1,2,5))", 4, "chi table(1,1,2,5) has 4 entries, needed chi(5)"),
        # The map that runs out first depth-first, as on the series route.
        ("park(X+restrict(E,5), table(1,2,3))", 3, "chi table(1,2,3) has 3 entries, needed chi(4)"),
        # A shift of the left table equals the right table by value; the
        # error still names the table that ran out.
        ("park(E, table(1,2,3,4)) + park(E, table(1,2,3))", 3,
         "chi table(1,2,3) has 3 entries, needed chi(4)"),
    ],
)
def test_table_exhaustion_texts_match_the_series_route(capsys, command, expr, n, error):
    size = "--order" if command == "series" else "--n"
    rc, out, err = run(capsys, command, "--expr", expr, size, str(n))
    assert rc == 1 and out == "" and err == f"error: {error}\n"


A_DIVERGES = ("--define", "A:=A+E+")  # A never stabilizes on a non-empty set
A_HOLDS_SETS = ("--define", "A:=A+E")  # nor on the empty one


@pytest.mark.parametrize("command", ["count", "enumerate"])
@pytest.mark.parametrize(
    "definitions, expr, n, error",
    [
        ((), "park(L,table(1,2))", 4, "chi table(1,2) has 2 entries, needed chi(3)"),
        ((), "park(L,table(2))*park(X,table(3))", 3, "chi table(3) has 1 entries, needed chi(4)"),
        (("--define", "A:=X+park(A,affine(0,1))"), "A", 1,
         "recursion for 'A' did not stabilize on 1 labels after 3 rounds"),
        # One case per walk of the count fold.  Compose: the one-block
        # partition first; block sizes in ascending order would solve A on
        # 1 label first.
        (A_DIVERGES, "E@A", 4, "recursion for 'A' did not stabilize on 4 labels after 6 rounds"),
        # Tree heads: one head first; larger head sets first would solve A
        # on 2 labels first.
        (A_DIVERGES, "tree(A)", 2, "recursion for 'A' did not stabilize on 1 labels after 3 rounds"),
        # Prod: the left factor on no labels first; smaller right parts
        # first would solve A on 3 labels first.
        (A_HOLDS_SETS, "A*E", 3, "recursion for 'A' did not stabilize on 0 labels after 2 rounds"),
        # Park slot peeling: a first block of one label, so chi(2) is read
        # first; smaller tails first would need chi(5) first.
        ((), "park(E,table(2))", 4, "chi table(2) has 1 entries, needed chi(2)"),
        # Tree shares and Power rounds: the error comes from inside the walk,
        # but any order of these walks meets the base's sizes in ascending
        # order, so only test_generate.py's first-meeting test tells a
        # reordered walk apart.
        (A_DIVERGES, "tree(1 + restrict(A,2))", 4,
         "recursion for 'A' did not stabilize on 2 labels after 4 rounds"),
        (A_DIVERGES, "(X + restrict(A,2))^3", 4,
         "recursion for 'A' did not stabilize on 2 labels after 4 rounds"),
    ],
)
def test_counting_by_size_fails_where_listing_fails(capsys, command, definitions, expr, n, error):
    # The count fold walks one label set per pattern of part sizes, in the
    # order the listing first meets the pattern, so both read the same chi
    # entries and rounds first.
    rc, out, err = run(capsys, *definitions, command, "--expr", expr, "--n", str(n))
    assert rc == 1 and out == "" and err == f"error: {error}\n"


def test_sequences_read_off_an_approximation_are_not_kept(capsys):
    # park(A, affine(0,1)) on a label set holds A on the same set, so each
    # round's sequences read the round's approximation; kept, they would
    # stop the solve at 1 after its second round.
    rc, out, err = run(capsys, "--define", "A:=X+park(A, affine(0,1))", "count", "--expr", "A", "--n", "1")
    assert rc == 1 and out == ""
    assert err == "error: recursion for 'A' did not stabilize on 1 labels after 3 rounds\n"


# -- the bytes of the bench's listings, and every writer in both styles --------

PINS = Path(__file__).resolve().parent.parent / "bench" / "pins.json"

# The bench's five `enumerate` requests, with the sha256 of their `--format
# json` output; their `jsonl` digests are the bench's own pins.
BENCH_LISTINGS = [
    ("park(E)", 6, "eb2c45de47cca522bb2f8089b585eae0c09c077e8e75fceca4480a110c2a490d"),
    ("tree(Sub)", 4, "bf352fcfcce9fdcd019ed3a00124626b56a4671b721e853c99cbdb95a6002b35"),
    ("tree(Comp)", 4, "e97eb32310f94e9fa1cbee8e83d2d7e0fe8aacff0b85ad73b278d588bbe54745"),
    ("park(E, affine(2,0))", 4, "752e1dc67f814f72f0e68a4b11b8eb295390dc98a14239f0c292118fde38d433"),
    ("(E+)^3", 6, "306b055a2f33e10015ba39016d17d5de12f6838aae3220e262b533c46126a3d8"),
]


@pytest.mark.parametrize("expr, n, json_digest", BENCH_LISTINGS, ids=[e for e, _n, _d in BENCH_LISTINGS])
def test_the_bench_listings_keep_their_bytes(capsys, expr, n, json_digest):
    jsonl = json.loads(PINS.read_text())[f"enumerate --expr {expr} --n {n} --format jsonl"]
    for fmt, digest in (("jsonl", jsonl["sha256"]), ("json", json_digest)):
        rc, out, err = run(capsys, "enumerate", "--expr", expr, "--n", str(n), "--format", fmt)
        assert rc == 0 and err == ""
        assert out.count("\n") == (jsonl["lines"] if fmt == "jsonl" else 1)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# A listing that reaches each writer of the text fold.
WRITTEN = {
    "unit": "L", "atom": "L", "sum": "L", "prod": "park(E)*X",
    "set": "tree(E)", "tree": "tree(E)",  # leaves: roots with no children
    "compose": "Par", "power": "E^3", "link": "E^3",
    "slots": "park(E)*X", "park": "park(E)*X", "joined": "park(E)*X",
}
# Terms whose last factor, the outer structure or the root, has several
# choices per partition or head set, so it varies fastest.
LAST_FASTEST = ["L@(E+)", "tree(Sub)"]
# Nested parks with empty slot sequences: tails on no labels whose shifted
# chi(1) is 0, and a base park whose chi(1) is 0.
EMPTY_TAILS = ["X*park(E, table(1,1,2,2,3))", "park(park(E, affine(1,-1)))"]


def test_every_writer_is_listed():
    for style in WRITERS.values():
        assert set(WRITTEN) == set(vars(style)) - {"text"}


# The writers that are templates, or return them, each from its arguments.
TEMPLATES = {
    "prod": lambda w: [w.prod],
    "sum": lambda w: [w.sum("L"), w.sum("R")],
    "compose": lambda w: [w.compose((frozenset({1, 3}), frozenset({2})))],
    "tree": lambda w: [w.tree(()), w.tree((2, 5))],
    "park": lambda w: list(w.park(ChiMap.affine(2, 0))),
}


def test_every_writer_of_fixed_arity_is_a_template():
    # A term takes its factors in its text's order, so only the writers of
    # a leaf and those that walk chains of any length write text themselves.
    for style in WRITERS.values():
        for name, templates in TEMPLATES.items():
            assert all(type(t) is tuple for t in templates(style)), name
        assert style.link is None
        assert set(vars(style)) - {"text", "link"} - set(TEMPLATES) == {
            "unit", "atom", "set", "power", "slots", "joined"}


def test_a_tree_template_is_built_once_per_head_set():
    # Each of the 64 subsets of 6 labels is a head set of some label set,
    # the empty one included; a head set's template serves every label set
    # that holds it.
    tree = WRITERS[False].tree
    tree.cache_clear()
    env = SpeciesEnv.standard()
    Generator(env).texts(parse_species("tree(E)", env), canonical_labels(6))
    assert tree.cache_info().misses == 64


@pytest.mark.parametrize("text", sorted(set(WRITTEN.values())) + EMPTY_TAILS + LAST_FASTEST)
def test_every_writer_writes_serialize_of_the_listing_in_both_styles(text):
    env = SpeciesEnv.standard()
    expr = parse_species(text, env)
    for n in range(5):
        labels = canonical_labels(n)
        listed = [serialize(s) for s in Generator(env).raw(expr, labels)]
        assert Generator(env).texts(expr, labels) == listed, n
        spaced = [json.dumps(json.loads(line), sort_keys=True) for line in listed]
        assert Generator(env).texts(expr, labels, spaced=True) == spaced, n
