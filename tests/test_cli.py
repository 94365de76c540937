import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from importlib import resources
from pathlib import Path

import pytest

from parklike import (
    ChiMap, Generator, Park, SpeciesEnv, expr_to_text, generate, membership, parse_species,
)
from parklike.cli import main
from parklike.structures import canonical_labels, from_jsonable, serialize

from jsonable import to_jsonable

EXAMPLE_PARKING = json.dumps(
    {
        "chi": "id",
        "seq": [
            {"k": "set", "labels": [2, 3]},
            {"k": "set", "labels": []},
            {"k": "set", "labels": [5]},
            {"k": "set", "labels": [1, 6]},
            {"k": "set", "labels": []},
            {"k": "set", "labels": [4]},
            {"k": "set", "labels": []},
        ],
    }
)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out


# -- enumerate / count -----------------------------------------------------------


@pytest.mark.parametrize(
    "expr, n, expected",
    [("park(L)", 2, "4"), ("1", 1, "0"), ("tree(E)", 3, "16"), ("park(E)", 4, "125")],
)
def test_count_only(capsys, expr, n, expected):
    rc, out = run(capsys, ["enumerate", "--expr", expr, "--n", str(n), "--count-only"])
    assert rc == 0 and out.strip() == expected


def test_count_command(capsys):
    rc, out = run(capsys, ["count", "--expr", "E@E+", "--n", "4"])
    assert rc == 0 and out.strip() == "15"


def test_count_reads_no_chi_entry_that_no_structure_needs(capsys):
    # X has no structure on two labels, so nothing peels a block of two and
    # chi(2) is never read; series answers the same.
    rc, out = run(capsys, ["count", "--expr", "park(X, table(2))", "--n", "1"])
    assert rc == 0 and out.strip() == "0"


@pytest.mark.parametrize(
    "expr, n, expected", [("E^3000", 0, "1"), ("E^600", 1, "600"), ("X*E^600", 2, "1200")]
)
def test_count_deep_powers(capsys, expr, n, expected):
    # One interpreter frame per exponent step would pass the recursion limit.
    rc, out = run(capsys, ["count", "--expr", expr, "--n", str(n)])
    assert rc == 0 and out.strip() == expected


@pytest.mark.parametrize(
    "expr, n, expected",
    [
        ("E^3000", 2, "9000000"),
        ("park(park(E + E, id), affine(2,0))", 4, "89915392"),
        ("park(E)", 8, "4782969"),
    ],
)
def test_count_is_bounded_by_the_count_not_the_structures(capsys, expr, n, expected):
    # Listing these would build millions of structures (E^3000 every E^j on
    # every subset); counting keeps one integer per (expression, label set).
    tracemalloc.start()
    try:
        rc, out = run(capsys, ["count", "--expr", expr, "--n", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and out.strip() == expected
    assert peak < 16 * 2**20, peak


def test_enumerate_deep_listing_keeps_no_text_per_part(capsys):
    # Each of the 200 structures is a chain of 200 products whose parts are
    # reached from it alone, so keeping the text of every part would hold
    # about 50 * 200^3 / 3 bytes (130 MB, 70 times the 1.8 MB output).  The
    # output, its capture and the structures take about 3 times the output.
    tracemalloc.start()
    try:
        rc, out = run(capsys, ["enumerate", "--expr", "E^200", "--n", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and out.count("\n") == 200
    assert peak < 6 * len(out)


@pytest.mark.parametrize(
    "expr, n, digest",
    [
        ("park(L)", 0, "cc7badaca178d1b2469dfae01da6f10ed9cfcebd7c8edd87ea02c5a78e2a8872"),
        ("park(L)", 1, "636d4bc9714d3704149a89cb033a0dfd7a2f06fb947759cb9814329a275b40ee"),
        ("park(L)", 2, "fe28f2461e3498cc2368d374958387f60505164177ecc3ef417cbbce08512f49"),
        ("park(L)", 3, "a3a5499032fbe9573f64d93e25aa85cf4fb03934b0ba58c44f01f45833796189"),
        ("0", 2, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ],
)
def test_enumerate_json_bytes_are_pinned(capsys, expr, n, digest):
    # The bytes of json.dumps over the whole listing with sort_keys=True.
    rc, out = run(capsys, ["enumerate", "--expr", expr, "--n", str(n), "--format", "json"])
    assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_json_listing_peak_memory_is_within_five_times_the_output(capsys):
    # The 200 structures' lines, written spaced by the text fold and sorted,
    # and the captured 2.1 MB output (which a real stdout does not keep)
    # take about 2.1 times the output.
    tracemalloc.start()
    try:
        rc, out = run(capsys, ["enumerate", "--expr", "E^200", "--n", "1", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and len(json.loads(out)) == 200
    assert peak < 5 * len(out)


def test_enumerate_high_power_keeps_no_text_per_round(capsys):
    # Each of the 600 structures is a chain of 600 products.  Round j of the
    # power kept as texts would hold about 27 * 600^3 / 3 bytes (2 GB, 120
    # times the 16 MB output); kept as chains of pairs, the rounds take less
    # than the output, and the texts and their capture about twice it.
    tracemalloc.start()
    try:
        rc, out = run(capsys, ["enumerate", "--expr", "E^600", "--n", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and out.count("\n") == 600
    assert peak < 3 * len(out)


def test_enumerate_writes_a_structure_of_thousands_of_slots(capsys):
    # The 3000 slots of the one structure on no labels are joined from a
    # chain, with no interpreter frame per slot.
    rc, out = run(capsys, ["enumerate", "--expr", "park(E, affine(3000,0))", "--n", "0"])
    assert rc == 0 and out.count("\n") == 1
    assert json.loads(out) == {"chi": "affine(3000,0)", "seq": [{"k": "set", "labels": []}] * 3000}


@pytest.mark.parametrize(
    "expr, n",
    [
        ("park(E, affine(2,0))", 3),
        ("park(E, affine(2,-1))", 4),
        ("park(E, table(1,3,4,6,8,9,11,12))", 3),
        ("Par", 4),
        ("tree(Comp)", 3),
        ("E@(X+X)", 3),
        ("0", 2),
    ],
)
def test_enumerate_json_is_json_dumps_of_the_listing(capsys, env, expr, n):
    # Chi keys such as affine(2,0) hold commas that must stay unspaced; 0
    # lists nothing, so its listing is the empty array.
    listing = Generator(env).generate(parse_species(expr, env), canonical_labels(n))
    rc, out = run(capsys, ["enumerate", "--expr", expr, "--n", str(n), "--format", "json"])
    assert rc == 0
    want = json.dumps([to_jsonable(s) for s in listing], sort_keys=True) + "\n"
    # Equal pieces mean equal texts; a failure shows the first unequal
    # structure, not a diff of two long lines.
    assert out.split("}, {") == want.split("}, {")
    assert (expr == "0") == (out == "[]\n")


def test_enumerate_jsonl_lines_are_sorted_json(capsys):
    rc, out = run(capsys, ["enumerate", "--expr", "Par", "--n", "3", "--format", "jsonl"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines == sorted(lines)
    for line in lines:
        assert json.loads(line)["k"] == "comp"


def test_enumerate_json_array(capsys):
    rc, out = run(capsys, ["--format", "json", "enumerate", "--expr", "X^2", "--n", "2"])
    assert rc == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 2


def test_output_is_deterministic(capsys):
    argv = ["enumerate", "--expr", "park(E)", "--n", "3"]
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert (rc1, out1) == (rc2, out2)


# -- defines and budget ------------------------------------------------------------


def test_define_recursive_species(capsys):
    rc, out = run(
        capsys,
        ["count", "--expr", "B", "--n", "3", "--define", "B:=1+X*B^2"],
    )
    assert rc == 0 and out.strip() == "30"


def test_define_mutual_recursion(capsys):
    rc, out = run(
        capsys,
        [
            "--define", "Ev:=1 + X*Od",
            "--define", "Od:=X*Ev",
            "count", "--expr", "Ev", "--n", "4",
        ],
    )
    assert rc == 0 and out.strip() == "24"


def test_define_cannot_shadow_primitives(capsys):
    rc, _ = run(capsys, ["count", "--expr", "E", "--n", "1", "--define", "E:=X"])
    assert rc == 1


def test_define_requires_walrus(capsys):
    rc, _ = run(capsys, ["count", "--expr", "E", "--n", "1", "--define", "A=X"])
    assert rc == 2


LONG = "A" * 100_000


@pytest.mark.parametrize(
    "argv, rc, start",
    [
        (["--define", LONG, "count", "--expr", "X", "--n", "1"], 2, "error: --define needs NAME:=EXPR, got 'AAA"),
        (["count", "--expr", LONG, "--n", "1"], 2, "error: species 'AAA"),
        (["count", "--expr", f"X {LONG}", "--n", "1"], 2, "error: trailing input at 'AAA"),
        (["count", "--expr", f"(X {LONG}", "--n", "1"], 2, "error: expected ')', found 'AAA"),
        (["count", "--expr", f"park(X, {LONG})", "--n", "1"], 2, "error: unknown chi 'AAA"),
        (["count", "--expr", f"{LONG}(X)", "--n", "1"], 2, "error: 'AAA"),
        (["count", "--expr", "9" * 4000, "--n", "1"], 2, "error: no species literal 999"),
        (["--define", f"A-{LONG}:=X", "count", "--expr", "X", "--n", "1"], 1, "error: invalid species name 'A-AAA"),
    ],
)
def test_an_echoed_token_is_cut_in_the_error_line(capsys, argv, rc, start):
    # Each error line names the start of the long flag or token, not all of it.
    assert main(argv) == rc
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert captured.out == "" and line.startswith(start)
    assert len(line.encode()) < 300 and " more characters)" in line


@pytest.mark.parametrize(
    "argv, rc, err",
    [
        (["--define", "A=X", "count", "--expr", "X", "--n", "1"], 2,
         "error: --define needs NAME:=EXPR, got 'A=X' (at position 0)"),
        (["count", "--expr", "Q", "--n", "1"], 2, "error: species 'Q' is not defined"),
        (["count", "--expr", "X Q", "--n", "1"], 2, "error: trailing input at 'Q' (at position 2)"),
        (["count", "--expr", "park(X, f)", "--n", "1"], 2, "error: unknown chi 'f' (at position 8)"),
        (["--define", "A-B:=X", "count", "--expr", "X", "--n", "1"], 1, "error: invalid species name 'A-B'"),
    ],
)
def test_a_short_echoed_token_is_shown_whole(capsys, argv, rc, err):
    assert main(argv) == rc
    assert capsys.readouterr().err == err + "\n"


def test_budget_default_blocks_large_n(capsys):
    rc, _ = run(capsys, ["enumerate", "--expr", "L", "--n", "9"])
    assert rc == 1
    rc, _ = run(capsys, ["enumerate", "--expr", "L", "--n", "9", "--budget", "9", "--count-only"])
    assert rc == 0


def test_define_dump(capsys):
    rc, out = run(capsys, ["define-dump"])
    assert rc == 0
    assert "L := 1 + X*L" in out
    assert "Par := E@E+" in out
    rc, out = run(capsys, ["--format", "json", "define-dump"])
    assert "Forest" in json.loads(out)


def test_define_dump_jsonl_is_one_json_object_per_definition(capsys):
    rc, out = run(capsys, ["--format", "jsonl", "define-dump", "--define", "B:=1+X*B^2"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert rc == 0
    assert [row["name"] for row in rows] == ["B", "Comp", "Forest", "L", "Par", "Sub"]
    assert {"expr": "1 + X*L", "name": "L"} in rows
    assert {"expr": "1 + X*B^2", "name": "B"} in rows


def test_define_dump_prints_text_that_reads_back_as_the_same_species(capsys):
    rc, out = run(capsys, ["define-dump", "--define", "B:=X*(X*X)"])
    assert rc == 0 and "B := X*(X*X)\n" in out
    printed = next(line for line in out.splitlines() if line.startswith("B := "))[5:]
    listings = []
    for text in ("X*(X*X)", printed):
        rc, listing = run(
            capsys, ["--format", "jsonl", "--define", f"B:={text}", "enumerate", "--expr", "B", "--n", "3"]
        )
        assert rc == 0
        listings.append(listing)
    assert listings[0] == listings[1] and listings[0]


def test_closed_output_pipe_is_at_most_one_error_line():
    # The reader takes one line of a ~200 KB listing and closes its end.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "parklike.cli", "enumerate", "--expr", "park(E)", "--n", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b'{"chi":"id"')
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    lines = err.splitlines()
    assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines)


# -- exit codes ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["enumerate", "--expr", "L*", "--n", "1"], 2),  # syntax
        (["enumerate", "--expr", "Ghost", "--n", "1"], 2),  # unbound
        (["count", "--expr", "E@E", "--n", "2"], 1),  # inadmissible composition
        (["series", "--expr", "park(E", "--order", "2"], 2),
        # The lexicon is ASCII: other digits are neither misread nor a traceback.
        (["count", "--expr", "X^²", "--n", "1"], 2),
        (["count", "--expr", "X^١", "--n", "1"], 2),
        (["count", "--expr", "park(E, table(١,٢,٣))", "--n", "1"], 2),
    ],
)
def test_error_exit_codes(capsys, argv, rc):
    got, _ = run(capsys, argv)
    assert got == rc


LEAF = {"root": {"k": "set", "labels": []}, "children": []}


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["count", "--expr", "park(E)", "--n", "-3"], None),
        (["enumerate", "--expr", "E", "--n", "-2"], None),
        (["enumerate", "--expr", "E", "--n", "-2", "--count-only"], None),
        (["series", "--expr", "park(E)", "--order", "-1"], None),
        (["series", "--expr", "L", "--order", "-1"], None),
        (["series", "--expr", "tree(E)", "--order", "-1"], None),
        (["biject", "--expr", "E", "--direction", "p2t"], "not json"),
        (["biject", "--expr", "E", "--direction", "p2t"], "[" * 100_000),
        (["biject", "--expr", "E", "--direction", "p2t"], EXAMPLE_PARKING + "\n{\n"),
        (["biject", "--expr", "E", "--direction", "t2p", "--input", "no/such/file.json"], None),
        (
            ["biject", "--expr", "E", "--direction", "t2p"],
            json.dumps({"root": {"k": "set", "labels": [1]}, "children": [{"label": 1}]}),
        ),
        (
            ["biject", "--expr", "E", "--direction", "t2p"],
            json.dumps(
                {
                    "root": {"k": "set", "labels": [1]},
                    "children": [{"label": True, "subtree": LEAF}],
                }
            ),
        ),
        (
            ["biject", "--expr", "E", "--direction", "t2p"],
            json.dumps({"root": {"k": "set", "labels": [1]}, "children": [5]}),
        ),
        (["biject", "--expr", "E", "--direction", "p2t"], json.dumps({"chi": 5, "seq": []})),
        (["biject", "--expr", "E", "--direction", "p2t"], json.dumps({"chi": "id", "seq": 5})),
        (
            # Par slot whose outer structure sits on 2, not on its block's minimum 1.
            ["biject", "--expr", "Par", "--direction", "p2t"],
            json.dumps(
                {
                    "chi": "id",
                    "seq": [
                        {
                            "k": "comp",
                            "outer": {"k": "set", "labels": [2]},
                            "blocks": [{"labels": [1, 2], "in": {"k": "set", "labels": [1, 2]}}],
                        },
                        {"k": "comp", "outer": {"k": "set", "labels": []}, "blocks": []},
                        {"k": "comp", "outer": {"k": "set", "labels": []}, "blocks": []},
                    ],
                }
            ),
        ),
        (["series", "--expr", "E", "--order", "10000000000000000000"], None),
        (["verify", "--max-n", "-1"], None),
        pytest.param(
            # A path 1200 deep, one slot short: invalid however deep it is.
            ["biject", "--expr", "E", "--direction", "p2t"],
            json.dumps({"chi": "id", "seq": [{"k": "set", "labels": [i]} for i in range(1, 1201)]}),
            id="p2t-1200-label-chain-short-a-slot",
        ),
        (["count", "--expr", "(" * 400 + "X" + ")" * 400, "--n", "1"], None),
        (["count", "--expr", "1+" * 3000 + "X", "--n", "1"], None),
        (["series", "--expr", "X*" * 1200 + "1", "--order", "2"], None),
        (["define-dump", "--define", "A:=" + "X*" * 1200 + "1"], None),
        # 2**62 + 1 coefficients: the list size check fails before any allocation.
        (["series", "--expr", "E", "--order", str(2**62)], None),
        # Head 1 carries two subtrees.
        (
            ["biject", "--expr", "E", "--direction", "t2p"],
            json.dumps(
                {
                    "root": {"k": "set", "labels": [1]},
                    "children": [{"label": 1, "subtree": LEAF}, {"label": 1, "subtree": LEAF}],
                }
            ),
        ),
    ],
)
def test_bad_input_is_one_error_line(capsys, monkeypatch, argv, stdin):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "direction, doc",
    [
        ("p2t", {"chi": "id", "seq": [{"k": "set", "labels": [1, 1]}, {"k": "set", "labels": []}]}),
        ("t2p", {"root": {"k": "set", "labels": [1, 1]}, "children": [{"label": 1, "subtree": LEAF}]}),
    ],
)
def test_biject_rejects_a_repeated_label(capsys, monkeypatch, direction, doc):
    # Read as the set {1}, either document would convert without a word.
    argv = ["biject", "--expr", "E", "--direction", direction]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    rc = main(argv)
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == "error: labels must be distinct, got [1, 1]\n"


def test_biject_rejects_an_object_where_an_array_belongs(capsys, monkeypatch):
    # Read as empty arrays, the document would convert to one empty slot.
    doc = {"root": {"k": "set", "labels": {}}, "children": {}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    rc = main(["biject", "--expr", "E", "--direction", "t2p"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == "error: children must be an array, got {}\n"


def test_biject_error_line_echoes_a_large_document_in_part(capsys, monkeypatch):
    # 3,001 slots under an unknown "k": the error line holds the first 200
    # characters of the document, not all of it.
    seq = [{"k": "set", "labels": [i]} for i in range(1, 3001)] + [{"k": "set", "labels": []}]
    doc = json.dumps({"k": "park", "chi": "id", "seq": seq})
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    rc = main(["biject", "--expr", "E", "--direction", "p2t"])
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert (rc, captured.out) == (1, "")
    assert line.startswith("error: unrecognized structure JSON: {'k': 'park', 'chi': 'id', 'seq': [")
    assert len(line) < 300 and line.endswith(" more characters)")


def chain_tree_text(n):
    """Canonical text of the path 1 -> 2 -> ... -> n, built from the leaf up."""
    text = '{"children":[],"root":{"k":"set","labels":[]}}'
    for label in range(n, 0, -1):
        text = (
            f'{{"children":[{{"label":{label},"subtree":{text}}}],'
            f'"root":{{"k":"set","labels":[{label}]}}}}'
        )
    return text


@pytest.mark.parametrize("n", [1000, 1200])
def test_biject_p2t_builds_a_deep_chain_tree(capsys, monkeypatch, n):
    # Slot i holds label i, so the tree is a path n deep, past the recursion
    # limit: building it (and validating the parking) must not recurse.
    doc = json.dumps(
        {"chi": "id", "seq": [{"k": "set", "labels": [i]} for i in range(1, n + 1)]
         + [{"k": "set", "labels": []}]}
    )
    argv = ["biject", "--expr", "E", "--direction", "p2t"]
    rc, out = run(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
    assert rc == 0 and out == chain_tree_text(n) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--expr", "park(E, table(1,2))", "--n", "3"],
        ["series", "--expr", "park(E, table(1,2))", "--order", "2"],
    ],
)
def test_chi_table_horizon_error_names_the_written_table(capsys, argv):
    # The recursion runs out on a shifted table; the error is stated on the
    # table as written: a structure on 2 labels has chi(3) slots.
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: chi table(1,2) has 2 entries, needed chi(3)\n"


# -- series --------------------------------------------------------------------------


def test_series_json_with_string_counts(capsys):
    rc, out = run(capsys, ["series", "--expr", "park(Par)", "--order", "5"])
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == 5
    assert data["counts"] == ["1", "1", "4", "29", "311", "4447"]


def test_series_prints_counts_past_the_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    rc, out = run(capsys, ["series", "--expr", "L", "--order", "1700"])
    assert rc == 0
    # 1700! has 4,756 digits; Decimal parses them without the int limit.
    assert Decimal(json.loads(out)["counts"][1700]) == math.factorial(1700)
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_series_zero(capsys):
    rc, out = run(capsys, ["series", "--expr", "0", "--order", "3"])
    assert json.loads(out)["counts"] == ["0", "0", "0", "0"]


# -- biject ---------------------------------------------------------------------------


def test_biject_worked_example_forward(capsys, monkeypatch):
    rc, out = run(
        capsys,
        ["biject", "--expr", "E", "--direction", "p2t"],
        stdin=EXAMPLE_PARKING,
        monkeypatch=monkeypatch,
    )
    assert rc == 0
    forest = json.loads(out)
    assert sorted(c["label"] for c in forest["children"]) == [2, 3]


def test_biject_round_trip_via_files(capsys, monkeypatch, tmp_path):
    rc, tree_text = run(
        capsys,
        ["biject", "--expr", "E", "--direction", "p2t"],
        stdin=EXAMPLE_PARKING,
        monkeypatch=monkeypatch,
    )
    assert rc == 0
    path = tmp_path / "forest.json"
    path.write_text(tree_text)
    rc, back = run(
        capsys,
        ["biject", "--expr", "E", "--direction", "t2p", "--input", str(path)],
    )
    assert rc == 0
    assert json.loads(back) == json.loads(EXAMPLE_PARKING)


def test_biject_round_trip_canonicalizes_affine_identity(capsys, monkeypatch):
    doc = EXAMPLE_PARKING.replace('"chi": "id"', '"chi": "affine(1,0)"')
    argv = ["biject", "--expr", "E", "--direction"]
    rc, tree_text = run(capsys, argv + ["p2t"], stdin=doc, monkeypatch=monkeypatch)
    assert rc == 0
    rc, back = run(capsys, argv + ["t2p"], stdin=tree_text, monkeypatch=monkeypatch)
    assert rc == 0
    assert back == serialize(from_jsonable(json.loads(doc))) + "\n"


def test_biject_rejects_non_identity_chi(capsys, monkeypatch):
    doc = json.dumps(
        {
            "chi": "affine(1,1)",
            "seq": [
                {"k": "set", "labels": [1]},
                {"k": "set", "labels": []},
                {"k": "set", "labels": []},
            ],
        }
    )
    rc, _ = run(
        capsys,
        ["biject", "--expr", "E", "--direction", "p2t"],
        stdin=doc,
        monkeypatch=monkeypatch,
    )
    assert rc == 1


def test_biject_rejects_wrong_kind(capsys, monkeypatch):
    rc, _ = run(
        capsys,
        ["biject", "--expr", "E", "--direction", "t2p"],
        stdin=EXAMPLE_PARKING,
        monkeypatch=monkeypatch,
    )
    assert rc == 1


def test_biject_t2p_names_a_head_listed_twice_out_of_order(capsys, monkeypatch):
    other = {"root": {"k": "set", "labels": [3]}, "children": [{"label": 3, "subtree": LEAF}]}
    children = [{"label": 2, "subtree": LEAF}, {"label": 1, "subtree": LEAF}, {"label": 2, "subtree": other}]
    doc = json.dumps({"root": {"k": "set", "labels": [1, 2]}, "children": children})
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    rc = main(["biject", "--expr", "E", "--direction", "t2p"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == ["error: children keys [1, 2, 2] != root labels [1, 2]"]


def set_json(*labels) -> dict:
    return {"k": "set", "labels": list(labels)}


def tree_json(labels, children=()) -> dict:
    return {"root": set_json(*labels), "children": [{"label": h, "subtree": s} for h, s in children]}


# Each document biject rejects by validation, with the one error line it
# prints; a structure that breaks several rules is named by the first check.
BIJECT_ERRORS = [
    ("E", "p2t", {"chi": "id", "seq": [set_json(1), set_json(1), set_json()]},
     "slot underlying sets are not disjoint"),
    ("E", "p2t", {"chi": "id", "seq": [set_json(1)]}, "sequence length 1 != chi(u+1) = 2"),
    ("E", "p2t", {"chi": "id", "seq": [set_json(), set_json(1)]},
     "block sizes violate the parking condition"),
    ("E", "p2t", {"chi": "id", "seq": [{"k": "atom", "label": 1}, set_json()]},
     "entry on [1] is not a base-species structure"),
    ("E", "p2t", {"chi": "affine(1,1)", "seq": [set_json(1), set_json(), set_json()]},
     "the bijection is defined for the identity chi"),
    # A structure that is neither valid nor on the identity chi: the validation names it.
    ("E", "p2t", {"chi": "affine(1,1)", "seq": [set_json(1)]},
     "sequence length 1 != chi(u+1) = 3"),
    ("X", "p2t", {"chi": "affine(1,1)", "seq": [set_json(1), set_json(), set_json()]},
     "entry on [1] is not a base-species structure"),
    ("E", "p2t", {"chi": "table(1)", "seq": [set_json(1)]}, "chi table(1) has 1 entries, needed chi(2)"),
    # A head listed twice, and a child head that is no root label.
    ("E", "t2p", tree_json([1], [(1, LEAF), (1, LEAF)]), "children keys [1, 1] != root labels [1]"),
    ("E", "t2p", tree_json([1], [(2, LEAF)]), "children keys [2] != root labels [1]"),
    ("E", "t2p", tree_json([1], [(1, tree_json([1], [(1, LEAF)]))]), "label reuse under head 1"),
    ("E", "t2p", tree_json([1, 2], [(1, tree_json([3], [(3, LEAF)])), (2, tree_json([3], [(3, LEAF)]))]),
     "label reuse under head 2"),
    ("X", "t2p", tree_json([1], [(1, LEAF)]), "root on [1] is not a base-species structure"),
    ("X", "t2p", tree_json([1, 2], [(1, LEAF), (2, LEAF)]), "root on [1, 2] is not a base-species structure"),
]


@pytest.mark.parametrize("base, direction, doc, error", BIJECT_ERRORS)
def test_biject_names_each_invalid_document_in_one_line(capsys, monkeypatch, base, direction, doc, error):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    rc = main(["biject", "--expr", base, "--direction", direction])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize("base", ["E", "Par"])
def test_biject_validates_each_document_once(capsys, monkeypatch, base):
    env = SpeciesEnv.standard()
    park = Park(parse_species(base, env), ChiMap.identity())
    parks = [serialize(p) for n in range(4) for p in Generator(env).raw(park, canonical_labels(n))]
    entries = []

    def counting(name):
        original = getattr(membership, name)

        def counted(*args):
            entries.append(name)
            return original(*args)

        return counted

    for name in ("_parking", "_tree"):
        monkeypatch.setattr(membership, name, counting(name))
    argv = ["biject", "--expr", base, "--direction"]
    rc, trees = run(capsys, argv + ["p2t"], stdin="\n".join(parks), monkeypatch=monkeypatch)
    assert rc == 0 and entries == ["_parking"] * len(parks)
    entries.clear()
    rc, back = run(capsys, argv + ["t2p"], stdin=trees, monkeypatch=monkeypatch)
    assert rc == 0 and back.splitlines() == parks and entries == ["_tree"] * len(parks)


def forbid_listing(monkeypatch):
    """Make any generation over a non-empty label set fail, in either fold."""
    original = generate._Fold.__call__

    def guarded(self, expr, labels):
        assert not labels, f"listed {expr_to_text(expr)} on {sorted(labels)}"
        return original(self, expr, labels)

    monkeypatch.setattr(generate._Fold, "__call__", guarded)


@pytest.mark.parametrize("base", ["E", "L", "Par"])
def test_biject_validates_without_listing_structures(capsys, monkeypatch, base):
    env = SpeciesEnv.standard()
    park = Park(parse_species(base, env), ChiMap.identity())
    parks = [serialize(p) for n in range(4) for p in Generator(env).raw(park, canonical_labels(n))]
    forbid_listing(monkeypatch)
    argv = ["biject", "--expr", base, "--direction"]
    rc, trees = run(capsys, argv + ["p2t"], stdin="\n".join(parks), monkeypatch=monkeypatch)
    assert rc == 0 and len(trees.splitlines()) == len(parks)
    rc, back = run(capsys, argv + ["t2p"], stdin=trees, monkeypatch=monkeypatch)
    assert rc == 0 and back.splitlines() == parks


def linear_order(labels) -> dict:
    """The JSON of the L-structure (L = 1 + X*L) that lists labels in order."""
    s = {"k": "sum", "side": "L", "in": {"k": "unit"}}
    for label in reversed(labels):
        s = {"k": "sum", "side": "R", "in": {"k": "prod", "l": {"k": "atom", "label": label}, "r": s}}
    return s


def test_biject_long_linear_order_slot_round_trips(capsys, monkeypatch):
    # Checking the first slot by listing would build all 10! linear orders.
    doc = json.dumps({"chi": "id", "seq": [linear_order(range(1, 11))] + [linear_order([])] * 10})
    forbid_listing(monkeypatch)
    argv = ["biject", "--expr", "L", "--budget", "64", "--direction"]
    rc, tree = run(capsys, argv + ["p2t"], stdin=doc, monkeypatch=monkeypatch)
    assert rc == 0
    rc, back = run(capsys, argv + ["t2p"], stdin=tree, monkeypatch=monkeypatch)
    assert rc == 0 and back == serialize(from_jsonable(json.loads(doc))) + "\n"


def test_biject_round_trips_a_300_label_chain(capsys, monkeypatch):
    # Each slot but the last parks one label, so the tree is a path 300 deep;
    # writing it must not run into the interpreter's recursion limit.
    seq = [{"k": "set", "labels": [label]} for label in range(1, 301)]
    doc = {"chi": "id", "seq": seq + [{"k": "set", "labels": []}]}
    argv = ["biject", "--expr", "E", "--direction"]
    rc, tree = run(capsys, argv + ["p2t"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert rc == 0
    rc, back = run(capsys, argv + ["t2p"], stdin=tree, monkeypatch=monkeypatch)
    assert rc == 0 and json.loads(back) == doc


def test_biject_round_trips_a_2000_label_chain(capsys, monkeypatch):
    # The tree text nests 3 levels per label, 6000 in all: json.loads gives up
    # on it, and the reader that takes over holds its open containers itself.
    n = 2000
    seq = [{"k": "set", "labels": [label]} for label in range(1, n + 1)]
    doc = {"chi": "id", "seq": seq + [{"k": "set", "labels": []}]}
    argv = ["biject", "--expr", "E", "--direction"]
    rc, tree = run(capsys, argv + ["p2t"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert rc == 0 and tree == chain_tree_text(n) + "\n"
    rc, back = run(capsys, argv + ["t2p"], stdin=tree, monkeypatch=monkeypatch)
    assert rc == 0 and json.loads(back) == doc


@pytest.mark.parametrize(
    "text",
    [
        chain_tree_text(2000)[:-1],  # one closing brace short
        chain_tree_text(2000) + "}",
        chain_tree_text(2000).replace(',"root"', '"root"', 1),  # at the leaf
        "".join(chain_tree_text(2000).rsplit(":", 1)),  # at the top, read last
        "[" * 10_000,
        "[" * 5_000 + "1," + "]" * 5_000,
    ],
    ids=["short", "extra", "no-comma", "no-colon", "unclosed", "trailing-comma"],
)
def test_biject_deep_malformed_json_is_one_error_line(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc = main(["biject", "--expr", "E", "--direction", "t2p"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read JSON input: ")


def test_biject_is_not_bound_by_the_generation_budget(capsys, monkeypatch):
    empty = {"k": "set", "labels": []}
    doc = json.dumps({"chi": "id", "seq": [{"k": "set", "labels": list(range(1, 13))}] + [empty] * 12})
    rc, out = run(capsys, ["biject", "--expr", "E", "--direction", "p2t"], stdin=doc, monkeypatch=monkeypatch)
    assert rc == 0 and json.loads(out)["root"] == {"k": "set", "labels": list(range(1, 13))}


@pytest.mark.parametrize(
    "define, base, slot, expected",
    [
        # The least fixed point of A = A is empty.
        ("A:=A", "A", {"k": "set", "labels": []}, "error: entry on [] is not a base-species structure"),
        # A = 1 + A has infinitely many structures on the empty set; this is one.
        (
            "A:=1+A",
            "A",
            {"k": "sum", "side": "R", "in": {"k": "sum", "side": "L", "in": {"k": "unit"}}},
            '{"children":[],"root":{"in":{"in":{"k":"unit"},"k":"sum","side":"L"},"k":"sum","side":"R"}}',
        ),
        # A = E*A has no structure anywhere.
        (
            "A:=E*A",
            "A",
            {"k": "prod", "l": {"k": "set", "labels": []}, "r": {"k": "unit"}},
            "error: entry on [] is not a base-species structure",
        ),
        (
            "A:=X",
            "E@E",
            {"k": "comp", "outer": {"k": "set", "labels": []}, "blocks": []},
            "error: composition requires the inner species to have no structure on the empty set",
        ),
    ],
    ids=["A:=A", "A:=1+A", "A:=E*A", "E@E"],
)
def test_biject_degenerate_bases(capsys, monkeypatch, define, base, slot, expected):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"chi": "id", "seq": [slot]})))
    rc = main(["biject", "--define", define, "--expr", base, "--direction", "p2t"])
    captured = capsys.readouterr()
    if expected.startswith("error: "):
        assert (rc, captured.out, captured.err) == (1, "", expected + "\n")
    else:
        assert (rc, captured.out, captured.err) == (0, expected + "\n", "")


def test_biject_streams_multiple_lines(capsys, monkeypatch):
    doc = '{"chi":"id","seq":[{"k":"set","labels":[1]},{"k":"set","labels":[]}]}'
    rc, out = run(
        capsys,
        ["biject", "--expr", "E", "--direction", "p2t"],
        stdin=doc + "\n" + doc + "\n",
        monkeypatch=monkeypatch,
    )
    assert rc == 0 and len(out.splitlines()) == 2


ONE_SLOT = '{"chi":"id","seq":[{"k":"set","labels":[1]},{"k":"set","labels":[]}]}'
ONE_SLOT_TREE = (
    '{"children":[{"label":1,"subtree":{"children":[],"root":{"k":"set","labels":[]}}}],'
    '"root":{"k":"set","labels":[1]}}'
)


def biject_p2t(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc = main(["biject", "--expr", "E", "--direction", "p2t"])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_biject_decodes_each_document_once(capsys, monkeypatch):
    starts = []
    raw_decode = json.JSONDecoder.raw_decode

    def counted(self, s, idx=0):
        starts.append(idx)
        return raw_decode(self, s, idx)

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted)
    rc, out, err = biject_p2t(capsys, monkeypatch, (ONE_SLOT + "\n") * 4)
    assert (rc, out, err) == (0, (ONE_SLOT_TREE + "\n") * 4, "")
    assert starts == [i * (len(ONE_SLOT) + 1) for i in range(4)]


def test_biject_reads_pretty_printed_documents_one_after_another(capsys, monkeypatch):
    pretty = json.dumps(json.loads(ONE_SLOT), indent=2)
    rc, out, err = biject_p2t(capsys, monkeypatch, pretty + "\n" + pretty)
    assert (rc, out, err) == (0, (ONE_SLOT_TREE + "\n") * 2, "")


@pytest.mark.parametrize("text", ["", "\n", " \t\r\n\n  "])
def test_biject_on_blank_input_prints_nothing(capsys, monkeypatch, text):
    assert biject_p2t(capsys, monkeypatch, text) == (0, "", "")


@pytest.mark.parametrize(
    "text, where",
    [
        # One pretty-printed document, broken on its third line.
        ('{\n "chi": "id",\n "seq": [,]\n}', "Expecting value: line 3 column 10 (char 25)"),
        # JSON Lines, broken on the third line.
        (
            ONE_SLOT + "\n" + ONE_SLOT + '\n{"chi":"id","seq":[,]}\n' + ONE_SLOT + "\n",
            "Expecting value: line 3 column 20 (char 159)",
        ),
        # Two documents on one line.
        (ONE_SLOT + " " + ONE_SLOT, "Extra data: line 1 column 71 (char 70)"),
    ],
    ids=["pretty", "jsonl", "one-line"],
)
def test_biject_names_where_the_json_input_breaks(capsys, monkeypatch, text, where):
    rc, out, err = biject_p2t(capsys, monkeypatch, text)
    assert (rc, out, err) == (1, "", f"error: cannot read JSON input: {where}\n")


def test_biject_on_a_file_that_is_not_text_is_one_error_line(capsys, tmp_path):
    source = tmp_path / "parking.json"
    source.write_bytes(b"\xff" + ONE_SLOT.encode())
    rc = main(["biject", "--expr", "E", "--direction", "p2t", "--input", str(source)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: cannot read JSON input: ") and captured.err.count("\n") == 1


# -- verify ----------------------------------------------------------------------------


def test_verify_small_scale_passes(capsys):
    rc, out = run(capsys, ["verify", "--suite", "paper", "--max-n", "2"])
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert all(c["ok"] for c in report["checks"])


def test_verify_catches_corrupted_golden(capsys, tmp_path):
    src = resources.files("parklike").joinpath("data/golden")
    for entry in src.iterdir():
        shutil.copy(str(entry), tmp_path / entry.name)
    victim = tmp_path / "park_linear_n3.jsonl"
    lines = victim.read_text().splitlines()
    victim.write_text("\n".join(lines[:-1]) + "\n")  # drop one structure
    rc, out = run(
        capsys,
        ["verify", "--suite", "paper", "--max-n", "3", "--golden-dir", str(tmp_path)],
    )
    assert rc == 1
    report = json.loads(out)
    bad = [c for c in report["checks"] if not c["ok"]]
    assert [c["name"] for c in bad] == ["golden-listings"]
