import io
import json
import math
import shutil
import sys
from decimal import Decimal
from importlib import resources

import pytest

from parklike.cli import main
from parklike.structures import from_jsonable, serialize

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


@pytest.mark.parametrize(
    "expr, n, expected", [("E^3000", 0, "1"), ("E^600", 1, "600"), ("X*E^600", 2, "1200")]
)
def test_count_deep_powers(capsys, expr, n, expected):
    # One interpreter frame per exponent step would pass the recursion limit.
    rc, out = run(capsys, ["count", "--expr", expr, "--n", str(n)])
    assert rc == 0 and out.strip() == expected


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


# -- exit codes ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["enumerate", "--expr", "L*", "--n", "1"], 2),  # syntax
        (["enumerate", "--expr", "Ghost", "--n", "1"], 2),  # unbound
        (["count", "--expr", "E@E", "--n", "2"], 1),  # inadmissible composition
        (["series", "--expr", "park(E", "--order", "2"], 2),
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


def test_biject_streams_multiple_lines(capsys, monkeypatch):
    doc = '{"chi":"id","seq":[{"k":"set","labels":[1]},{"k":"set","labels":[]}]}'
    rc, out = run(
        capsys,
        ["biject", "--expr", "E", "--direction", "p2t"],
        stdin=doc + "\n" + doc + "\n",
        monkeypatch=monkeypatch,
    )
    assert rc == 0 and len(out.splitlines()) == 2


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
