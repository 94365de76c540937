"""Module-level invariants: one rule table per evaluator, no deferred imports."""

import argparse
import ast
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from parklike import (
    Generator,
    accepts,
    cli,
    egf_of_species,
    expr,
    generate,
    membership,
    series,
    structures,
    verify,
)
from parklike.expr import SpeciesExpr
from parklike.structures import UNIT

SRC = Path(__file__).resolve().parents[1] / "src" / "parklike"


@pytest.mark.parametrize(
    "table",
    [generate._RULES, series._RULES, expr._RENDER, membership._RULES],
    ids=[
        "parklike.generate",
        "parklike.series",
        "parklike.expr",
        "parklike.membership",
    ],
)
def test_rule_table_covers_every_node_type(table):
    assert set(table) == set(typing.get_args(SpeciesExpr))


def test_text_table_covers_every_structure_type():
    assert set(structures._TEXT) == set(typing.get_args(structures.Structure))


def test_non_expression_is_a_type_error():
    with pytest.raises(TypeError, match="not a species expression"):
        Generator().count(object(), 1)
    with pytest.raises(TypeError, match="not a species expression"):
        egf_of_species(object(), order=2)
    with pytest.raises(TypeError, match="not a species expression"):
        accepts(object(), UNIT)


def imports_from(name: str, module: str) -> bool:
    """Whether the source file name imports the package module, or from it."""
    for node in ast.walk(ast.parse((SRC / name).read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.module == module or module in {a.name for a in node.names}:
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.endswith(module) for a in node.names):
                return True
    return False


@pytest.mark.parametrize("name", ["parking.py", "treelike.py"])
def test_value_modules_import_nothing_from_generate(name):
    # Validation reads membership off the value; it needs no generator.
    assert not imports_from(name, "generate")


def test_generate_imports_nothing_from_series():
    # Generation is a route of its own: count folds the generation rules and
    # never reads a generating series, or the cross-checks would prove nothing.
    assert not imports_from("generate.py", "series")
    assert imports_from("series.py", "memo") and imports_from("generate.py", "memo")


# The attributes of a Memo's solve state, and `_round`, a round store's usual name.
_SOLVE_STATE = ("round", "read", "solving", "_round")


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "memo.py"),
    ids=lambda p: p.name,
)
def test_solve_state_is_kept_in_memo_only(path):
    # memo.Memo alone decides what a solve keeps, for both routes: no other
    # module defines a round store, or assigns to, deletes or calls a method
    # of a Memo's round store, read log or solves in progress.
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            for part in ast.walk(target):
                assert not (isinstance(part, ast.Attribute) and part.attr in _SOLVE_STATE), (
                    f"{path.name}:{node.lineno} changes solve state outside memo.py"
                )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_imports(path):
    # An import deferred into a function body is how an import cycle hides.
    tree = ast.parse(path.read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"{path.name}:{node.lineno} imports inside {fn.name}()"
                )


# The keys only structure JSON uses; "k", "l", "r", "in", "label" and "chi"
# are too short or too common to tell a JSON writer by.
_JSON_KEYS = ("children", "subtree", "seq", "blocks", "labels", "outer", "root")


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "structures.py"),
    ids=lambda p: p.name,
)
def test_structure_json_is_written_and_read_in_structures_only(path):
    # A second writer of the format would spell its keys as dict-display keys,
    # as subscripts, or quoted inside text; series.py's "outer" is the name
    # of an expression field, which none of these is.
    source = path.read_text()
    assert "to_jsonable" not in source
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript):
            keys = [node.slice]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert not any(f'"{key}"' in node.value for key in _JSON_KEYS), (
                f"{path.name}:{node.lineno} writes structure JSON"
            )
            continue
        else:
            continue
        for key in keys:
            assert not (isinstance(key, ast.Constant) and key.value in _JSON_KEYS), (
                f"{path.name}:{node.lineno} reads or writes structure JSON"
            )


# Each key as a text spells it: "k" with its kind, and every other key with
# its colon.
_KINDS = ("unit", "set", "atom", "sum", "prod", "comp")
_KEYS = ("l", "r", "in", "label", "side", "chi", *_JSON_KEYS)


def test_each_structure_key_is_spelled_once():
    # serialize and the writers of both styles are built from one table of
    # the format's pieces, so a key spelled twice is a second writer.  Two
    # keys belong to two kinds each: "in" to a sum and a composition block,
    # "label" to an atom and a tree's child.  The spaced pieces are derived
    # from the table, never spelled.
    strings = [
        node.value for node in ast.walk(ast.parse((SRC / "structures.py").read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    spellings = [f'"k":"{kind}"' for kind in _KINDS] + [f'"{key}":' for key in _KEYS]
    for spelling in spellings:
        count = sum(text.count(spelling) for text in strings)
        assert count == (2 if spelling in ('"in":', '"label":') else 1), f"{spelling}: {count}"
        spaced = spelling.replace(":", ": ")
        assert not any(spaced in text for text in strings), f"{spaced} is spelled"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "structures.py"),
    ids=lambda p: p.name,
)
def test_json_text_is_decoded_in_structures_only(path):
    # structures.read_json is the one reader of JSON text, so every input
    # meets the same depth handling and the same error positions.
    for node in ast.walk(ast.parse(path.read_text())):
        # An attribute, a name, or an imported or defined name.
        name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
        assert name not in ("loads", "load", "JSONDecoder", "raw_decode"), (
            f"{path.name}:{getattr(node, 'lineno', '?')} decodes JSON text"
        )


def _calls_itself(fn, method: bool) -> bool:
    """Whether fn calls its own name; a method, also as an attribute of
    anything but a node's root (a base structure's method of that name)."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if method and isinstance(f, ast.Attribute) and f.attr == fn.name:
            if not (isinstance(f.value, ast.Attribute) and f.value.attr == "root"):
                return True
    return False


def _tree_walks():
    """Every function of treelike.py and bijection.py, nested ones included,
    every TreeLike method, and the tree JSON reader, as (name, node, method)."""
    for name in ("treelike.py", "bijection.py"):
        for fn in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(fn, ast.FunctionDef):
                yield f"{name}:{fn.name}", fn, False
    for top in ast.parse((SRC / "structures.py").read_text()).body:
        if isinstance(top, ast.ClassDef) and top.name == "TreeLike":
            for fn in ast.walk(top):
                if isinstance(fn, ast.FunctionDef):
                    yield f"TreeLike.{fn.name}", fn, True
        elif isinstance(top, ast.FunctionDef) and top.name == "_tree_from_jsonable":
            yield "structures._tree_from_jsonable", top, False


_TREE_WALKS = list(_tree_walks())


@pytest.mark.parametrize("name, fn, method", _TREE_WALKS, ids=[w[0] for w in _TREE_WALKS])
def test_tree_walks_do_not_recurse(name, fn, method):
    # A tree nests one level per label, so a walk that calls itself per level
    # runs out of interpreter frames on a deep enough tree.
    assert not _calls_itself(fn, method), f"{name} calls itself"


def _generate_functions() -> dict:
    tree = ast.parse((SRC / "generate.py").read_text())
    return {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}


@pytest.mark.parametrize("name", ["iter_set_partitions", "_label_shares", "_size_partitions", "_size_shares"])
def test_partition_and_share_walks_are_the_one_placement_walk(name):
    # Labels or sizes, with or without a part of its own: one walk, so the
    # count fold meets each size pattern where the list fold first meets it.
    calls = [node.func.id for node in ast.walk(_generate_functions()[name])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls.count("_placements") == 1


def test_only_the_placement_walk_loops_over_a_stack():
    def loops_over_a_stack(fn):
        return any(isinstance(node, ast.While) and ast.unparse(node.test) == "stack"
                   for node in ast.walk(fn))

    assert [name for name, fn in _generate_functions().items() if loops_over_a_stack(fn)] == ["_placements"]


def test_membership_builds_generators_only_in_its_entry_points():
    # A check carries one generator through every rule; a rule that built its
    # own would build one per node of the value.
    entry_points = {"accepts", "validate_parking", "validate_tree"}
    for top in ast.parse((SRC / "membership.py").read_text()).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "module scope"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                assert name != "Generator" or owner in entry_points, (
                    f"membership.py:{node.lineno} builds a Generator in {owner}"
                )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclass_decorators_or_typing(path):
    # Values are Frozen subclasses (frozen.py): nothing generates code for a
    # class at import, and no module pays for importing typing.
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(target, "id", None) or getattr(target, "attr", None)
                assert name != "dataclass", f"{path.name}:{node.lineno} {node.name} is a dataclass"
        elif isinstance(node, ast.Import):
            assert "typing" not in {a.name for a in node.names}, f"{path.name}:{node.lineno}"
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "typing", f"{path.name}:{node.lineno}"


_IMPORT_ONLY = ("typing", "importlib.resources", "tempfile", "shutil", "pathlib")


def test_a_clean_interpreter_runs_the_cli_without_import_only_modules():
    # -S: no site-packages, as a bare interpreter starts; -X importtime lists
    # every module the run imports, on stderr.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    argv = [sys.executable, "-S", "-X", "importtime", "-m", "parklike.cli", "count", "--expr", "L", "--n", "5"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "120\n"), proc.stderr[-2000:]
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "parklike.frozen" in imported and "argparse" in imported
    assert not imported & set(_IMPORT_ONLY)


_PROPERTY_FAILS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_passing_test():
    pass


def test_a_deprecation_warning_of_our_own():
    warnings.warn("ours", DeprecationWarning)
'''


def test_a_failing_property_fails_alone_under_the_warning_filters(tmp_path):
    # Reporting a failing property imports libcst, which warns on import;
    # under "error" that stopped the pytest run with an INTERNALERROR.  A
    # warning raised by a test itself must still fail it.
    (tmp_path / "test_probe.py").write_text(_PROPERTY_FAILS)
    config = SRC.parents[1] / "pyproject.toml"
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
            "--rootdir", str(tmp_path), "test_probe.py"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "2 failed, 1 passed" in proc.stdout
    assert "FAILED test_probe.py::test_a_deprecation_warning_of_our_own" in proc.stdout
    assert "DeprecationWarning: ours" in proc.stdout


def _calls(fn) -> set:
    """The names a function definition calls directly."""
    return {
        node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_the_parking_condition_is_checked_by_is_parking_blocks_alone():
    # The classical parking functions meet the condition through
    # pf_to_blocks, which builds the blocks and sizes them under the
    # identity chi; no second statement of the condition is kept.
    tree = ast.parse((SRC / "parking.py").read_text())
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert "is_parking_blocks" in _calls(fns["pf_to_blocks"])
    for name in ("validate_parking_function", "blocks_to_pf"):
        calls = _calls(fns[name])
        assert "pf_to_blocks" in calls and "is_parking_blocks" not in calls, name
    called = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "is_parking_blocks"]
    assert len(called) == 1


def test_each_command_and_suite_is_spelled_once():
    # One table gives each command its handler, help line and flags, and one
    # table gives each verify suite its checks; the CLI reads both.
    tree = ast.parse((SRC / "cli.py").read_text())
    add_parser = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "add_parser"
    ]
    assert len(add_parser) == 1
    (commands,) = [a.choices for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    constants = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    assert {name: constants.count(name) for name in commands} == dict.fromkeys(commands, 1)
    (suite,) = [a for a in commands["verify"]._actions if a.dest == "suite"]
    assert suite.choices == list(verify.SUITES)
    tree = ast.parse((SRC / "verify.py").read_text())
    (run_suite,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "run_suite"]
    for node in ast.walk(run_suite):
        if isinstance(node, ast.Compare):
            assert not any(isinstance(c, ast.Constant) and isinstance(c.value, str) for c in node.comparators), (
                f"verify.py:{node.lineno} compares a suite name in run_suite"
            )
