"""Module-level invariants: one rule table per evaluator, no deferred imports."""

import ast
import typing
from pathlib import Path

import pytest

from parklike import (
    Generator,
    accepts,
    egf_of_species,
    expr,
    generate,
    membership,
    series,
    structures,
)
from parklike.expr import SpeciesExpr
from parklike.structures import UNIT

SRC = Path(__file__).resolve().parents[1] / "src" / "parklike"


@pytest.mark.parametrize(
    "table",
    [generate._RULES, series._RULES, expr._RENDER, membership._RULES, series._SLOPES],
    ids=[
        "parklike.generate",
        "parklike.series",
        "parklike.expr",
        "parklike.membership",
        "parklike.series-slopes",
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


@pytest.mark.parametrize("name", ["parking.py", "treelike.py"])
def test_value_modules_import_nothing_from_generate(name):
    # Validation reads membership off the value; it needs no generator.
    tree = ast.parse((SRC / name).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "generate" and "generate" not in {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.endswith("generate") for a in node.names)


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
