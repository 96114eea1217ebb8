"""Only the model and the file reader know objective types.

model.py validates objectives and compiles them into the contraction plan,
and fileio.py parses them; every other module (the map, the certificates,
the flows) reads the plan, so none of them names an objective class.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "coopt").glob("*.py"))
OBJECTIVE_TYPES = {"DenseTable", "DenseEnergy", "DenseUtility", "PairwiseEnergy"}
OWNERS = {"model.py", "fileio.py"}


def names(tree: ast.AST) -> set[str]:
    """Every identifier the module reads, binds, imports or takes as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.update((node.name.rsplit(".", 1)[-1], node.asname))
    return found


def test_model_defines_the_types():
    model = next(path for path in SOURCES if path.name == "model.py")
    assert OBJECTIVE_TYPES <= names(ast.parse(model.read_text()))


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in OWNERS], ids=lambda p: p.name
)
def test_no_objective_type_outside_the_model_and_the_reader(path):
    assert not OBJECTIVE_TYPES & names(ast.parse(path.read_text()))
