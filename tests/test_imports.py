"""Every module of the package uses each name it imports and each private
function it defines, and no module relies on an assert statement."""

import ast
from pathlib import Path

import pytest

import grassmann_lab

SOURCES = sorted(Path(grassmann_lab.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_function_is_used(path):
    tree = ast.parse(path.read_text())
    private = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    }
    unused = []
    for name, definition in private.items():
        outside = (node for top in tree.body if top is not definition for node in ast.walk(top))
        if not any(isinstance(node, ast.Name) and node.id == name for node in outside):
            unused.append(name)
    assert unused == [], f"{path.name} defines private functions it never calls: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_assert_statements(path):
    # python -O strips assert statements; a self-check raises AssertionError itself
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"
