"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import grassmann_lab

MODULES = sorted(
    p for p in Path(grassmann_lab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
