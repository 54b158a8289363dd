"""Every module of the package uses each name it imports and each private
function it defines, every public function or class is named by some
module of the package, no module relies on an assert statement, no module
writes an instance's __dict__ or calls rref (Gaussian elimination),
importing the CLI loads neither dataclasses nor fractions,
nor importlib.resources or tempfile, and some command calls every method
of IntPolynomial but the __eq__ the tests compare records with."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import grassmann_lab
from grassmann_lab.cli import main
from grassmann_lab.qpoly import IntPolynomial

SOURCES = sorted(Path(grassmann_lab.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
# Public entry points no module names: graph_from_json_dict reads back
# `build --format json`, graph_to_json and graph_to_dot are the JSON and
# DOT dumps as one string (the CLI writes their chunks), and matrix_digits
# writes one subspace as the graph dumps do.  The cli.cmd_* commands are
# reached by main through globals().
ENTRY_POINTS = {
    "report.graph_from_json_dict",
    "report.graph_to_dot",
    "report.graph_to_json",
    "report.matrix_digits",
}


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


def _named(path):
    """The names a module mentions: ast.Name nodes and imported aliases."""
    tree = ast.parse(path.read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | set(_imported_names(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_definition_is_named_by_the_package(path):
    # __init__ re-exports names, so an export alone does not count as a use
    named = set().union(*map(_named, MODULES))
    tree = ast.parse(path.read_text())
    public = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    unused = [
        name
        for name in public
        if name not in named
        and f"{path.stem}.{name}" not in ENTRY_POINTS
        and not (path.stem == "cli" and name.startswith("cmd_"))
    ]
    assert unused == [], f"{path.name} defines public names no module uses: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_assert_statements(path):
    # python -O strips assert statements; a self-check raises AssertionError itself
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def _writes_instance_dict(node) -> bool:
    """An assignment target of the form x.__dict__[key]."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "__dict__"
    )


def _rref_calls(tree) -> list[int]:
    """The line of each call of a function named rref."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "rref" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_no_instance_dict_writes_and_no_rref_call():
    # the graph's span table and the clique spans are constructor fields,
    # and what a graph derives it computes itself, with no cache seeded
    # behind the constructor's back; every subspace the graph path makes
    # comes out of the enumeration in RREF, and a fixture's rows are read
    # by their span, so nothing in the package runs elimination
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        writes = [node.lineno for node in ast.walk(tree) if _writes_instance_dict(node)]
        assert writes == [], f"{path.name} writes __dict__[...] on lines {writes}"
        calls = _rref_calls(tree)
        assert calls == [], f"{path.name} calls rref on lines {calls}"


# Each CLI command pays this import before it computes anything; dataclasses
# (with inspect) and fractions (with decimal) would be most of its cost.
# Under -S no site module preloads anything, so the second run also sees
# importlib.resources and tempfile, which a package-data lookup would load.
STARTUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import grassmann_lab.cli
print(*sorted(set(sys.argv[2:]) & set(sys.modules)))
"""


def test_the_cli_imports_neither_dataclasses_nor_fractions():
    src = Path(grassmann_lab.__file__).parents[1]
    for flags, unwanted in (
        (["-I"], ["dataclasses", "fractions"]),
        (["-I", "-S"], ["dataclasses", "fractions", "importlib.resources", "tempfile"]),
    ):
        r = subprocess.run(
            [sys.executable, *flags, "-c", STARTUP_CODE, str(src), *unwanted],
            capture_output=True, text=True, timeout=60,
        )
        assert r.returncode == 0, r.stderr
        loaded = r.stdout.split()
        assert loaded == [], f"python {' '.join(flags)}: import grassmann_lab.cli loads {loaded}"


# IntPolynomial keeps __eq__ for the tests, which compare records by value;
# every other method must be reached by some command.
KEPT_FOR_TESTS = {"__eq__"}


def test_every_int_polynomial_method_is_called_by_a_command(monkeypatch, capsys):
    called = set()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapped

    methods = []
    for name, attr in list(vars(IntPolynomial).items()):
        if isinstance(attr, property):
            monkeypatch.setattr(IntPolynomial, name, property(spy(name, attr.fget)))
        elif callable(attr):
            monkeypatch.setattr(IntPolynomial, name, spy(name, attr))
        else:
            continue
        methods.append(name)
    for argv in (
        "qbinom --n 8 --m 3 --format text",
        "qbinom --n 8 --m 3 --at 4 --q-max 64",
        "qbinom --n 9 --m 4 --at 5",
        "scan --n 8 --m 3 --q-max 64",
        "coreness --q 2 --n 5 --m 2",
    ):
        assert main(argv.split()) == 0, argv
    capsys.readouterr()
    assert {"__init__", "__divmod__", "__str__", "degree", "is_zero"} <= set(methods)
    unused = sorted(set(methods) - called - KEPT_FOR_TESTS)
    assert unused == [], f"IntPolynomial methods no command calls: {unused}"
