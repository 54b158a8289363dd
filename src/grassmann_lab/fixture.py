"""The J_2(4,2) fixture: an omega-colouring certificate, checked as every witness is.

File format: one block per matrix (a label line ``A<k>`` followed by the
matrix rows as digit strings, 0-9 then a-z per entry, then a blank line),
and after the blocks one line per set, ``L<k>: A.. A.. ...``.  The shipped
file lists the 35 vertices of J_2(4,2) by 2x4 matrices and splits their
labels into 7 sets, one per colour: the paper's proper 7-colouring, which
composed with a star is a colouring endomorphism.

fixture_matrices reads each block's rows as field elements, and refuses
rows that are no matrix over GF(q); the CLI calls it as soon as the file
is read, before the coreness search.  check_fixture takes each label to
the vertex whose mask is the span of its rows (subspaces._row_span), so
a matrix that is not in RREF, or has more rows than its rank, still
lands on its row space, and no elimination runs.  The k-th set in name
order (sets with no labels left out) is colour k, and
build_colouring_endomorphism, the check core_test gives every search
witness, checks the colouring against the star G.stars[0].
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .coreness import build_colouring_endomorphism
from .graph import GrassmannGraph
from .subspaces import _row_span


class Fixture(NamedTuple):
    matrices: dict  # label -> tuple of digit-string rows
    sets: dict  # set name -> tuple of labels


def default_fixture_path() -> Path:
    return Path(__file__).parent / "data" / "j2_4_2_fixture.txt"


def load_fixture(path: str | Path | None = None) -> Fixture:
    text = Path(path if path is not None else default_fixture_path()).read_text(encoding="utf-8")
    matrices: dict[str, tuple[str, ...]] = {}
    sets: dict[str, tuple[str, ...]] = {}
    label = None
    rows: list[str] = []
    for line in text.splitlines() + [""]:
        line = line.strip()
        if not line:
            if label is not None:
                matrices[label] = tuple(rows)
                label, rows = None, []
            continue
        if line.startswith("L") and ":" in line:
            name, _, members = line.partition(":")
            sets[name.strip()] = tuple(members.split())
        elif label is None:
            label = line
        else:
            rows.append(line)
    if not matrices or not sets:
        raise ValueError("fixture file has no matrix blocks or no set lines")
    return Fixture(matrices, sets)


def check_fixture(G: GrassmannGraph, fx: Fixture) -> dict:
    """The fixture report: ok, chi_upper, violations and label_to_vertex.

    violations holds one reason string per fault, and is empty when ok: a
    label whose rows span no vertex, a set naming a label with no matrix,
    a vertex that two labels colour, a label in no set, and the reason
    build_colouring_endomorphism refuses the colouring (a vertex no label
    colours has colour -1).  chi_upper is the number of colours when ok,
    else None.  Rows that are no matrix over GF(q) raise ValueError.
    """
    violations = []
    label_to_vertex = {}
    digits: dict = {}
    for label, rows in fixture_matrices(fx, G.spec.q).items():
        v = _vertex(G, rows, digits)
        if v is None:
            violations.append(f"{label} spans no vertex of J_{G.spec.q}({G.n},{G.m})")
        else:
            label_to_vertex[label] = v
    colouring = [-1] * G.num_vertices
    coloured_by: dict[int, str] = {}
    names = sorted(name for name, labels in fx.sets.items() if labels)
    for colour, name in enumerate(names):
        for label in fx.sets[name]:
            v = label_to_vertex.get(label)
            if label not in fx.matrices:
                violations.append(f"set {name} names {label}, which has no matrix")
            elif v in coloured_by:
                violations.append(
                    f"vertex {v} is coloured twice: {coloured_by[v]}, {label} in {name}"
                )
            elif v is not None:
                coloured_by[v] = f"{label} in {name}"
                colouring[v] = colour
    named = {label for labels in fx.sets.values() for label in labels}
    violations += [f"{label} is in no set" for label in sorted(fx.matrices.keys() - named)]
    try:
        build_colouring_endomorphism(G, colouring, G.stars[0].members)
    except ValueError as exc:
        violations.append(str(exc))
    return {
        "ok": not violations,
        "chi_upper": None if violations else len(names),
        "violations": violations,
        "label_to_vertex": label_to_vertex,
    }


def fixture_matrices(fx: Fixture, q: int) -> dict[str, list[list[int]]]:
    """Each label's rows as a matrix over GF(q), in label order.

    A block whose rows are no matrix over GF(q), at least one row of one
    width with each digit a field element, raises ValueError.
    """
    out = {}
    for label, rows in sorted(fx.matrices.items()):
        matrix = out[label] = [[int(ch, 36) for ch in row] for row in rows]
        if not matrix or any(len(row) != len(matrix[0]) or max(row) >= q for row in matrix):
            raise ValueError(f"fixture matrix {label} is no matrix over GF({q}): {list(rows)}")
    return out


def _vertex(G: GrassmannGraph, matrix: list[list[int]], digits: dict) -> int | None:
    """The vertex whose vector mask is the span of matrix's rows, or None if the
    span is no vertex.  digits is _row_span's cache, shared over one graph's labels.
    """
    if len(matrix[0]) != G.n:  # its codes would be vectors of another space
        return None
    return G.index.get(sum(map((1).__lshift__, set(_row_span(G.spec, matrix, digits)))))
