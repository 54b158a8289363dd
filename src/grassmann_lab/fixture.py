"""The J_2(4,2) fixture: 35 labelled matrices and 7 independent sets.

File format: one block per matrix (a label line ``A<k>`` followed by the
matrix rows as digit strings, then a blank line), and after the blocks one
line per set, ``L<k>: A.. A.. ...``.  The shipped file lists the vertices
of J_2(4,2) by 2x4 matrix representatives together with a partition of
the labels into 7 independent sets, which certifies a 7-colouring.

Some fixture matrices are not in reduced echelon form; verification
canonicalizes them, tracking identity by label alongside the vertex id.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .graph import GrassmannGraph
from .subspaces import subspace_from_digits


class J242Fixture(NamedTuple):
    matrices: dict  # label -> tuple of digit-string rows
    sets: dict  # set name -> tuple of labels


def default_fixture_path() -> Path:
    return Path(__file__).parent / "data" / "j2_4_2_fixture.txt"


def load_fixture(path: str | Path | None = None) -> J242Fixture:
    text = Path(path if path is not None else default_fixture_path()).read_text()
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
    return J242Fixture(matrices, sets)


class FixtureReport:
    """Result of checking a fixture against its graph.

    distinct_ok:  the labelled matrices canonicalize to pairwise distinct
                  vertices that exhaust the vertex set.
    partition_ok: the sets partition the labels.
    independent_ok: no set contains an adjacent pair.
    When everything holds the number of sets is an upper bound for the
    chromatic number.
    """

    def __init__(self):
        self.distinct_ok = self.partition_ok = self.independent_ok = True
        self.chi_upper: int | None = None
        self.violations: list[dict] = []
        self.label_to_vertex: dict = {}

    @property
    def ok(self) -> bool:
        return self.distinct_ok and self.partition_ok and self.independent_ok


def verify_fixture_partition(G: GrassmannGraph, fx: J242Fixture) -> FixtureReport:
    """Check coverage, partition, and independence of the fixture sets."""
    report = FixtureReport()

    subspaces = {label: subspace_from_digits(G.spec, rows) for label, rows in fx.matrices.items()}
    ids = {}
    for label, S in subspaces.items():
        if S.dim != G.m or S.ambient != G.n:
            report.distinct_ok = False
            report.violations.append({"check": "vertex", "label": label, "dim": S.dim})
            continue
        ids[label] = G.vertex_id(S)
    report.label_to_vertex = dict(sorted(ids.items()))
    if len(set(ids.values())) != G.num_vertices or len(ids) != len(fx.matrices):
        report.distinct_ok = False
        report.violations.append(
            {
                "check": "coverage",
                "distinct_vertices": len(set(ids.values())),
                "expected": G.num_vertices,
            }
        )

    seen: dict[str, str] = {}
    for name, labels in fx.sets.items():
        for label in labels:
            if label in seen:
                report.partition_ok = False
                report.violations.append(
                    {"check": "partition", "label": label, "sets": (seen[label], name)}
                )
            seen[label] = name
            if label not in fx.matrices:
                report.partition_ok = False
                report.violations.append({"check": "partition", "label": label, "sets": (name,)})
    missing = sorted(set(fx.matrices) - set(seen))
    if missing:
        report.partition_ok = False
        report.violations.append({"check": "partition-coverage", "missing": missing})

    for name in sorted(fx.sets):
        labels = [l for l in fx.sets[name] if l in ids]
        for a in range(len(labels)):
            for b in range(a + 1, len(labels)):
                la, lb = labels[a], labels[b]
                if G.adjacent(ids[la], ids[lb]):
                    report.independent_ok = False
                    violation = {"check": "independence", "set": name, "pair": (la, lb)}
                    report.violations.append(violation)

    if report.ok:
        report.chi_upper = len(fx.sets)
    return report
