"""Dense matrices over GF(q) and their reduced row echelon form.

Rows are tuples of field elements (ints).  The reduced row echelon form
here always drops zero rows, so it is the canonical representative of a
row space: two matrices have equal row spaces iff their RREFs are equal.
"""

from __future__ import annotations

from typing import NamedTuple

from .field import FieldSpec


class FqMatrix(NamedTuple):
    """Plain container; use matrix() to build one from unchecked input."""

    spec: FieldSpec
    rows: tuple[tuple[int, ...], ...]
    cols: int

    @property
    def nrows(self) -> int:
        return len(self.rows)


def matrix(spec: FieldSpec, rows, cols: int | None = None) -> FqMatrix:
    """Build an FqMatrix, validating shape and entry ranges."""
    rs = tuple(tuple(r) for r in rows)
    if cols is None:
        if not rs:
            raise ValueError("column count required for empty matrix")
        cols = len(rs[0])
    if cols < 1:
        raise ValueError("need at least one column")
    for row in rs:
        if len(row) != cols:
            raise ValueError("ragged rows")
        for x in row:
            if not 0 <= x < spec.q:
                raise ValueError(f"entry {x} outside field of size {spec.q}")
    return FqMatrix(spec, rs, cols)


def _eliminate(spec: FieldSpec, rows: list[list[int]]):
    """In-place Gauss-Jordan elimination to RREF; returns pivot column list."""
    mul, add, neg, inv = spec.mul, spec.add, spec.neg, spec.inv
    nrows = len(rows)
    cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        lead = row[c]
        if lead != 1:
            s = inv(lead)
            rows[r] = row = [mul(s, x) for x in row]
        for i in range(nrows):
            t = rows[i][c]
            if t and i != r:
                nt = neg(t)
                ri = rows[i]
                rows[i] = [add(ri[j], mul(nt, row[j])) for j in range(cols)]
        pivots.append(c)
        r += 1
    return pivots


def rref(M: FqMatrix) -> tuple[FqMatrix, int, list[int]]:
    """Reduced row echelon form with zero rows removed.

    Returns (R, rank, pivot_cols); the row space of R equals that of M
    and R is its unique canonical basis.
    """
    rows = [list(r) for r in M.rows]
    pivots = _eliminate(M.spec, rows)
    rank = len(pivots)
    return matrix(M.spec, rows[:rank], M.cols), rank, pivots

