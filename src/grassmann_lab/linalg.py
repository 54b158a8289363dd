"""Dense matrices over GF(q): reduced row echelon form, rank, kernels.

Rows are tuples of field elements (ints).  The reduced row echelon form
here always drops zero rows, so it is the canonical representative of a
row space: two matrices have equal row spaces iff their RREFs are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldSpec


@dataclass(frozen=True)
class FqMatrix:
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


def rank(M: FqMatrix) -> int:
    return rref(M)[1]


def stack(X: FqMatrix, Y: FqMatrix) -> FqMatrix:
    if X.spec != Y.spec or X.cols != Y.cols:
        raise ValueError("matrices live over different spaces")
    return FqMatrix(X.spec, X.rows + Y.rows, X.cols)


def stack_rank(X: FqMatrix, Y: FqMatrix) -> int:
    """Rank of the vertical concatenation = dim of the row-space join."""
    return rank(stack(X, Y))


def transpose(M: FqMatrix) -> FqMatrix:
    return FqMatrix(M.spec, tuple(zip(*M.rows)) if M.rows else (), max(M.nrows, 1))


def null_space(M: FqMatrix) -> FqMatrix:
    """Canonical basis of the right kernel {v : M v^T = 0}."""
    spec = M.spec
    R, rk, pivots = rref(M)
    pivot_set = set(pivots)
    free = [j for j in range(M.cols) if j not in pivot_set]
    rows = []
    for j in free:
        v = [0] * M.cols
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = spec.neg(R.rows[i][j])
        rows.append(v)
    K, krank, _ = rref(matrix(spec, rows, M.cols))
    if krank != M.cols - rk:
        raise AssertionError("null space dimension disagrees with the rank")
    return K


def left_kernel(M: FqMatrix) -> FqMatrix:
    """Canonical basis of {a : a M = 0}."""
    spec = M.spec
    if M.nrows == 0:
        return matrix(spec, [], 1)
    return null_space(transpose(M))


def mat_vec(M: FqMatrix, v) -> tuple[int, ...]:
    """v M for a row vector v of length nrows."""
    spec = M.spec
    out = [0] * M.cols
    for c, row in zip(v, M.rows):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] = spec.add(out[j], spec.mul(c, x))
    return tuple(out)


def reduce_vector(R: FqMatrix, pivots: list[int], v) -> tuple[int, ...]:
    """Residue of v after elimination against an RREF basis.

    Zero residue iff v lies in the row space.
    """
    spec = R.spec
    out = list(v)
    for i, pc in enumerate(pivots):
        c = out[pc]
        if c:
            nc = spec.neg(c)
            row = R.rows[i]
            out = [spec.add(out[j], spec.mul(nc, row[j])) for j in range(len(out))]
    return tuple(out)
