"""Canonical subspaces of GF(q)^n, their enumeration, and lattice operations.

A subspace is identified with the unique RREF basis matrix of its row
space, so subspace equality is bit-equality.  Enumeration is ordered by
(pivot-column set, free-entry values read row-major), with field elements
compared by coefficient vector; the order is deterministic and matches
the sort key exposed by sort_key().
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .config import ENUM_BOUND, BoundExceeded
from .field import FieldSpec
from .linalg import (
    FqMatrix,
    left_kernel,
    mat_vec,
    matrix,
    null_space,
    rank,
    reduce_vector,
    rref,
    stack,
)
from .qpoly import gaussian_binomial_int


@dataclass(frozen=True)
class Subspace:
    spec: FieldSpec
    ambient: int
    dim: int
    basis: FqMatrix  # RREF, dim rows, ambient cols

    def __repr__(self):
        rows = ",".join("".join(str(x) for x in r) for r in self.basis.rows)
        return f"Subspace(q={self.spec.q}, {self.dim}<{self.ambient}, [{rows}])"


def canonicalize(M: FqMatrix) -> Subspace:
    """The subspace spanned by the rows of M (any spanning set)."""
    R, rk, _ = rref(M)
    return Subspace(M.spec, M.cols, rk, R)


def subspace_from_digits(spec: FieldSpec, rows) -> Subspace:
    """The span of matrix rows given as digit strings, 0-9 then a-z per entry.

    The fixture file and the JSON graph dumps write matrices this way.
    """
    return canonicalize(matrix(spec, [[int(ch, 36) for ch in row] for row in rows]))


def zero_subspace(spec: FieldSpec, n: int) -> Subspace:
    return Subspace(spec, n, 0, matrix(spec, [], n))


def full_subspace(spec: FieldSpec, n: int) -> Subspace:
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return Subspace(spec, n, n, matrix(spec, eye, n))


def _pivot_cols(S: Subspace) -> tuple[int, ...]:
    out = []
    for row in S.basis.rows:
        for j, x in enumerate(row):
            if x:
                out.append(j)
                break
    return tuple(out)


def sort_key(S: Subspace):
    """(pivot columns, free entries row-major by coefficient order)."""
    pivots = _pivot_cols(S)
    pivot_set = set(pivots)
    coeffs = S.spec.coeffs
    free = tuple(
        coeffs(x)
        for i, row in enumerate(S.basis.rows)
        for j, x in enumerate(row)
        if j not in pivot_set and j > pivots[i]
    )
    return (pivots, free)


def enumerate_subspaces(
    spec: FieldSpec, n: int, k: int, bound: int = ENUM_BOUND
) -> list[Subspace]:
    """All k-dimensional subspaces of GF(q)^n, each exactly once.

    Iterates over pivot-column patterns and fills the free positions with
    every field value, so each basis is generated directly in RREF with
    no deduplication pass.  The count equals the Gaussian binomial
    [n choose k]_q.
    """
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    total = gaussian_binomial_int(n, k, spec.q)
    if total > bound:
        raise BoundExceeded(
            f"enumeration too large: [{n} choose {k}]_{spec.q} = {total} > {bound}"
        )
    elems = spec.elements_in_order
    out: list[Subspace] = []
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivot_set
        ]
        base = [[0] * n for _ in range(k)]
        for i, c in enumerate(pivots):
            base[i][c] = 1
        if not free:
            B = matrix(spec, [tuple(r) for r in base], n)
            out.append(Subspace(spec, n, k, B))
            continue
        for vals in product(elems, repeat=len(free)):
            rows = [r[:] for r in base]
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            B = FqMatrix(spec, tuple(tuple(r) for r in rows), n)
            out.append(Subspace(spec, n, k, B))
    assert len(out) == total
    return out


def contains(S: Subspace, T: Subspace) -> bool:
    """T <= S as subspaces."""
    if S.spec != T.spec or S.ambient != T.ambient:
        raise ValueError("subspaces of different ambient spaces")
    pivots = list(_pivot_cols(S))
    for row in T.basis.rows:
        if any(reduce_vector(S.basis, pivots, row)):
            return False
    return True


def join(S: Subspace, T: Subspace) -> Subspace:
    """Smallest subspace containing both: the row space of the stack."""
    if S.spec != T.spec or S.ambient != T.ambient:
        raise ValueError("subspaces of different ambient spaces")
    return canonicalize(stack(S.basis, T.basis))


def intersect(S: Subspace, T: Subspace) -> Subspace:
    """S intersect T via the left kernel of the stacked basis.

    A dependency a*S + b*T = 0 yields the intersection vector a*S, and
    all intersection vectors arise this way.
    """
    if S.spec != T.spec or S.ambient != T.ambient:
        raise ValueError("subspaces of different ambient spaces")
    if S.dim == 0 or T.dim == 0:
        return zero_subspace(S.spec, S.ambient)
    stacked = stack(S.basis, T.basis)
    K = left_kernel(stacked)
    rows = [mat_vec(S.basis, kr[: S.dim]) for kr in K.rows]
    if not rows:
        return zero_subspace(S.spec, S.ambient)
    result = canonicalize(matrix(S.spec, rows, S.ambient))
    assert result.dim == S.dim + T.dim - rank(stacked)
    return result


def dual_complement(W: Subspace) -> Subspace:
    """All vectors orthogonal to W under the standard bilinear form."""
    if W.dim == 0:
        return full_subspace(W.spec, W.ambient)
    K = null_space(W.basis)
    return Subspace(W.spec, W.ambient, K.nrows, K)


def vector_mask(S: Subspace) -> int:
    """Bitmask over all q^n coordinate vectors with the members of S set.

    A vector (v0, ..., v_{n-1}) indexes bit v0 + v1*q + ... + v_{n-1}*q^(n-1).
    Intersection dimensions then come from popcounts of ANDed masks.
    """
    spec = S.spec
    q = spec.q
    span = [0]
    for row in S.basis.rows:
        shift = 1
        enc = 0
        for x in row:
            enc += x * shift
            shift *= q
        scaled = []
        for c in range(1, q):
            acc = 0
            shift = 1
            for x in row:
                acc += spec.mul(c, x) * shift
                shift *= q
            scaled.append(acc)
        new = list(span)
        for s in scaled:
            new.extend(_vec_add_encoded(spec, v, s) for v in span)
        span = new
    mask = 0
    for v in span:
        mask |= 1 << v
    return mask


def _vec_add_encoded(spec: FieldSpec, a: int, b: int) -> int:
    """Coordinatewise field addition of two base-q encoded vectors."""
    q = spec.q
    out = 0
    shift = 1
    while a or b:
        out += spec.add(a % q, b % q) * shift
        a //= q
        b //= q
        shift *= q
    return out
