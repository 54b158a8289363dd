"""Canonical subspaces of GF(q)^n, their enumeration, spans and vector masks.

A subspace is identified with the unique RREF basis matrix of its row
space, so subspace equality is bit-equality.  Enumeration is ordered by
(pivot-column set, free-entry values read row-major), with field elements
compared by coefficient vector; the order is deterministic.  Lattice
relations (containment, intersection dimensions) are read off vector
masks: see vector_mask.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations, product

from .config import ENUM_BOUND, BoundExceeded, check_decimal_digits
from .field import FieldSpec
from .linalg import FqMatrix, matrix, null_space, rref
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


def enumerate_subspaces(spec: FieldSpec, n: int, k: int) -> list[Subspace]:
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
    if total > ENUM_BOUND:
        check_decimal_digits(total, f"[{n} choose {k}]_{spec.q}")
        raise BoundExceeded(
            f"enumeration too large: [{n} choose {k}]_{spec.q} = {total} > {ENUM_BOUND}"
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
    if len(out) != total:
        raise AssertionError("subspace count disagrees with the Gaussian binomial")
    return out


def dual_complement(W: Subspace) -> Subspace:
    """All vectors orthogonal to W under the standard bilinear form."""
    K = null_space(W.basis)
    return Subspace(W.spec, W.ambient, K.nrows, K)


def vector_spans(spaces: Iterable[Subspace]) -> Iterator[list[int]]:
    """The encoded members of each subspace, in coefficient order.

    A vector (v0, ..., v_{n-1}) is encoded as v0 + v1*q + ... + v_{n-1}*q^(n-1).
    Position c_0 + c_1*q + ... + c_{k-1}*q^(k-1) of a span holds the code of
    sum_i c_i * row_i of the RREF basis (see _row_span).  The spaces share
    one field, and the digits of each distinct (j, column) are computed once.
    """
    digits: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for S in spaces:
        yield _row_span(S.spec, S.basis.rows, digits)


def _row_span(spec: FieldSpec, rows, digits: dict) -> list[int]:
    """The code of c . rows for every coefficient vector c, in coefficient order.

    Coordinate j of c . rows is c . (column j), so the codes are the sum
    over the columns of their coefficient digits times q^j.  digits caches
    those terms by (j, column) across calls over one field.  For an
    invertible n x n matrix the result is the permutation of the q^n
    vector codes that the matrix induces, x -> x . rows.
    """
    q = spec.q
    terms = []
    for j, col in enumerate(zip(*rows)):
        if any(col):
            d = digits.get((j, col))
            if d is None:
                d = digits[j, col] = [x * q**j for x in _coefficient_digits(spec, col)]
            terms.append(d)
    return list(map(sum, zip(*terms))) if terms else [0] * q ** len(rows)


def hyperplane_positions(spec: FieldSpec, k: int) -> list[list[int]]:
    """For each (k-1)-space H of GF(q)^k, the coefficient positions in H.

    H is the kernel of a normalised functional f, one per 1-space of
    GF(q)^k.  Read through a span from vector_spans, the positions of H
    give the members of one (k-1)-subspace of that k-space, and the
    hyperplanes of the span are exactly these, each once.
    """
    return [
        [pos for pos, x in enumerate(_coefficient_digits(spec, f.basis.rows[0])) if not x]
        for f in enumerate_subspaces(spec, k, 1)
    ]


def _coefficient_digits(spec: FieldSpec, col: tuple[int, ...]) -> list[int]:
    """c . col for every coefficient vector c, in coefficient order."""
    q = spec.q
    vals = [0]
    for x in col:
        if not x:  # c * 0 = 0: every c repeats the values so far
            vals *= q
            continue
        terms = range(1, q) if x == 1 else [spec.mul(c, x) for c in range(1, q)]
        vals += [spec.add(v, t) for t in terms for v in vals]
    return vals


def vector_masks(spaces: Iterable[Subspace]) -> list[int]:
    """vector_mask of each subspace, sharing vector_spans' digits across the batch."""
    return [sum(1 << v for v in span) for span in vector_spans(spaces)]


def vector_mask(S: Subspace) -> int:
    """Bitmask over all q^n coordinate vectors with the members of S set.

    Bit i is set when the vector with code i (see vector_spans) lies in S.
    Intersection dimensions then come from popcounts of ANDed masks.
    """
    return vector_masks((S,))[0]
