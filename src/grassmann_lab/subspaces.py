"""Canonical subspaces of GF(q)^n, their enumeration, spans and vector masks.

A subspace is identified with the unique RREF basis matrix of its row
space, so subspace equality is bit-equality.  Enumeration is ordered by
(pivot-column set, free-entry values read row-major), with field elements
compared by coefficient vector; the order is deterministic.  Lattice
relations (containment, intersection dimensions) are read off vector
masks: see vector_mask.

A span lists the codes of a space's members by coefficient position
(see _row_span).  One level of the enumeration comes two ways, each in
one pass over the pivot classes: _level_bases gives every space's RREF
basis rows as tuples, and _level_codes the span table of all the spaces
at once, codes[c][i] being position c of space i's span, built from the
pivots alone with list-level arithmetic.  span_table pairs the two, each
basis wrapped as a Subspace, for the catalogs.  The graph layer holds
its vertices as basis rows, and reads every vertex and centre mask, the
hyperplane masks behind the stars and tops, the images of masks under
GL(n, q) and the orthogonal complements off the tables.  Nothing here
runs Gaussian elimination: every basis comes out of the enumeration in
RREF, and rows from outside it (a fixture's matrices) are read by their
span, whatever their form.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain, combinations, product, repeat
from operator import add
from typing import NamedTuple

from .config import ENUM_BOUND, BoundExceeded, check_decimal_digits
from .field import FieldSpec
from .qpoly import gaussian_binomial_int


class FqMatrix(NamedTuple):
    """A matrix over GF(q): its rows, tuples of field elements, and its column count."""

    spec: FieldSpec
    rows: tuple[tuple[int, ...], ...]
    cols: int


class Subspace(NamedTuple):
    spec: FieldSpec
    ambient: int
    dim: int
    basis: FqMatrix  # RREF, dim rows, ambient cols

    def __repr__(self):
        rows = ",".join("".join(str(x) for x in r) for r in self.basis.rows)
        return f"Subspace(q={self.spec.q}, {self.dim}<{self.ambient}, [{rows}])"


def span_table(spec: FieldSpec, n: int, k: int) -> tuple[list[Subspace], list[list[int]]]:
    """All k-dimensional subspaces of GF(q)^n, each once, and their span table.

    The spaces wrap the bases of _level_bases, which are generated
    directly in RREF, so there is no deduplication pass, and the count
    equals the Gaussian binomial [n choose k]_q.  The table is
    _level_codes's: codes[c][i] is the code at coefficient position c of
    space i's span.
    """
    spaces = [Subspace(spec, n, k, FqMatrix(spec, rows, n)) for rows in _level_bases(spec, n, k)]
    return spaces, _level_codes(spec, n, k)


def _level_codes(spec: FieldSpec, n: int, k: int) -> list[list[int]]:
    """The span table of the k-spaces of GF(q)^n, in enumeration order.

    codes[c][i] is the code at coefficient position c of space i's span,
    the entry _row_span gives for its basis rows, so codes has q^k
    columns, one per position, each listing all the spaces.  It is built
    one pivot class at a time from the pivots alone (_class_codes), with
    no basis and no per-space _row_span call.  Equal codes share one int
    object.
    """
    _level_size(spec, n, k)
    tables: dict = {}
    vector = list(range(spec.q**n)).__getitem__
    parts = [_class_codes(spec, n, pivots, tables, vector) for pivots in combinations(range(n), k)]
    return list(map(list, map(chain.from_iterable, zip(*parts))))


def _level_size(spec: FieldSpec, n: int, k: int) -> int:
    """[n choose k]_q, once the level is valid and within ENUM_BOUND."""
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
    return total


def _level_bases(spec: FieldSpec, n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The RREF basis rows of every k-space of GF(q)^n, one pivot class at a time.

    Row i of a basis in the class of pivots has a 1 at pivots[i], zeros at
    the other pivots and left of pivots[i], and any field value at each
    other column right of pivots[i] (a free entry).  The class is the
    product of these per-row options, free entries read row-major with
    values in coefficient order, so the last free entry varies fastest.
    """
    total = _level_size(spec, n, k)
    bases: list[tuple[tuple[int, ...], ...]] = []
    for pivots in combinations(range(n), k):
        options = []
        for p in pivots:
            free = [j for j in range(p + 1, n) if j not in pivots]
            row = [0] * n
            row[p] = 1
            opts = []
            for vals in product(spec.elements_in_order, repeat=len(free)):
                for j, v in zip(free, vals):
                    row[j] = v
                opts.append(tuple(row))
            options.append(opts)
        bases += product(*options)
    if len(bases) != total:
        raise AssertionError("subspace count disagrees with the Gaussian binomial")
    return tuple(bases)


def _class_codes(
    spec: FieldSpec,
    n: int,
    pivots: tuple[int, ...],
    tables: dict,
    vector: Callable[[int], int],
) -> list[list[int]]:
    """The span table of one pivot class of _level_bases, from its pivots.

    The class has q^F spaces, F its number of free entries.  The code at
    position c = c_0 + c_1*q + ... is the sum over the columns j of
    q^j (c . column j).  Pivot column pivots[i] gives c_i on every space.
    Any other column j has free entries in its first r rows, r the number
    of pivots left of j, and zeros below, so c . column j depends on
    c mod q^r and on the column's index x = sum_a entry_a * q^a only:
    tables[r][c mod q^r][x] (_digit_table).  Free entry f (row-major)
    repeats each value q^(F-1-f) times in a block that repeats q^f times,
    so each column's index list is built by list repetition.  A column
    with r = 0 is zero and is skipped.  Each finished position's codes go
    through vector, which shares one int per code.
    """
    q = spec.q
    free = [(a, j) for a, p in enumerate(pivots) for j in range(p + 1, n) if j not in pivots]
    size = q ** len(free)
    last = len(free) - 1
    columns = []  # per nonzero column: q^r, and its term list for each c mod q^r
    for j in range(n):
        r = sum(p < j for p in pivots)
        if not r or j in pivots:
            continue
        index = None
        for a in range(r):
            f = free.index((a, j))
            block: list[int] = []
            for v in spec.elements_in_order:
                block += [v * q**a] * q ** (last - f)
            entries = block * q**f
            index = entries if index is None else list(map(add, index, entries))
        if r not in tables:
            tables[r] = _digit_table(spec, r)
        scale = q**j
        columns.append((q**r, [[scale * d for d in row].__getitem__ for row in tables[r]], index))
    bases = [0]  # sum of c_i * q^pivots[i], by c
    for p in pivots:
        bases = [b + d * q**p for d in range(q) for b in bases]
    codes = []
    for c, base in enumerate(bases):
        col = repeat(base, size)
        for mod, looks, index in columns:
            if c % mod:
                col = map(add, col, map(looks[c % mod], index))
        codes.append(list(map(vector, col)))
    return codes


def _digit_table(spec: FieldSpec, r: int) -> list[list[int]]:
    """c . x for every c and x in GF(q)^r, as table[c][x], both by code.

    The form is symmetric, so row c is _coefficient_digits of c itself.
    """
    q = spec.q
    return [_coefficient_digits(spec, [c // q**a % q for a in range(r)]) for c in range(q**r)]


def _row_span(spec: FieldSpec, rows, digits: dict) -> list[int]:
    """The code of c . rows for every coefficient vector c, in coefficient order.

    A vector (v0, ..., v_{n-1}) is encoded as v0 + v1*q + ... + v_{n-1}*q^(n-1),
    and position c_0 + c_1*q + ... + c_{k-1}*q^(k-1) holds the code of
    sum_i c_i * row_i, so row i sits at position q^i; on an RREF basis
    this is the space's span.  Coordinate j of c . rows is c . (column j),
    so the codes are the sum over the columns of their coefficient digits
    times q^j.  digits caches those terms by (j, column) across calls over
    one field.  For an invertible n x n matrix the result is the
    permutation of the q^n vector codes that the matrix induces,
    x -> x . rows.
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


def hyperplane_lines(spec: FieldSpec, k: int) -> tuple[list[list[int]], list[list[int]]]:
    """The coefficient positions of GF(q)^k split into lines, and each hyperplane as lines.

    lines[0] is [0], the zero vector; lines[i] for i >= 1 holds the
    nonzero positions of the i-th 1-space <p> of GF(q)^k.  The hyperplane
    H_f, the kernel of the normalised functional f (one per 1-space), is
    lines[0] and the lines <p> with f . p = 0: planes lists their indices.
    Read through a span table, the positions of H_f give the members of
    one (k-1)-subspace of each k-space, and the hyperplanes of a k-space
    are exactly these, each once.
    """
    points, codes = span_table(spec, k, 1)
    lines = [[0]] + [list(span[1:]) for span in zip(*codes)]
    planes = []
    for f in points:
        dots = _coefficient_digits(spec, f.basis.rows[0])
        planes.append([i for i, line in enumerate(lines) if not dots[line[0]]])
    return lines, planes


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


def vector_mask(S: Subspace) -> int:
    """Bitmask over all q^n coordinate vectors with the members of S set.

    Bit i is set when the vector with code i (see _row_span) lies in S.
    Intersection dimensions then come from popcounts of ANDed masks.
    """
    return sum(map((1).__lshift__, _row_span(S.spec, S.basis.rows, {})))
