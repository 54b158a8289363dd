import random

import pytest

from grassmann_lab import gaussian_binomial_int, make_field
from grassmann_lab.config import BoundExceeded
from grassmann_lab.subspaces import hyperplane_lines, span_table, vector_mask
from oracles import (
    canonicalize,
    dual_complement,
    enumerate_subspaces,
    enumeration_key,
    is_rref,
    matrix,
    span_codes,
    span_vectors,
)


def all_subspaces(spec, n):
    out = []
    for k in range(n + 1):
        out.extend(enumerate_subspaces(spec, n, k))
    return out


def test_counts_match_gaussian_binomial(f2, f3, f4):
    for spec in (f2, f3, f4):
        for n in range(1, 7):
            for k in range(n + 1):
                got = enumerate_subspaces(spec, n, k)
                assert len(got) == gaussian_binomial_int(n, k, spec.q)
                if len(got) <= 200_000:
                    assert len({S.basis.rows for S in got}) == len(got)


def test_known_counts(f2):
    assert len(enumerate_subspaces(f2, 4, 2)) == 35
    assert len(enumerate_subspaces(f2, 5, 2)) == 155
    assert len(enumerate_subspaces(f2, 6, 6)) == 1


def test_enumeration_canonical_and_duplicate_free(f2, f3, f4):
    for spec, n in ((f2, 5), (f3, 4), (f4, 3)):
        for k in range(n + 1):
            subs = enumerate_subspaces(spec, n, k)
            seen = set()
            for S in subs:
                assert S.dim == k and S.ambient == n
                if k:
                    assert is_rref(S.basis.rows)
                assert S.basis.rows not in seen
                seen.add(S.basis.rows)
            keys = list(map(enumeration_key, subs))
            assert sorted(keys) == keys


def test_enumeration_bound(f2):
    with pytest.raises(BoundExceeded, match="enumeration too large"):
        enumerate_subspaces(f2, 10, 5)


def test_canonicalize_fixed_points_and_invariance(f3):
    eye = matrix(f3, [[1, 0, 0], [0, 1, 0]])
    assert canonicalize(eye).basis == eye
    # left-multiplying by an invertible matrix fixes the subspace: apply
    # random elementary row operations and compare
    rng = random.Random(4)
    for _ in range(40):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        S = canonicalize(matrix(f3, rows))
        mixed = [list(r) for r in rows]
        for _ in range(6):
            op = rng.randrange(3)
            a, b = rng.sample(range(3), 2)
            if op == 0:
                mixed[a], mixed[b] = mixed[b], mixed[a]
            elif op == 1:
                c = rng.randrange(1, 3)
                mixed[a] = [f3.mul(c, x) for x in mixed[a]]
            else:
                c = rng.randrange(1, 3)
                mixed[a] = [f3.add(x, f3.mul(c, y)) for x, y in zip(mixed[a], mixed[b])]
        assert canonicalize(matrix(f3, mixed)) == S
    # rank-deficient input keeps its true dimension
    f2rows = matrix(f3, [[1, 1], [2, 2]])
    assert canonicalize(f2rows).dim == 1


def test_dual_complement_properties(f2):
    subs = all_subspaces(f2, 4)
    for S in subs:
        D = dual_complement(S)
        assert D.dim == 4 - S.dim
        assert dual_complement(D) == S
    # containment reversal, on enumerated spans
    spans = {S: span_vectors(f2, S.basis.rows, 4) for S in subs}
    for S in subs:
        for T in subs:
            if spans[T] <= spans[S]:
                assert spans[dual_complement(S)] <= spans[dual_complement(T)]
    (full,) = enumerate_subspaces(f2, 4, 4)
    (zero,) = enumerate_subspaces(f2, 4, 0)
    assert dual_complement(full) == zero
    assert dual_complement(zero) == full


def test_duality_is_a_bijection_between_levels(f2, f3):
    for spec, n in ((f2, 4), (f3, 3), (f2, 5)):
        for k in range(n + 1):
            images = {dual_complement(S).basis.rows for S in enumerate_subspaces(spec, n, k)}
            target = {S.basis.rows for S in enumerate_subspaces(spec, n, n - k)}
            assert images == target


def test_vector_mask_agrees_with_span_enumeration(f2, f3):
    for spec, n, k in ((f2, 4, 2), (f3, 3, 2)):
        for S in enumerate_subspaces(spec, n, k):
            vectors = span_vectors(spec, S.basis.rows, n)
            mask = vector_mask(S)
            assert mask.bit_count() == len(vectors) == spec.q**k
            for v in vectors:
                idx = 0
                for x in reversed(v):
                    idx = idx * spec.q + x
                assert mask >> idx & 1


def test_vector_spans_hold_each_coefficient_combination(f3, f4):
    for spec, n, k in ((f3, 3, 2), (f4, 3, 2), (f4, 2, 1)):
        q = spec.q
        spaces, codes = span_table(spec, n, k)
        for S, span in zip(spaces, zip(*codes)):
            assert len(span) == q**k
            for pos, code in enumerate(span):
                v = [0] * n
                for i, row in enumerate(S.basis.rows):
                    c = pos // q**i % q
                    v = [spec.add(x, spec.mul(c, y)) for x, y in zip(v, row)]
                assert code == sum(x * q**j for j, x in enumerate(v))


def test_hyperplane_lines_give_every_hyperplane_once(f2, f3, f4):
    for spec, n, k in ((f2, 4, 3), (f3, 4, 2), (f4, 3, 2), (f2, 3, 1), (f3, 2, 1)):
        lines, planes = hyperplane_lines(spec, k)
        assert sorted(pos for line in lines for pos in line) == list(range(spec.q**k))
        assert len(planes) == gaussian_binomial_int(k, 1, spec.q)
        below = [
            (span_vectors(spec, P.basis.rows, n), vector_mask(P))
            for P in enumerate_subspaces(spec, n, k - 1)
        ]
        spaces, codes = span_table(spec, n, k)
        for S, span in zip(spaces, zip(*codes)):
            masks = [sum(1 << span[pos] for i in plane for pos in lines[i]) for plane in planes]
            members = span_vectors(spec, S.basis.rows, n)
            assert sorted(masks) == sorted(m for vp, m in below if vp <= members)


# every level 0 <= k <= n <= 6 of [n,k]_q <= 2000 spaces, over prime and
# extension fields, k = 0 (the star centre at m = 1) and k = n included
SPAN_LEVELS = [
    (p, e, n, k)
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
    for n in range(1, 7)
    for k in range(n + 1)
    if gaussian_binomial_int(n, k, p**e) <= 2000
]


@pytest.mark.parametrize(
    "p, e, n, k", SPAN_LEVELS, ids=[f"q{p**e}-n{n}-k{k}" for p, e, n, k in SPAN_LEVELS]
)
def test_span_table_matches_the_per_space_spans(p, e, n, k):
    spec = make_field(p, e)
    q = spec.q
    spaces, codes = span_table(spec, n, k)
    # each RREF k-space once, in enumeration order
    assert len({S.basis.rows for S in spaces}) == len(spaces) == gaussian_binomial_int(n, k, q)
    assert all(is_rref(S.basis.rows) for S in spaces if k)
    keys = list(map(enumeration_key, spaces))
    assert keys == sorted(keys)
    assert len(codes) == q**k and all(len(col) == len(spaces) for col in codes)
    # position for position against the oracle's coefficient combinations
    assert [list(row) for row in zip(*codes)] == [span_codes(spec, S.basis.rows, n) for S in spaces]
    # as a set per space against the oracle's coefficient enumeration
    vector = [tuple(x // q**j % q for j in range(n)) for x in range(q**n)]
    for S, row in zip(spaces, zip(*codes)):
        assert len(set(row)) == q**k
        assert set(map(vector.__getitem__, row)) == span_vectors(spec, S.basis.rows, n)
