"""The elimination oracle: rref against minors and shuffled rows, and its null space."""

import random

from oracles import is_rref, matrix, null_space, rank_by_minors, rref


def test_rref_identity(f2):
    M = matrix(f2, [[1, 0], [0, 1]])
    R, rk, pivots = rref(M)
    assert R == M
    assert rk == 2
    assert pivots == [0, 1]


def test_rref_collapses_equal_rows(f2):
    R, rk, _ = rref(matrix(f2, [[1, 1], [1, 1]]))
    assert R.rows == ((1, 1),)
    assert rk == 1


def test_rank_matches_minor_oracle(f2, f3):
    rng = random.Random(20240817)
    for spec in (f2, f3):
        for _ in range(60):
            nr = rng.randint(1, 4)
            nc = rng.randint(1, 6)
            rows = [[rng.randrange(spec.q) for _ in range(nc)] for _ in range(nr)]
            M = matrix(spec, rows)
            assert rref(M)[1] == rank_by_minors(spec, rows)


def test_rref_idempotent_and_canonical(f3):
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randrange(3) for _ in range(5)] for _ in range(3)]
        M = matrix(f3, rows)
        R, rk, _ = rref(M)
        R2, rk2, _ = rref(R)
        assert R == R2 and rk == rk2
        if rk:
            assert is_rref(R.rows)
        # a row-scrambled matrix with the same row space has the same rref
        mixed = [list(r) for r in rows]
        a, b = rng.randrange(3), rng.randrange(3)
        if a != b:
            c = rng.randrange(1, 3)
            mixed[a] = [f3.add(x, f3.mul(c, y)) for x, y in zip(mixed[a], mixed[b])]
        rng.shuffle(mixed)
        R3, rk3, _ = rref(matrix(f3, mixed))
        assert R3 == R and rk3 == rk


def test_null_space_annihilates(f3):
    rng = random.Random(99)
    for _ in range(25):
        rows = [[rng.randrange(3) for _ in range(5)] for _ in range(2)]
        M = matrix(f3, rows)
        K = null_space(M)
        assert len(K.rows) == 5 - rref(M)[1]
        for v in K.rows:
            for row in M.rows:
                dot = 0
                for x, y in zip(row, v):
                    dot = f3.add(dot, f3.mul(x, y))
                assert dot == 0
