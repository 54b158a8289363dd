import hashlib
import random
from bisect import bisect_right
from itertools import product

import pytest

from grassmann_lab import field, make_field
from grassmann_lab.arith import prime_power_base, prime_powers_upto
from grassmann_lab.config import FIELD_TABLE_LIMIT, MAX_FIELD_SIZE
from oracles import check_field_axioms


def test_prime_field_basics(f2, f3):
    assert f2.q == 2
    assert f2.add(1, 1) == 0
    assert f3.inv(2) == 2  # 2*2 = 4 = 1 mod 3
    assert f3.neg(1) == 2


def test_f4_modulus_is_the_unique_irreducible_quadratic(f4):
    # exhaustive root check over all four monic quadratics over Z_2
    irreducible = []
    for a0 in range(2):
        for a1 in range(2):
            coeffs = (a0, a1, 1)
            has_root = any(
                (a0 + a1 * x + x * x) % 2 == 0 for x in range(2)
            )
            if not has_root:
                irreducible.append(coeffs)
    assert irreducible == [(1, 1, 1)]
    assert f4.modulus == (1, 1, 1)


def test_f4_multiplication(f4):
    x = f4.from_coeffs((0, 1))
    x_plus_1 = f4.from_coeffs((1, 1))
    assert f4.mul(x, x) == x_plus_1  # x^2 = x + 1 mod x^2 + x + 1
    for a in range(1, 4):
        assert f4.mul(a, f4.inv(a)) == 1


def test_element_order_is_coefficient_lex(f4):
    # (0,0) < (0,1) < (1,0) < (1,1) low-degree-first
    assert f4.elements_in_order == (0, 2, 1, 3)
    assert [f4.coeffs(a) for a in f4.elements_in_order] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


def test_make_field_rejects_composite_and_oversized():
    with pytest.raises(ValueError, match="not prime"):
        make_field(4, 1)
    with pytest.raises(ValueError, match="field too large"):
        make_field(2, 21)


def test_modulus_search_skips_candidates_divisible_by_x(monkeypatch):
    constants = []
    real = field._is_irreducible

    def spy(p, coeffs):
        constants.append(coeffs[0])
        return real(p, coeffs)

    monkeypatch.setattr(field, "_is_irreducible", spy)
    modulus = field._smallest_irreducible.__wrapped__(3, 4)  # past the cache
    assert constants and 0 not in constants
    assert modulus == (1, 0, 1, 1, 1)  # x^4 + x^3 + x^2 + 1, as the full scan finds


def test_modulus_is_the_first_irreducible_of_the_full_scan():
    for q in prime_powers_upto(256):
        p, e = prime_power_base(q)
        if e >= 2:
            first = next(
                c + (1,) for c in product(range(p), repeat=e) if field._is_irreducible(p, [*c, 1])
            )
            assert make_field(p, e).modulus == first


def test_moduli_of_every_extension_field_are_pinned():
    # sha256 of the moduli for every q = p^e <= MAX_FIELD_SIZE with e >= 2,
    # ascending in q, recorded with another irreducibility test (Rabin's,
    # and a root test for e <= 3)
    fields = sorted(
        (p**e, p, e)
        for p in range(2, 1025)
        if prime_power_base(p) == (p, 1)
        for e in range(2, 21)
        if p**e <= MAX_FIELD_SIZE
    )
    moduli = [make_field(p, e).modulus for _, p, e in fields]
    assert len(moduli) == 242
    assert hashlib.sha256(repr(moduli).encode()).hexdigest() == (
        "3e05087d1fa7a4e7cb94bdab8b4419f18fb732fe4b9a6f37ed39efc94bd77da8"
    )


def test_make_field_deterministic():
    a = make_field(3, 2)
    b = make_field(3, 2)
    assert a == b
    assert a.modulus == b.modulus


def test_prime_field_modulus_placeholder(f2):
    assert f2.modulus == (0, 1)  # the polynomial x


def test_coeff_roundtrip():
    f27 = make_field(3, 3)
    for a in range(27):
        assert f27.from_coeffs(f27.coeffs(a)) == a


def test_field_axioms_exhaustive_up_to_64():
    for q in prime_powers_upto(64):
        p, e = prime_power_base(q)
        check_field_axioms(make_field(p, e))


def test_op_tables_match_the_slow_path_up_to_64():
    for q in prime_powers_upto(64):
        f = make_field(*prime_power_base(q))
        add, neg, mul, inv = f._tables
        for a in range(q):
            assert neg[a] == f._neg_slow(a)
            assert add[a] == [f._add_slow(a, b) for b in range(q)]
            assert mul[a] == [f._mul_slow(a, b) for b in range(q)]
            if a:
                assert f._mul_slow(a, inv[a]) == 1


@pytest.mark.parametrize("p, e", [(2, 8), (3, 5)])
def test_op_tables_match_the_slow_path_near_the_table_limit(p, e):
    f = make_field(p, e)
    assert f.q <= FIELD_TABLE_LIMIT and f._tables is not None
    rng = random.Random(f.q)
    for _ in range(2000):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.add(a, b) == f._add_slow(a, b)
        assert f.neg(a) == f._neg_slow(a)
        assert f.mul(a, b) == f._mul_slow(a, b)
        if a:
            assert f._mul_slow(a, f.inv(a)) == 1


@pytest.mark.parametrize(
    "q, expected",
    [
        (1000003, (1000003, 1)),
        (1009**2, (1009, 2)),
        (2**20, (2, 20)),
        (3**12, (3, 12)),
        (2 * 1000003, None),
    ],
)
def test_prime_power_base_past_the_sieve_range(q, expected):
    assert prime_power_base(q) == expected


def test_prime_power_sieve_matches_trial_division():
    trial = [q for q in range(2, 200_001) if prime_power_base(q) is not None]
    for limit in range(3001):
        assert prime_powers_upto(limit) == trial[: bisect_right(trial, limit)]
    assert prime_powers_upto(200_000) == trial


def test_inverse_of_zero_fails(f2):
    with pytest.raises(ZeroDivisionError):
        f2.inv(0)


def test_large_field_without_tables():
    # beyond the table limit the slow path must agree with a tabled field
    f = make_field(2, 9)  # q = 512 > table limit
    assert f._tables is None
    x = f.from_coeffs((0, 1) + (0,) * 7)
    acc = 1
    for _ in range(f.q - 1):
        acc = f.mul(acc, x)
    assert acc == 1  # x^(q-1) = 1
    a = f.from_coeffs((1, 0, 1) + (0,) * 6)
    assert f.mul(a, f.inv(a)) == 1
    assert f.sub(a, a) == 0
    # seeded samples of the field axioms on a prime field and four extensions
    for p, e in [(257, 1), (17, 2), (2, 9), (3, 6), (2, 10)]:
        f = make_field(p, e)
        assert f.q > FIELD_TABLE_LIMIT and f._tables is None
        rng = random.Random(f.q)
        for _ in range(60):
            a, b, c = (rng.randrange(f.q) for _ in range(3))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(f.add(a, b), c) == f.add(f.mul(a, c), f.mul(b, c))
            assert f.add(a, f.neg(a)) == 0
            assert f.add(f.sub(a, b), b) == a
            if a:
                assert f.pow(a, f.q - 1) == 1
                assert f.mul(a, f.inv(a)) == 1

