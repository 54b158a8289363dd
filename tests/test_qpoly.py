import random
from fractions import Fraction
from math import gcd

import oracles
import pytest

from grassmann_lab import (
    cyclotomic,
    gaussian_binomial_int,
    gaussian_binomial_poly,
    h_integrality,
    h_report,
    knuth_wilf_exponents,
    omega_int,
    omega_poly,
    qpoly,
    scan_core_threshold,
)
from grassmann_lab.qpoly import ONE, IntPolynomial, Q, h_exponents, x_power_minus_one


def test_polynomial_arithmetic_basics():
    p = IntPolynomial((1, 2, 3))
    q = IntPolynomial((0, 1))
    assert (p + q).coeffs == (1, 3, 3)
    assert (p - p).is_zero()
    assert (q * q).coeffs == (0, 0, 1)
    assert (q**5).coeffs == (0,) * 5 + (1,)
    assert p(2) == 1 + 4 + 12
    assert str(IntPolynomial((1, -1, 1))) == "q^2 - q + 1"
    assert IntPolynomial((1, 1)) == IntPolynomial((1, 1, 0))


def test_divmod_contract_random():
    rng = random.Random(123)
    for _ in range(80):
        g = IntPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [1])
        f = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
        f1, r = divmod(f, g)
        assert g * f1 + r == f
        assert r.is_zero() or r.degree < g.degree


def test_divmod_requires_exact_leading_division():
    with pytest.raises(ValueError):
        divmod(IntPolynomial((0, 0, 1)), IntPolynomial((0, 2)))
    with pytest.raises(ZeroDivisionError):
        divmod(ONE, IntPolynomial())


def test_cyclotomic_small_values():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    # divide q^6-1 by the proper-divisor factors, independently of the kernel
    q6 = x_power_minus_one(6)
    rest = cyclotomic(1) * cyclotomic(2) * cyclotomic(3)
    assert q6.exact_div(rest).coeffs == (1, -1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_product_identity_up_to_30():
    for n in range(1, 31):
        prod = ONE
        for j in range(1, n + 1):
            if n % j == 0:
                prod = prod * cyclotomic(j)
        assert prod == x_power_minus_one(n)


def test_gaussian_binomial_poly_cases():
    assert gaussian_binomial_poly(4, 0) == ONE
    # expand (q^2+1)(q^2+q+1)
    expected = IntPolynomial((1, 0, 1)) * IntPolynomial((1, 1, 1))
    assert gaussian_binomial_poly(4, 2) == expected
    assert gaussian_binomial_poly(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert gaussian_binomial_poly(4, 2)(2) == 35
    assert gaussian_binomial_poly(4, 2).degree == 2 * 2


def test_gaussian_binomial_int_values():
    assert gaussian_binomial_int(4, 2, 2) == 35
    assert gaussian_binomial_int(5, 2, 2) == 155
    assert gaussian_binomial_int(4, 2, 3) == 130
    assert gaussian_binomial_int(10, 5, 2) == 109221651
    assert gaussian_binomial_int(8, 3, 2) == 97155


def test_knuth_wilf_small_cases():
    assert knuth_wilf_exponents(2, 1).exponents == {2: 1}
    assert knuth_wilf_exponents(4, 2).exponents == {3: 1, 4: 1}


def test_knuth_wilf_product_matches_polynomial():
    for n in range(13):
        for m in range(n + 1):
            fac = knuth_wilf_exponents(n, m)
            assert all(e in (0, 1) for e in fac.exponents.values())
            assert fac.expand() == gaussian_binomial_poly(n, m)


def test_gaussian_symmetry():
    for n in range(15):
        for m in range(n + 1):
            assert gaussian_binomial_poly(n, m) == gaussian_binomial_poly(n, n - m)


def test_omega_poly():
    assert omega_poly(4, 2)(2) == 7
    assert omega_poly(5, 2)(2) == 15
    # at n = 2m the clique number equals the top size (q^(m+1)-1)/(q-1)
    for m in (2, 3):
        top_size = x_power_minus_one(m + 1).exact_div(x_power_minus_one(1))
        assert omega_poly(2 * m, m) == top_size
    # n < 2m falls back to the top-size branch
    assert omega_poly(3, 2) == x_power_minus_one(3).exact_div(x_power_minus_one(1))


def test_h_report_4_2():
    rep = h_report(4, 2)
    assert rep.f.coeffs == (1, 0, 1)  # q^2 + 1
    assert rep.g == ONE
    assert rep.r.is_zero()
    assert rep.applicable is False
    assert rep.gcd_value == 1


def test_h_report_5_2():
    rep = h_report(5, 2)
    assert rep.applicable is True
    assert rep.gcd_value == 2
    assert rep.exponents.exponents == {2: -1, 5: 1}
    assert rep.g.coeffs == (1, 1)  # q + 1
    assert rep.f.coeffs == (1, 1, 1, 1, 1)
    assert rep.f1.coeffs == (0, 1, 0, 1)  # q^3 + q
    assert rep.r == ONE
    # h(q) = (q^5 - 1)/(q^2 - 1): cross-multiply
    assert rep.f * x_power_minus_one(2) == x_power_minus_one(5) * rep.g


def test_h_report_8_3():
    rep = h_report(8, 3)
    assert rep.applicable is True
    assert rep.gcd_value == 3
    # the lower index range is not uniformly nonpositive: j=4 contributes +1
    assert rep.exponents.exponents == {3: -1, 4: 1, 7: 1, 8: 1}
    assert not rep.r.is_zero()
    assert rep.g == cyclotomic(3)


def test_h_report_contract_over_range():
    for n in range(4, 13):
        for m in range(2, n // 2 + 1):
            rep = h_report(n, m)
            assert all(e in (-1, 0, 1) for e in rep.exponents.exponents.values())
            assert rep.f.is_monic() and rep.g.is_monic()
            assert rep.g * rep.f1 + rep.r == rep.f
            assert gaussian_binomial_poly(n, m) * rep.g == rep.f * omega_poly(n, m)
            if rep.applicable:
                assert rep.exponents.exponents[rep.gcd_value] == -1
                assert not rep.r.is_zero()
                assert rep.g.degree >= 1
            assert rep.applicable == (gcd(m, n - m + 1) >= 2)


def test_h_report_preconditions():
    with pytest.raises(ValueError):
        h_report(4, 1)
    with pytest.raises(ValueError):
        h_report(3, 2)


def test_h_integrality_values():
    assert h_integrality(4, 2, 2) == 5
    assert h_integrality(5, 2, 2) == Fraction(31, 3)
    assert h_integrality(5, 2, 3) == Fraction(121, 4)
    assert h_integrality(8, 3, 2) == Fraction(97155, 63)
    assert h_integrality(8, 3, 2) == Fraction(10795, 7)  # reduced form
    assert h_integrality(6, 3, 2) == 93


def test_h_integrality_rejects_non_prime_powers():
    for bad in (6, 12, 1, 0):
        with pytest.raises(ValueError):
            h_integrality(5, 2, bad)


def test_scan_5_2():
    rep = scan_core_threshold(5, 2, 64)
    assert rep.applicable and rep.gcd_value == 2
    assert len(rep.entries) == 27  # prime powers up to 64
    assert all(not e.is_integer for e in rep.entries)
    assert rep.largest_integer_q is None
    # spot values: (q^5-1)/(q^2-1) at q = 2 and 3
    by_q = {e.q: e for e in rep.entries}
    assert (by_q[2].numerator, by_q[2].denominator) == (31, 3)
    assert (by_q[3].numerator, by_q[3].denominator) == (121, 4)


def test_scan_4_2_control_case():
    rep = scan_core_threshold(4, 2, 64)
    assert not rep.applicable
    assert all(e.is_integer for e in rep.entries)
    assert rep.largest_integer_q == 64


def test_scan_8_3():
    rep = scan_core_threshold(8, 3, 16)
    assert rep.applicable
    assert all(not e.is_integer for e in rep.entries)


def test_omega_int_matches_poly():
    for n in range(1, 13):
        for m in range(1, n + 1):
            poly = omega_poly(n, m)
            for q in (2, 3, 4, 5, 7, 8, 9):
                assert omega_int(n, m, q) == poly(q), (n, m, q)


def test_q_constant():
    assert Q(5) == 5
    assert (Q**2 + Q + 1)(3) == 13


def test_gaussian_binomial_poly_matches_the_dense_product():
    for n in range(31):
        for m in range(n + 1):
            assert gaussian_binomial_poly(n, m) == oracles.gaussian_binomial_poly(n, m), (n, m)
    assert gaussian_binomial_poly(80, 40) == oracles.gaussian_binomial_poly(80, 40)


@pytest.mark.parametrize("n, m", [(5, -1), (5, 6), (0, 1), (0, -1)])
def test_gaussian_binomial_poly_rejects_m_outside_0_to_n(n, m):
    with pytest.raises(ValueError):
        gaussian_binomial_poly(n, m)


def test_scan_matches_the_fraction_reference():
    for n in range(4, 25):
        for m in range(2, n // 2 + 1):
            assert scan_core_threshold(n, m, 3000) == oracles.scan_core_threshold(n, m, 3000)
    assert scan_core_threshold(8, 3, 200000) == oracles.scan_core_threshold(8, 3, 200000)


def test_cyclotomic_matches_the_recursive_division():
    for t in range(1, 301):
        assert cyclotomic(t) == oracles.cyclotomic(t), t
    assert -2 in cyclotomic(105).coeffs


def test_qd_kernel_refuses_an_inexact_division():
    assert qpoly._qd_product([(6, 1), (1, 1), (2, -1), (3, -1)]) == IntPolynomial((1, -1, 1))
    for steps in ([(1, -1)], [(2, 1), (3, -1)], [(4, 1), (3, -1)]):
        with pytest.raises(ValueError, match="does not divide the partial product"):
            qpoly._qd_product(steps)


def test_split_matches_the_dense_products():
    shapes = [(n, m) for n in range(4, 41) for m in range(2, n // 2 + 1)] + [(80, 40)]
    for n, m in shapes:
        exps = h_exponents(n, m)
        assert exps.split() == oracles.cyclo_split(exps.exponents), (n, m)
    for n in range(31):
        for m in range(n + 1):
            exps = knuth_wilf_exponents(n, m)
            assert exps.split() == oracles.cyclo_split(exps.exponents), (n, m)


def test_binomial_and_scan_kernels_stay_sparse(monkeypatch):
    """No q-polynomial kernel may fall back on dense polynomial products or a
    Fraction per q."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(IntPolynomial, "__mul__", refuse)
    monkeypatch.setattr(IntPolynomial, "__pow__", refuse)
    monkeypatch.setattr(IntPolynomial, "__divmod__", refuse)
    monkeypatch.setattr(qpoly, "Fraction", refuse)
    assert gaussian_binomial_poly(80, 40).degree == 1600
    rep = scan_core_threshold(8, 3, 5000)
    assert rep.entries and rep.largest_integer_q is None
    assert cyclotomic(105).degree == 48
    assert omega_poly(9, 3).coeffs == (1,) * 7
    f, g = h_exponents(80, 40).split()
    assert f.is_monic() and g.is_monic()
    assert knuth_wilf_exponents(30, 12).expand().degree == 12 * 18
