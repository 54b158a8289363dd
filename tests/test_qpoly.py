import random
from fractions import Fraction
from math import gcd

import oracles
import pytest

from grassmann_lab import (
    CycloFactorization,
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
from grassmann_lab.cli import main
from grassmann_lab.qpoly import IntPolynomial, h_exponents
from oracles import ONE, Q, poly_add, poly_eval, poly_mul, poly_pow, poly_sub, x_power_minus_one


def test_polynomial_arithmetic_basics():
    p = IntPolynomial((1, 2, 3))
    q = IntPolynomial((0, 1))
    assert poly_add(p, q).coeffs == (1, 3, 3)
    assert poly_sub(p, p).is_zero()
    assert poly_mul(q, q).coeffs == (0, 0, 1)
    assert poly_pow(q, 5).coeffs == (0,) * 5 + (1,)
    assert poly_eval(p, 2) == 1 + 4 + 12
    assert str(IntPolynomial((1, -1, 1))) == "q^2 - q + 1"
    assert IntPolynomial((1, 1)) == IntPolynomial((1, 1, 0))


def test_divmod_contract_random():
    rng = random.Random(123)
    for _ in range(80):
        g = IntPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [1])
        f = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
        f1, r = divmod(f, g)
        assert poly_add(poly_mul(g, f1), r) == f
        assert r.is_zero() or r.degree < g.degree


def test_divmod_requires_exact_leading_division():
    with pytest.raises(ValueError):
        divmod(IntPolynomial((0, 0, 1)), IntPolynomial((0, 2)))
    with pytest.raises(ZeroDivisionError):
        divmod(ONE, IntPolynomial())


def cyclotomic(t):
    """Phi_t from the library's factorization kernel."""
    return oracles.expand(CycloFactorization({t: 1}))


def test_cyclotomic_small_values():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    # divide q^6-1 by the proper-divisor factors, independently of the kernel
    q6 = x_power_minus_one(6)
    rest = poly_mul(poly_mul(cyclotomic(1), cyclotomic(2)), cyclotomic(3))
    assert oracles.exact_div(q6, rest).coeffs == (1, -1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    with pytest.raises(ValueError):
        oracles.cyclotomic(0)


def test_cyclotomic_product_identity_up_to_30():
    for n in range(1, 31):
        prod = ONE
        for j in range(1, n + 1):
            if n % j == 0:
                prod = poly_mul(prod, cyclotomic(j))
        assert prod == x_power_minus_one(n)


def test_gaussian_binomial_poly_cases():
    assert gaussian_binomial_poly(4, 0) == ONE
    # expand (q^2+1)(q^2+q+1)
    expected = poly_mul(IntPolynomial((1, 0, 1)), IntPolynomial((1, 1, 1)))
    assert gaussian_binomial_poly(4, 2) == expected
    assert gaussian_binomial_poly(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert poly_eval(gaussian_binomial_poly(4, 2), 2) == 35
    assert gaussian_binomial_poly(4, 2).degree == 2 * 2


def test_gaussian_binomial_int_values():
    assert gaussian_binomial_int(4, 2, 2) == 35
    assert gaussian_binomial_int(5, 2, 2) == 155
    assert gaussian_binomial_int(4, 2, 3) == 130
    assert gaussian_binomial_int(10, 5, 2) == 109221651
    assert gaussian_binomial_int(8, 3, 2) == 97155


def test_gaussian_binomial_int_is_symmetric_and_obeys_q_pascal():
    # [n,m]_q = [n-1,m-1]_q + q^m [n-1,m]_q
    for q in (2, 3, 4, 5, 7):
        row = [1]
        for n in range(31):
            if n:
                row = [1] + [row[m - 1] + q**m * row[m] for m in range(1, n)] + [1]
            for m in range(n + 1):
                assert gaussian_binomial_int(n, m, q) == row[m]
                assert gaussian_binomial_int(n, n - m, q) == row[m]


def test_knuth_wilf_small_cases():
    assert knuth_wilf_exponents(2, 1).exponents == {2: 1}
    assert knuth_wilf_exponents(4, 2).exponents == {3: 1, 4: 1}


def test_knuth_wilf_product_matches_polynomial():
    for n in range(13):
        for m in range(n + 1):
            fac = knuth_wilf_exponents(n, m)
            assert all(e in (0, 1) for e in fac.exponents.values())
            assert oracles.expand(fac) == gaussian_binomial_poly(n, m)


def test_gaussian_symmetry():
    for n in range(15):
        for m in range(n + 1):
            assert gaussian_binomial_poly(n, m) == gaussian_binomial_poly(n, n - m)


def test_omega_poly():
    assert poly_eval(omega_poly(4, 2), 2) == 7
    assert poly_eval(omega_poly(5, 2), 2) == 15
    # at n = 2m the clique number equals the top size (q^(m+1)-1)/(q-1)
    for m in (2, 3):
        top_size = oracles.exact_div(x_power_minus_one(m + 1), x_power_minus_one(1))
        assert omega_poly(2 * m, m) == top_size
    # n < 2m falls back to the top-size branch
    assert omega_poly(3, 2) == oracles.exact_div(x_power_minus_one(3), x_power_minus_one(1))


def test_h_report_4_2():
    rep = h_report(4, 2, gaussian_binomial_poly(4, 2))
    assert rep.f.coeffs == (1, 0, 1)  # q^2 + 1
    assert rep.g == ONE
    assert rep.r.is_zero()
    assert rep.applicable is False
    assert rep.gcd_value == 1


def test_h_report_5_2():
    rep = h_report(5, 2, gaussian_binomial_poly(5, 2))
    assert rep.applicable is True
    assert rep.gcd_value == 2
    assert rep.exponents.exponents == {2: -1, 5: 1}
    assert rep.g.coeffs == (1, 1)  # q + 1
    assert rep.f.coeffs == (1, 1, 1, 1, 1)
    assert rep.f1.coeffs == (0, 1, 0, 1)  # q^3 + q
    assert rep.r == ONE
    # h(q) = (q^5 - 1)/(q^2 - 1): cross-multiply
    assert poly_mul(rep.f, x_power_minus_one(2)) == poly_mul(x_power_minus_one(5), rep.g)


def test_h_report_8_3():
    rep = h_report(8, 3, gaussian_binomial_poly(8, 3))
    assert rep.applicable is True
    assert rep.gcd_value == 3
    # the lower index range is not uniformly nonpositive: j=4 contributes +1
    assert rep.exponents.exponents == {3: -1, 4: 1, 7: 1, 8: 1}
    assert not rep.r.is_zero()
    assert rep.g == oracles.cyclotomic(3)


def test_h_report_contract_over_range():
    for n in range(4, 13):
        for m in range(2, n // 2 + 1):
            binomial = gaussian_binomial_poly(n, m)
            rep = h_report(n, m, binomial)
            assert all(e in (-1, 0, 1) for e in rep.exponents.exponents.values())
            assert oracles.is_monic(rep.f) and oracles.is_monic(rep.g)
            assert poly_add(poly_mul(rep.g, rep.f1), rep.r) == rep.f
            assert poly_mul(binomial, rep.g) == poly_mul(rep.f, omega_poly(n, m))
            if rep.applicable:
                assert rep.exponents.exponents[rep.gcd_value] == -1
                assert not rep.r.is_zero()
                assert rep.g.degree >= 1
            assert rep.applicable == (gcd(m, n - m + 1) >= 2)


def test_h_exponents_match_the_floor_sums():
    # the exponent of Phi_j in [n,m]_q / omega, written out as floor sums:
    # floor(n/j) - floor(m/j) - floor((n-m+1)/j) for j <= n-m+1, and
    # floor(n/j) - floor(m/j) - floor((n-m)/j) above
    for n in range(4, 301):
        for m in range(2, n // 2 + 1):
            expected = {}
            for j in range(2, n + 1):
                rest = n - m + 1 if j <= n - m + 1 else n - m
                if e := n // j - m // j - rest // j:
                    expected[j] = e
            assert h_exponents(n, m).exponents == expected, (n, m)


def test_h_report_preconditions():
    with pytest.raises(ValueError):
        h_report(4, 1, gaussian_binomial_poly(4, 1))
    with pytest.raises(ValueError):
        h_report(3, 2, gaussian_binomial_poly(3, 2))


def test_h_integrality_values():
    assert h_integrality(4, 2, 2) == (5, 1)
    assert h_integrality(5, 2, 2) == (31, 3)
    assert h_integrality(5, 2, 3) == (121, 4)
    assert Fraction(*h_integrality(8, 3, 2)) == Fraction(97155, 63)
    assert h_integrality(8, 3, 2) == (10795, 7)  # reduced form
    assert h_integrality(6, 3, 2) == (93, 1)


def test_h_integrality_rejects_non_prime_powers():
    for bad in (6, 12, 1, 0):
        with pytest.raises(ValueError):
            h_integrality(5, 2, bad)


def test_scan_5_2():
    rep = scan_core_threshold(5, 2, 64)
    assert rep.applicable and rep.gcd_value == 2
    assert len(rep.entries) == 27  # prime powers up to 64
    assert all(den != 1 for _, _, den in rep.entries)
    assert rep.largest_integer_q is None
    # spot values: (q^5-1)/(q^2-1) at q = 2 and 3
    by_q = {q: (num, den) for q, num, den in rep.entries}
    assert by_q[2] == (31, 3)
    assert by_q[3] == (121, 4)


def test_scan_4_2_control_case():
    rep = scan_core_threshold(4, 2, 64)
    assert not rep.applicable
    assert all(den == 1 for _, _, den in rep.entries)
    assert rep.largest_integer_q == 64


def test_scan_8_3():
    rep = scan_core_threshold(8, 3, 16)
    assert rep.applicable
    assert all(den != 1 for _, _, den in rep.entries)


def test_omega_int_matches_poly():
    for n in range(1, 13):
        for m in range(1, n + 1):
            poly = omega_poly(n, m)
            for q in (2, 3, 4, 5, 7, 8, 9):
                assert omega_int(n, m, q) == poly_eval(poly, q), (n, m, q)


def test_q_constant():
    assert poly_eval(Q, 5) == 5
    assert poly_eval(poly_add(poly_add(poly_pow(Q, 2), Q), ONE), 3) == 13


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


def test_scan_matches_the_fraction_reference_on_both_branches_up_to_n_40():
    # the kernel divides once where h is a polynomial and reduces by a gcd elsewhere
    branches = set()
    for n in range(4, 41):
        for m in range(2, n // 2 + 1):
            branches.add(min(h_exponents(n, m).exponents.values()) >= 0)
            assert scan_core_threshold(n, m, 600) == oracles.scan_core_threshold(n, m, 600)
    assert branches == {True, False}


def test_a_polynomial_h_with_a_fractional_value_is_refused(monkeypatch, capsys):
    # h(q) = (q^5 - 1)/(q^2 - 1) for (5, 2); claim it has no negative exponent
    assert h_exponents(5, 2).exponents == {2: -1, 5: 1}
    monkeypatch.setattr(qpoly, "h_exponents", lambda n, m: CycloFactorization({5: 1}))
    with pytest.raises(ArithmeticError, match="not an integer, but h is a polynomial"):
        scan_core_threshold(5, 2, 64)
    assert main("scan --n 5 --m 2 --q-max 64".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ArithmeticError: ") and captured.err.count("\n") == 1


def test_h_kernel_matches_the_fraction_off_the_scanned_grid():
    def fractions(n, m, qs):
        for q in qs:
            want = Fraction(gaussian_binomial_int(n, m, q), omega_int(n, m, q))
            yield q, want.numerator, want.denominator

    shapes = [(80, 40), (243, 30), (650, 10)]
    for n, m in shapes:
        qs = (2, 3, 2048, 2**20)
        assert qpoly._h_rows(n, m, qs) == tuple(fractions(n, m, qs)), (n, m)
    for n in range(4, 41):
        for m in range(2, n // 2 + 1):
            qs = range(2, 65)
            assert qpoly._h_rows(n, m, qs) == tuple(fractions(n, m, qs)), (n, m)
            for q in (2, 4, 64):
                assert h_integrality(n, m, q) == qpoly._h_rows(n, m, (q,))[0][1:], (n, m, q)


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
    """No q-polynomial kernel may form a dense polynomial product or take a
    Fraction per q: IntPolynomial has no product to fall back on, and the
    kernels that need no division run with divmod refused."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    assert not any(hasattr(IntPolynomial, op) for op in ("__mul__", "__rmul__", "__pow__"))
    monkeypatch.setattr(IntPolynomial, "__divmod__", refuse)
    assert not hasattr(qpoly, "Fraction")
    assert gaussian_binomial_poly(80, 40).degree == 1600
    rep = scan_core_threshold(8, 3, 5000)
    assert rep.entries and rep.largest_integer_q is None
    assert oracles.expand(CycloFactorization({105: 1})).degree == 48
    assert omega_poly(9, 3).coeffs == (1,) * 7
    f, g = h_exponents(80, 40).split()
    assert oracles.is_monic(f) and oracles.is_monic(g)
    assert oracles.expand(knuth_wilf_exponents(30, 12)).degree == 12 * 18
    with pytest.raises(AssertionError, match="dense path taken"):
        divmod(f, g)


def _random_poly(rng, bits=80, max_degree=60):
    """A signed polynomial of degree 0..max_degree with coefficients below 2^bits; its
    leading coefficient is negative half the time."""
    coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(0, max_degree))]
    lead = rng.randint(1, 2**bits)
    return IntPolynomial(coeffs + [rng.choice((lead, -lead))])


def _negated_lead(p):
    return IntPolynomial(p.coeffs[:-1] + (-p.coeffs[-1],))


def test_packed_product_agrees_with_the_schoolbook_product():
    rng = random.Random(2024)
    zero = IntPolynomial()
    seen = {True: 0, False: 0}

    def check(a, b, c, d):
        want = poly_mul(a, b) == poly_mul(c, d)
        assert qpoly._same_product(a, b, c, d) == want, (a.coeffs, b.coeffs, c.coeffs, d.coeffs)
        seen[want] += 1

    for _ in range(60):
        u, v, w = (_random_poly(rng, bits=rng.choice((1, 8, 80))) for _ in range(3))
        uv, vw = poly_mul(u, v), poly_mul(v, w)
        check(uv, w, u, vw)  # (uv)w == u(vw)
        check(w, uv, vw, u)
        # one coefficient of one factor off by +-1 or by a random amount
        k = rng.randrange(len(uv.coeffs))
        for delta in (1, -1, rng.randint(-(2**80), 2**80) or 1):
            off = list(uv.coeffs)
            off[k] += delta
            check(IntPolynomial(off), w, u, vw)
        check(u, v, w, _random_poly(rng))  # independent pairs
        check(u, zero, zero, w)
        check(zero, u, v, w)
        check(u, v, w, zero)
        check(u, v, _negated_lead(u), v)
    check(zero, zero, zero, zero)
    assert seen[True] >= 120 and seen[False] >= 300


def test_packed_width_grows_with_the_coefficients():
    # x and the constant 2^k agree at x = 2^k, so a width that ignored the
    # coefficients' size would call them equal once k is a whole number of bytes
    for k in range(201):
        assert not qpoly._same_product(IntPolynomial((2**k,)), ONE, Q, ONE), k
        assert not qpoly._same_product(Q, ONE, IntPolynomial((2**k,)), ONE), k
        if k and k % 8 == 0:
            assert qpoly._packed(Q, k // 8) == 2**k
    # nor may the width follow the factors' coefficients alone: with C = x - 1,
    # (C + Cx)^2 has coefficients up to 2C^2, and at x it takes the value of
    # the polynomial c whose coefficients are that value's base-x digits
    for nbytes in range(1, 9):
        x = 2 ** (8 * nbytes)
        a = IntPolynomial((x - 1, x - 1))
        value = poly_eval(a, x) ** 2
        digits = [(value >> (8 * nbytes * i)) % x for i in range(4)]
        c = IntPolynomial(digits)
        assert max(digits) < x and poly_eval(c, x) == value and poly_mul(a, a) != c
        assert not qpoly._same_product(a, a, c, ONE), nbytes


@pytest.mark.parametrize("n, m", [(8, 3), (24, 12), (80, 40)])
def test_h_report_refuses_a_binomial_one_coefficient_off(n, m):
    binomial = gaussian_binomial_poly(n, m)
    top = binomial.degree
    for k in (0, top // 2, top):
        for delta in (1, -1):
            coeffs = list(binomial.coeffs)
            coeffs[k] += delta
            with pytest.raises(ArithmeticError, match="exponent-wise h disagrees"):
                h_report(n, m, IntPolynomial(coeffs))
    assert h_report(n, m, binomial).n == n
