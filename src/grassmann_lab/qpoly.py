"""Exact integer-polynomial machinery for q-binomial combinatorics.

Everything here is exact: coefficients are arbitrary-precision ints and
every division is checked.  The central objects are

  * products of factors (q^d - 1)^(+-1), built one factor at a time on a
    coefficient list at O(degree) per factor; cyclotomic polynomials and
    their products are built as such, since q^d - 1 = prod_{t | d} Phi_t,
  * Gaussian binomials as polynomials in q and as evaluated integers,
  * their cyclotomic factorization via floor-sum exponents,
  * the ratio h(q) = (vertex count of the Grassmann graph) / (clique
    number), split into a numerator/denominator pair of cyclotomic
    products, whose non-integrality at a prime power q certifies that
    the graph is a core.

No polynomial product is ever formed: the one identity between products
that the h report checks, [n,m]_q * g == f * omega, is decided as two
integer products by Kronecker substitution, packing each polynomial as
its value at a power of two large enough that the integers can agree only
if the polynomials do.

A value of h at an integer q is the pair (numerator, denominator) in
lowest terms, so h(q) is an integer exactly when the denominator is 1;
no rational type is needed.  Where h has no negative cyclotomic exponent
it is a polynomial, and each h(q) is one exact division, with no gcd.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .arith import prime_power_base, prime_powers_upto


class IntPolynomial:
    """Dense polynomial over the integers, constant term first.

    The zero polynomial has an empty coefficient tuple.  divmod is exact
    and raises if a leading-coefficient division is not (all divisors used
    in this package are monic, so the quotient and remainder are the
    unique integer ones).  Products are compared, never formed: see
    _same_product.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __divmod__(self, other: "IntPolynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dc = other.coeffs
        dd = len(dc) - 1
        lead = dc[-1]
        if len(rem) <= dd:
            return IntPolynomial(), self
        quo = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            t, r = divmod(c, lead)
            if r:
                raise ValueError(f"non-exact leading division: {c} by {lead}")
            quo[i - dd] = t
            for j, d in enumerate(dc):
                rem[i - dd + j] -= t * d
        return IntPolynomial(quo), IntPolynomial(rem)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)


def _packed(p: IntPolynomial, width: int) -> int:
    """p(2^(8 width)), for coefficients below 2^(8 width) in absolute value.

    The positive and the negative coefficients are each written as
    width-byte little-endian words and read back as one int.
    """
    zero = bytes(width)
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero for c in p.coeffs)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero for c in p.coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _same_product(a: IntPolynomial, b: IntPolynomial, c: IntPolynomial, d: IntPolynomial) -> bool:
    """Whether a*b == c*d, compared as two integer products (Kronecker substitution).

    Each polynomial is packed as its value at x = 2^W (_packed, linear
    time), and the test is a(x) b(x) == c(x) d(x).  This is exact.  A
    coefficient of a*b is at most ||a||_1 ||b||_inf in absolute value, and
    one of c*d at most ||c||_1 ||d||_inf, so with
    B = 2 max(||a||_1 ||b||_inf, ||c||_1 ||d||_inf) every coefficient of
    D = a*b - c*d is at most B in absolute value.  W is
    w = bitlen(B) + 1 rounded up to whole bytes, so B < 2^(W-1) = x/2.  If
    D != 0, let D_k be its lowest nonzero coefficient: D(x) is x^k times
    D_k plus a multiple of x, and 0 < |D_k| < x, so D(x) != 0.  Equal
    integers therefore mean equal polynomials.  When no factor is zero
    every norm is at least 1, so each coefficient of a, b, c and d is at
    most B/2 and fits its word; a zero factor is decided without packing.
    """
    ab_zero = a.is_zero() or b.is_zero()
    cd_zero = c.is_zero() or d.is_zero()
    if ab_zero or cd_zero:
        return ab_zero and cd_zero
    bound = 2 * max(
        sum(map(abs, a.coeffs)) * max(map(abs, b.coeffs)),
        sum(map(abs, c.coeffs)) * max(map(abs, d.coeffs)),
    )
    width = (bound.bit_length() + 8) // 8
    return _packed(a, width) * _packed(b, width) == _packed(c, width) * _packed(d, width)


def _qd_product(steps) -> IntPolynomial:
    """The product of (q^d - 1)^s over the steps (d, s), s = +1 or -1, in order.

    Works on one coefficient list c, constant term first.  Multiplying by
    q^d - 1 shifts c up by d places and subtracts c.  Dividing by q^d - 1
    runs from the top down: the quotient's coefficients obey
    quo[k-d] = c[k] + quo[k], which in place is c[k-d] += c[k]; then c[d:]
    is the quotient and c[:d] the remainder, which must vanish.
    """
    c = [1]
    for d, s in steps:
        if s > 0:
            c = [0] * d + c
            for k in range(len(c) - d):
                c[k] -= c[k + d]
            continue
        for k in range(len(c) - 1, d - 1, -1):
            c[k - d] += c[k]
        if any(c[:d]):
            raise ValueError(f"q^{d} - 1 does not divide the partial product")
        c = c[d:]
    return IntPolynomial(c)


def gaussian_binomial_poly(n: int, m: int) -> IntPolynomial:
    """[n choose m]_q as a polynomial in q, degree m(n-m).

    Product of (q^(n+1-i) - 1)/(q^i - 1) for i = 1..m, interleaving each
    multiplication with its division so every intermediate stays a
    polynomial.  [n,m]_q = [n,n-m]_q, so it builds the one with fewer
    factors.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    m = min(m, n - m)
    return _qd_product(step for i in range(1, m + 1) for step in ((n + 1 - i, 1), (i, -1)))


def gaussian_binomial_int(n: int, m: int, q: int) -> int:
    """[n choose m]_q evaluated at an integer q, exactly.

    [n,m]_q = [n,n-m]_q, so it multiplies min(m, n-m) factor pairs.
    """
    if m < 0 or m > n:
        return 0
    m = min(m, n - m)
    num = 1
    den = 1
    for i in range(1, m + 1):
        num *= q ** (n + 1 - i) - 1
        den *= q**i - 1
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Gaussian binomial division was not exact")
    return quo


class CycloFactorization(NamedTuple):
    """A product of cyclotomic-polynomial powers, stored as t -> exponent.

    Only nonzero exponents are kept.  Gaussian binomials have exponents
    in {0, 1}; the vertex/clique ratio h has exponents in {-1, 0, 1}.
    """

    exponents: dict[int, int]

    def split(self) -> tuple[IntPolynomial, IntPolynomial]:
        """(numerator, denominator) as monic polynomials.

        Each side is built as powers c_d of q^d - 1: q^d - 1 = prod_{t | d}
        Phi_t, so each exponent e_t is the sum of c_d over the multiples d of
        t, solved from the largest t down.  The multiplications run first, so
        every division is exact.
        """
        sides = []
        for sign in (1, -1):
            e = {t: sign * x for t, x in self.exponents.items() if sign * x > 0}
            top = max(e, default=0)
            c = [0] * (top + 1)
            for t in range(top, 0, -1):
                c[t] = e.get(t, 0) - sum(c[2 * t :: t])
            steps = [(d, 1) for d, k in enumerate(c) for _ in range(k)]
            steps += [(d, -1) for d, k in enumerate(c) for _ in range(-k)]
            sides.append(_qd_product(steps))
        return sides[0], sides[1]


def knuth_wilf_exponents(n: int, m: int) -> CycloFactorization:
    """Cyclotomic exponents of [n choose m]_q.

    The exponent of the i-th cyclotomic polynomial is
    floor(n/i) - floor(m/i) - floor((n-m)/i), which is 0 or 1; the
    assembled product equals gaussian_binomial_poly(n, m).
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    exps = {}
    for i in range(1, n + 1):
        e = n // i - m // i - (n - m) // i
        if e:
            exps[i] = e
    return CycloFactorization(exps)


def _omega_exponent(n: int, m: int) -> int:
    """k with clique number (q^k - 1)/(q - 1): stars when n >= 2m, tops otherwise."""
    if m < 1 or n < m:
        raise ValueError("need 1 <= m <= n")
    return n - m + 1 if n >= 2 * m else m + 1


def omega_poly(n: int, m: int) -> IntPolynomial:
    """Clique number of the Grassmann graph as a polynomial in q.

    (q^(n-m+1) - 1)/(q - 1) when n >= 2m (stars are maximum cliques),
    (q^(m+1) - 1)/(q - 1) otherwise (tops are).
    """
    return _qd_product([(_omega_exponent(n, m), 1), (1, -1)])


def omega_int(n: int, m: int, q: int) -> int:
    """Clique number evaluated at an integer q >= 2, on integers."""
    return (q ** _omega_exponent(n, m) - 1) // (q - 1)


class HReport(NamedTuple):
    """The vertex/clique ratio h(q) = [n,m]_q / omega for one (n, m).

    ``exponents`` is the cyclotomic factorization of h; ``f`` collects the
    factors with exponent +1 (the numerator), ``g`` those with exponent -1
    (the denominator), both monic, with h = f/g.  ``f1`` and ``r`` are the
    quotient and remainder of f by g, so f = g*f1 + r with deg r < deg g
    whenever g is nonconstant.  ``applicable`` flags gcd(m, n-m+1) >= 2,
    the case in which g is guaranteed nonconstant and r nonzero, so h(q)
    fails to be an integer for every large enough q.
    """

    n: int
    m: int
    gcd_value: int
    exponents: CycloFactorization
    f: IntPolynomial
    g: IntPolynomial
    f1: IntPolynomial
    r: IntPolynomial
    applicable: bool


def h_exponents(n: int, m: int) -> CycloFactorization:
    """Cyclotomic exponents of h(q) = [n,m]_q / omega(n, m), n >= 2m.

    omega = (q^(n-m+1) - 1)/(q - 1) is the product of Phi_t over the
    divisors t >= 2 of n-m+1, so h has the Knuth-Wilf exponents of [n,m]_q
    less one at each such t.  They lie in {-1, 0, 1} (+1 occurs, e.g. at
    t = 4 for (n, m) = (8, 3)).  In particular, when an i >= 2 divides
    both m and n-m+1, the exponent at i is exactly -1.
    """
    exps = dict(knuth_wilf_exponents(n, m).exponents)
    for t in range(2, n - m + 2):
        if (n - m + 1) % t == 0:
            exps[t] = exps.get(t, 0) - 1
    for t, e in exps.items():
        if not -1 <= e <= 1:
            raise ArithmeticError(f"exponent {e} out of range at t={t}")
    return CycloFactorization({t: e for t, e in exps.items() if e})


def h_report(n: int, m: int, binomial: IntPolynomial) -> HReport:
    """Assemble the h(q) ratio report for 4 <= 2m <= n from binomial = [n,m]_q.

    Cross-checks the exponent-wise form against the defining ratio,
    binomial * g == f * omega, as one packed integer comparison
    (_same_product, linear in the degree but for two integer products), so
    a binomial that is not [n,m]_q is refused.  In the applicable case it
    confirms that the cyclotomic factor indexed by gcd(m, n-m+1) sits in
    the denominator and that the division leaves a nonzero remainder.
    """
    if not (2 <= m and 2 * m <= n):
        raise ValueError("need 4 <= 2m <= n")
    exps = h_exponents(n, m)
    f, g = exps.split()
    i = gcd(m, n - m + 1)
    applicable = i >= 2
    if not _same_product(binomial, g, f, omega_poly(n, m)):
        raise ArithmeticError("exponent-wise h disagrees with [n,m]/omega")
    f1, r = divmod(f, g)
    if g.degree >= 1 and not r.degree < g.degree:
        raise ArithmeticError("division contract violated")
    if applicable:
        if exps.exponents.get(i, 0) != -1:
            raise ArithmeticError(f"expected exponent -1 at index {i}")
        if r.is_zero():
            raise ArithmeticError("expected nonzero remainder in applicable case")
    return HReport(n, m, i, exps, f, g, f1, r, applicable)


def h_integrality(n: int, m: int, q: int) -> tuple[int, int]:
    """Evaluate (vertex count)/(clique number) at a prime power q.

    Returns the ratio in lowest terms as (numerator, denominator); it is
    integral exactly when the denominator is 1.  Non-integrality
    certifies that the Grassmann graph is a core.
    """
    if prime_power_base(q) is None:
        raise ValueError(f"{q} is not a prime power")
    if not (2 <= m and 2 * m <= n):
        raise ValueError("need 4 <= 2m <= n")
    _, num, den = _h_rows(n, m, (q,))[0]
    return num, den


def _h_rows(n: int, m: int, qs) -> tuple[tuple[int, int, int], ...]:
    """One row (q, numerator, denominator) of h(q) in lowest terms per q in qs, 4 <= 2m <= n.

    omega = (q^(n-m+1) - 1)/(q - 1) cancels the i = m factor of the
    numerator of [n,m]_q = prod_{i=1..m} (q^(n+1-i) - 1)/(q^i - 1), and its
    q - 1 cancels the i = 1 factor of the denominator, so
    h(q) = prod_{i=1..m-1} (q^(n+1-i) - 1) / prod_{i=2..m} (q^i - 1): two
    products of m - 1 factors per q.  Whether h is a polynomial in q (no
    negative exponent in h_exponents) is decided once, for all q.  If it
    is, every h(q) is an integer, and the row is one divmod of the two
    products, whose remainder must vanish.  Otherwise both products are
    divided by their gcd.
    """
    polynomial = min(h_exponents(n, m).exponents.values(), default=0) >= 0
    rows = []
    for q in qs:
        num = den = 1
        top = q ** (n + 2 - m)
        bottom = q
        for _ in range(m - 1):
            bottom *= q
            num *= top - 1
            den *= bottom - 1
            top *= q
        if polynomial:
            num, rem = divmod(num, den)
            if rem:
                raise ArithmeticError(f"h({q}) is not an integer, but h is a polynomial")
            rows.append((q, num, 1))
        else:
            g = gcd(num, den)
            rows.append((q, num // g, den // g))
    return tuple(rows)


class ScanReport(NamedTuple):
    """Integrality of h(q) over all prime powers q <= q_max.

    ``entries`` holds one row (q, numerator, denominator) per prime power,
    h(q) in lowest terms; h(q) is an integer exactly when the denominator
    is 1.  Numeric evidence only: a run of non-integers suggests (but does
    not prove) that the graph family consists of cores for every q.
    """

    n: int
    m: int
    q_max: int
    gcd_value: int
    applicable: bool
    entries: tuple[tuple[int, int, int], ...]
    largest_integer_q: int | None


def scan_core_threshold(n: int, m: int, q_max: int) -> ScanReport:
    """Evaluate h at every prime power q <= q_max and record integrality.

    The rows come from one pass of _h_rows over the prime powers: one
    divmod per q where h is a polynomial in q, one gcd per q otherwise.
    """
    if not (2 <= m and 2 * m <= n):
        raise ValueError("need 4 <= 2m <= n")
    i = gcd(m, n - m + 1)
    entries = _h_rows(n, m, prime_powers_upto(q_max))
    largest = next((q for q, _, den in reversed(entries) if den == 1), None)
    return ScanReport(n, m, q_max, i, i >= 2, entries, largest)
