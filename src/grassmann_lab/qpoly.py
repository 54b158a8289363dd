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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .arith import prime_power_base, prime_powers_upto


class IntPolynomial:
    """Dense polynomial over the integers, constant term first.

    The zero polynomial has an empty coefficient tuple.  Arithmetic is
    exact; divmod raises if a leading-coefficient division is not exact
    (all divisors used in this package are monic, so the quotient and
    remainder are the unique integer ones).
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

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "IntPolynomial"):
        if isinstance(other, int):
            other = IntPolynomial((other,))
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

    def __floordiv__(self, other):
        q, _ = divmod(self, other)
        return q

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Divide, insisting on zero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"IntPolynomial({str(self)!r})"

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


ONE = IntPolynomial((1,))
Q = IntPolynomial((0, 1))


def x_power_minus_one(t: int) -> IntPolynomial:
    """q^t - 1."""
    return IntPolynomial([-1] + [0] * (t - 1) + [1])


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


def cyclotomic(t: int) -> IntPolynomial:
    """The t-th cyclotomic polynomial, monic with integer coefficients."""
    if t < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return CycloFactorization({t: 1}).expand()


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
    """[n choose m]_q evaluated at an integer q, exactly."""
    if m < 0 or m > n:
        return 0
    num = 1
    den = 1
    for i in range(1, m + 1):
        num *= q ** (n + 1 - i) - 1
        den *= q**i - 1
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Gaussian binomial division was not exact")
    return quo


@dataclass(frozen=True)
class CycloFactorization:
    """A product of cyclotomic-polynomial powers, stored as t -> exponent.

    Only nonzero exponents are kept.  Gaussian binomials have exponents
    in {0, 1}; the vertex/clique ratio h has exponents in {-1, 0, 1}.
    """

    exponents: dict[int, int] = field(default_factory=dict)

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

    def expand(self) -> IntPolynomial:
        """The product as a single polynomial; requires no negative exponents."""
        num, den = self.split()
        if den != ONE:
            raise ValueError("factorization has negative exponents")
        return num


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


@dataclass(frozen=True)
class HReport:
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

    For j in [2, n-m+1] the exponent is
    floor(n/j) - floor(m/j) - floor((n-m+1)/j), which lies in {-1, 0, 1}
    (it can reach +1, e.g. j = 4 for (n, m) = (8, 3)); for j in
    [n-m+2, n] it is floor(n/j) - floor(m/j) - floor((n-m)/j), in {0, 1}.
    In particular, when an i >= 2 divides both m and n-m+1, the exponent
    at j = i is exactly -1.
    """
    exps = {}
    for j in range(2, n - m + 2):
        e = n // j - m // j - (n - m + 1) // j
        if not -1 <= e <= 1:
            raise ArithmeticError(f"exponent {e} out of range at j={j}")
        if e:
            exps[j] = e
    for j in range(n - m + 2, n + 1):
        e = n // j - m // j - (n - m) // j
        if not 0 <= e <= 1:
            raise ArithmeticError(f"exponent {e} out of range at j={j}")
        if e:
            exps[j] = e
    return CycloFactorization(exps)


def h_report(n: int, m: int) -> HReport:
    """Assemble the h(q) ratio report for 4 <= 2m <= n.

    Cross-checks the exponent-wise form against the defining ratio by
    multiplication ([n,m]_q * g == f * omega) and, in the applicable
    case, confirms that the cyclotomic factor indexed by gcd(m, n-m+1)
    sits in the denominator and that the division leaves a nonzero
    remainder.
    """
    if not (2 <= m and 2 * m <= n):
        raise ValueError("need 4 <= 2m <= n")
    exps = h_exponents(n, m)
    f, g = exps.split()
    i = gcd(m, n - m + 1)
    applicable = i >= 2
    if gaussian_binomial_poly(n, m) * g != f * omega_poly(n, m):
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


def h_integrality(n: int, m: int, q: int):
    """Evaluate (vertex count)/(clique number) at a prime power q.

    Returns an int when the ratio is integral, otherwise the reduced
    Fraction.  Non-integrality certifies that the Grassmann graph is a
    core.
    """
    if prime_power_base(q) is None:
        raise ValueError(f"{q} is not a prime power")
    if not (2 <= m and 2 * m <= n):
        raise ValueError("need 4 <= 2m <= n")
    num, den = _h_parts(n, m, q)
    return num if den == 1 else Fraction(num, den)


def _h_parts(n: int, m: int, q: int) -> tuple[int, int]:
    """h(q) in lowest terms as (numerator, denominator), one gcd per q."""
    num = gaussian_binomial_int(n, m, q)
    den = omega_int(n, m, q)
    g = gcd(num, den)
    return num // g, den // g


@dataclass(frozen=True)
class ScanEntry:
    q: int
    is_integer: bool
    numerator: int
    denominator: int


@dataclass(frozen=True)
class ScanReport:
    """Integrality of h(q) over all prime powers q <= q_max.

    Numeric evidence only: a run of non-integers suggests (but does not
    prove) that the graph family consists of cores for every q.
    """

    n: int
    m: int
    q_max: int
    gcd_value: int
    applicable: bool
    entries: tuple[ScanEntry, ...]
    largest_integer_q: int | None


def scan_core_threshold(n: int, m: int, q_max: int) -> ScanReport:
    """Evaluate h at every prime power q <= q_max and record integrality."""
    if not (2 <= m and 2 * m <= n):
        raise ValueError("need 4 <= 2m <= n")
    i = gcd(m, n - m + 1)
    entries = []
    largest = None
    for q in prime_powers_upto(q_max):
        num, den = _h_parts(n, m, q)
        entries.append(ScanEntry(q, den == 1, num, den))
        if den == 1:
            largest = q
    return ScanReport(n, m, q_max, i, i >= 2, tuple(entries), largest)
