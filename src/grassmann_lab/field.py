"""Exact arithmetic in GF(q), q = p^e.

A field element is a plain int in [0, q) encoding its polynomial-basis
coefficient vector (c0, c1, ..., c_{e-1}) as c0 + c1*p + ... + c_{e-1}*p^(e-1);
for a prime field (e = 1) that is just the residue mod p.  The modulus is
the lexicographically smallest monic irreducible polynomial of degree e
over Z_p, comparing coefficient tuples low degree first, so make_field is
deterministic: the same (p, e) always yields the same field.

Note the element *ordering* used for canonical enumerations compares
coefficient vectors low degree first, which differs from plain int order
once e > 1; FieldSpec.elements_in_order supplies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .arith import is_prime, prime_factors
from .config import FIELD_TABLE_LIMIT, MAX_FIELD_SIZE


# -- polynomial helpers over Z_p (coefficient lists, low degree first) --


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_mod(out, modulus, p)


def _poly_mod(a: list[int], modulus: list[int], p: int) -> list[int]:
    a = list(a)
    d = len(modulus) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(d):
                a[i - d + j] = (a[i - d + j] - c * modulus[j]) % p
    return _poly_trim(a)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        # reduce a mod b
        inv_lead = pow(b[-1], p - 2, p)
        d = len(b) - 1
        for i in range(len(a) - 1, d - 1, -1):
            c = a[i]
            if c:
                t = c * inv_lead % p
                for j in range(len(b)):
                    a[i - d + j] = (a[i - d + j] - t * b[j]) % p
        _poly_trim(a)
        a, b = b, a
    return a


def _x_pow_q_mod(p: int, k: int, modulus: list[int]) -> list[int]:
    """x^(p^k) reduced mod the given monic polynomial, by repeated squaring."""
    result = [0, 1]  # x
    for _ in range(k):
        acc = [1]
        base = result
        exp = p
        while exp:
            if exp & 1:
                acc = _poly_mul_mod(acc, base, modulus, p)
            base = _poly_mul_mod(base, base, modulus, p)
            exp >>= 1
        result = acc
    return result


def _is_irreducible(p: int, coeffs: list[int]) -> bool:
    """Irreducibility of a monic polynomial over Z_p.

    Degree <= 3: equivalent to having no roots (any factorization would
    include a linear factor).  Higher degree: x^(p^e) = x mod f together
    with gcd(x^(p^(e/d)) - x, f) = 1 for every prime d | e.
    """
    e = len(coeffs) - 1
    if e == 1:
        return True
    if e <= 3:
        for a in range(p):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * a + c) % p
            if acc == 0:
                return False
        return True
    xqe = _x_pow_q_mod(p, e, coeffs)
    if _poly_trim([(c - (1 if i == 1 else 0)) % p for i, c in enumerate(xqe + [0, 0])]):
        return False
    for d in prime_factors(e):
        xqk = _x_pow_q_mod(p, e // d, coeffs)
        diff = _poly_trim([(c - (1 if i == 1 else 0)) % p for i, c in enumerate(xqk + [0, 0])])
        g = _poly_gcd(coeffs, diff, p)
        if len(g) - 1 >= 1:
            return False
    return True


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over Z_p.

    Candidates (a0, ..., a_{e-1}, 1) are scanned in lexicographic order of
    the low-degree coefficients.  Those with a0 = 0, which come first, are
    divisible by x, so the scan starts at a0 = 1.
    """
    if e == 1:
        return (0, 1)
    for lower in product(range(1, p), *[range(p)] * (e - 1)):
        coeffs = list(lower) + [1]
        if _is_irreducible(p, coeffs):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # impossible


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^e) with a fixed modulus; all operations are pure.

    Instances are immutable values, safe to share; op tables are built
    lazily (once per instance) when q is small enough.
    """

    p: int
    e: int
    modulus: tuple[int, ...]
    q: int

    # -- encoding ----------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c0, ..., c_{e-1}) of an element."""
        out = []
        for _ in range(self.e):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        acc = 0
        for c in reversed(list(cs)):
            acc = acc * self.p + c % self.p
        return acc

    @cached_property
    def elements_in_order(self) -> tuple[int, ...]:
        """All elements sorted by coefficient vector, low degree first."""
        return tuple(sorted(range(self.q), key=self.coeffs))

    # -- arithmetic ---------------------------------------------------

    @cached_property
    def _tables(self):
        if self.q > FIELD_TABLE_LIMIT:
            return None
        q = self.q
        add = [[self._add_slow(a, b) for b in range(q)] for a in range(q)]
        neg = [self._neg_slow(a) for a in range(q)]
        mul = [[self._mul_slow(a, b) for b in range(q)] for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            row = mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
            else:
                raise AssertionError(f"element {a} has no inverse; modulus not irreducible?")
        return add, neg, mul, inv

    def _add_slow(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.e):
            out += (a % p + b % p) % p * shift
            a //= p
            b //= p
            shift *= p
        return out

    def _neg_slow(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.e):
            out += (-(a % p)) % p * shift
            a //= p
            shift *= p
        return out

    def _mul_slow(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        pa = list(self.coeffs(a))
        pb = list(self.coeffs(b))
        prod = _poly_mul_mod(pa, pb, list(self.modulus), self.p)
        return self.from_coeffs(prod + [0] * (self.e - len(prod)))

    def add(self, a: int, b: int) -> int:
        t = self._tables
        return t[0][a][b] if t else self._add_slow(a, b)

    def neg(self, a: int) -> int:
        t = self._tables
        return t[1][a] if t else self._neg_slow(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        t = self._tables
        return t[2][a][b] if t else self._mul_slow(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        t = self._tables
        if t:
            return t[3][a]
        # a^(q-2) by square-and-multiply
        result = 1
        base = a
        exp = self.q - 2
        while exp:
            if exp & 1:
                result = self._mul_slow(result, base)
            base = self._mul_slow(base, base)
            exp >>= 1
        return result

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        result = 1
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e}, q={self.q})"


def make_field(p: int, e: int) -> FieldSpec:
    """Construct GF(p^e) deterministically.

    Raises ValueError("not prime") for composite p and
    ValueError("field too large") when p^e exceeds MAX_FIELD_SIZE.
    """
    if not is_prime(p):
        raise ValueError(f"not prime: {p}")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    q = p**e
    if q > MAX_FIELD_SIZE:
        raise ValueError(f"field too large: {p}^{e} = {q} > {MAX_FIELD_SIZE}")
    return FieldSpec(p=p, e=e, modulus=_smallest_irreducible(p, e), q=q)
