"""Exact arithmetic in GF(q), q = p^e.

A field element is a plain int in [0, q) encoding its polynomial-basis
coefficient vector (c0, c1, ..., c_{e-1}) as c0 + c1*p + ... + c_{e-1}*p^(e-1);
for a prime field (e = 1) that is just the residue mod p.  The modulus is
the lexicographically smallest monic irreducible polynomial of degree e
over Z_p, comparing coefficient tuples low degree first and testing each
candidate by trial division, so make_field is deterministic: the same
(p, e) always yields the same field.  A prime field's modulus is x, under
which polynomial arithmetic is arithmetic mod p.

Each operation has one definition, on coefficient vectors; fields with
q <= FIELD_TABLE_LIMIT tabulate it once and look it up.  The tables come
from the logarithms of a primitive element: O(q) slow operations.

Note the element *ordering* used for canonical enumerations compares
coefficient vectors low degree first, which differs from plain int order
once e > 1; FieldSpec.elements_in_order supplies it.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import product

from .arith import prime_power_base
from .config import FIELD_TABLE_LIMIT, MAX_FIELD_SIZE


# -- polynomial helpers over Z_p (coefficient lists, low degree first) --


def _poly_mul_mod(
    a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int
) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_mod(out, modulus, p)


def _poly_mod(a: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    """a mod a monic modulus, with trailing zeros trimmed ([] when it divides a)."""
    a = list(a)
    d = len(modulus) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(d):
                a[i - d + j] = (a[i - d + j] - c * modulus[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(p: int, coeffs: list[int]) -> bool:
    """Irreducibility of a monic polynomial over Z_p, by trial division.

    A reducible monic polynomial of degree e has a monic factor of degree
    at most e/2, so it is enough to try every monic divisor of degree
    1..e//2.  There are fewer than 2 p^(e/2) of them, at most 2048 for
    p^e <= MAX_FIELD_SIZE.
    """
    e = len(coeffs) - 1
    return all(
        _poly_mod(coeffs, (*lower, 1), p)
        for d in range(1, e // 2 + 1)
        for lower in product(range(p), repeat=d)
    )


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


class FieldSpec:
    """GF(p^e) with a fixed modulus; all operations are pure.

    Instances are immutable values, equal when their parameters are, and
    safe to share; op tables are built lazily (once per instance) when q
    is small enough.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...], q: int):
        vars(self).update(p=p, e=e, modulus=modulus, q=q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not FieldSpec:
            return NotImplemented
        return (self.p, self.e, self.modulus, self.q) == (other.p, other.e, other.modulus, other.q)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus, self.q))

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
        """Tables from logs to the first primitive g: ab = g^(log a + log b), a + b = a(1 + b/a)."""
        if self.q > FIELD_TABLE_LIMIT:
            return None
        q = self.q
        neg = [self._neg_slow(a) for a in range(q)]
        for g in range(1, q):
            exp = [1]  # g^0, g^1, ... up to the first power equal to 1
            while len(exp) < q and (x := self._mul_slow(exp[-1], g)) != 1:
                exp.append(x)
            if len(exp) == q - 1:
                break
        else:
            raise AssertionError(f"GF({q}) has no primitive element; modulus not irreducible?")
        log = {x: i for i, x in enumerate(exp)}
        one_plus = [self._add_slow(1, x) for x in exp]  # 1 + g^k, a negative k taken mod q - 1
        exp += exp  # g^(i + j) without reducing i + j mod q - 1
        logs = [log[b] for b in range(1, q)]
        mul = [[0] * q] + [[0] + [exp[la + lb] for lb in logs] for la in logs]
        add = [[a] + [mul[a][one_plus[lb - la]] for lb in logs] for a, la in enumerate(logs, 1)]
        add.insert(0, list(range(q)))
        inv = [0] + [exp[q - 1 - la] for la in logs]
        return add, neg, mul, inv

    def _add_slow(self, a: int, b: int) -> int:
        return self.from_coeffs(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def _neg_slow(self, a: int) -> int:
        return self.from_coeffs(-c for c in self.coeffs(a))

    def _mul_slow(self, a: int, b: int) -> int:
        prod = _poly_mul_mod(self.coeffs(a), self.coeffs(b), self.modulus, self.p)
        return self.from_coeffs(prod)

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
        return t[3][a] if t else self.pow(a, self.q - 2)

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

    Raises ValueError("not prime") unless p is prime (its smallest divisor
    above 1, which prime_power_base finds, is p itself) and
    ValueError("field too large") when p^e exceeds MAX_FIELD_SIZE.
    """
    if prime_power_base(p) != (p, 1):
        raise ValueError(f"not prime: {p}")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    q = p**e
    if q > MAX_FIELD_SIZE:
        raise ValueError(f"field too large: {p}^{e} = {q} > {MAX_FIELD_SIZE}")
    return FieldSpec(p=p, e=e, modulus=_smallest_irreducible(p, e), q=q)
