"""Small integer number-theory helpers (trial division scale, and one sieve)."""

from __future__ import annotations

from itertools import compress
from math import isqrt


def is_prime(n: int) -> bool:
    """Primality by trial division; ample for the supported field sizes."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power_base(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p^e and p prime, or None if q is not a prime power."""
    if q < 2:
        return None
    p = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        return None
    return (p, e) if is_prime(p) else None


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers q with 2 <= q <= limit, ascending.

    An Eratosthenes sieve marks the primes; each prime p <= sqrt(limit)
    then marks its higher powers.
    """
    if limit < 2:
        return []
    prime = bytearray([1]) * (limit + 1)
    prime[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    power = bytearray(prime)
    for p in range(2, isqrt(limit) + 1):
        if prime[p]:
            pk = p * p
            while pk <= limit:
                power[pk] = 1
                pk *= p
    return list(compress(range(limit + 1), power))


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out
