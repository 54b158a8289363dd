"""Small integer number-theory helpers (trial division scale, and one sieve)."""

from __future__ import annotations

from itertools import compress
from math import isqrt


def prime_power_base(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p^e and p prime, or None if q is not a prime power.

    p is the smallest divisor of q above 1, so it is prime.
    """
    if q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


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

