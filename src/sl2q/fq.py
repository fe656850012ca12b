"""Arithmetic in the prime field F_q, q an odd prime.

A residue is a plain int, taken mod q: any int stands for its class, so
-1 and q - 1 give the same answer.  Every function but ``is_odd_prime``
takes the modulus as an argument and raises ``ValueError`` when it is
not an odd prime.  Only what the rest of the package needs is here:
inverses, Euler's criterion, Legendre symbols and primitive roots.
"""
from __future__ import annotations

from functools import lru_cache

__all__ = [
    "is_odd_prime", "inverse", "is_quadratic_residue", "legendre_symbol",
    "primitive_root",
]


@lru_cache(maxsize=8)
def is_odd_prime(q: int) -> bool:
    """Trial division; the package targets desk-scale q."""
    if q < 3 or q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def _check_modulus(q: int) -> None:
    if not is_odd_prime(q):
        raise ValueError(f"modulus must be an odd prime, got {q}")


def inverse(a: int, q: int) -> int:
    """The inverse of a mod q; zero has none."""
    _check_modulus(q)
    if a % q == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, -1, q)


def is_quadratic_residue(a: int, q: int) -> bool:
    """Euler's criterion: a^((q-1)/2) = 1 mod q.  Zero is rejected, not
    answered."""
    _check_modulus(q)
    if a % q == 0:
        raise ValueError("0 is neither a residue nor a non-residue here")
    return pow(a, (q - 1) // 2, q) == 1


def legendre_symbol(a: int, q: int) -> int:
    """0 on zero, +1 on squares, -1 otherwise."""
    _check_modulus(q)
    if a % q == 0:
        return 0
    return 1 if is_quadratic_residue(a, q) else -1


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=8)
def primitive_root(q: int) -> int:
    """Smallest generator >= 2 of the multiplicative group of F_q.

    Deterministic so that every table built on top is reproducible.
    """
    _check_modulus(q)
    # It suffices that g^((q-1)/p) != 1 for every prime p | q-1.
    n = q - 1
    prime_factors = _prime_factors(n)
    for g in range(2, q):
        if all(pow(g, n // p, q) != 1 for p in prime_factors):
            return g
    raise AssertionError(f"no primitive root mod {q}")  # unreachable for prime q
