"""Arithmetic in the prime field F_q, q an odd prime.

Residues are wrapped in FqElem so that a modulus mismatch is a loud
error instead of a silent wrong answer.  Only what the rest of the
package needs is here: inverses, Euler's criterion, Legendre symbols
and primitive roots.
"""
from __future__ import annotations

from functools import lru_cache


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


class FqElem:
    """A residue modulo an odd prime q.

    >>> FqElem(7, 5)
    FqElem(2, 5)
    >>> FqElem(2, 5) * FqElem(3, 5)
    FqElem(1, 5)
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        _check_modulus(modulus)
        object.__setattr__(self, "value", value % modulus)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, val):
        raise AttributeError("FqElem is immutable")

    def _coerce(self, other) -> "FqElem":
        if isinstance(other, FqElem):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"mixed moduli {self.modulus} and {other.modulus}")
            return other
        if isinstance(other, int):
            return FqElem(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FqElem(-self.value, self.modulus)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.modulus
        return (isinstance(other, FqElem)
                and self.modulus == other.modulus
                and self.value == other.value)

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"FqElem({self.value}, {self.modulus})"

    def __int__(self):
        return self.value


def pow_mod(base: FqElem, exp: int) -> FqElem:
    """base**exp in F_q; exp = 0 gives 1."""
    if exp < 0:
        raise ValueError("exponent must be nonnegative")
    return FqElem(pow(base.value, exp, base.modulus), base.modulus)


def inverse(a: FqElem) -> FqElem:
    """Multiplicative inverse; zero has none."""
    if a.value == 0:
        raise ZeroDivisionError("0 has no inverse")
    return FqElem(pow(a.value, -1, a.modulus), a.modulus)


def is_quadratic_residue(a: FqElem) -> bool:
    """Euler's criterion: a^((q-1)/2) = 1.  Zero is rejected, not answered."""
    if a.value == 0:
        raise ValueError("0 is neither a residue nor a non-residue here")
    return pow(a.value, (a.modulus - 1) // 2, a.modulus) == 1


def legendre_symbol(a: FqElem) -> int:
    """0 on zero, +1 on squares, -1 otherwise."""
    if a.value == 0:
        return 0
    return 1 if is_quadratic_residue(a) else -1


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
def primitive_root(q: int) -> FqElem:
    """Smallest generator >= 2 of the multiplicative group of F_q.

    Deterministic so that every table built on top is reproducible.
    """
    _check_modulus(q)
    # It suffices that g^((q-1)/p) != 1 for every prime p | q-1.
    n = q - 1
    prime_factors = _prime_factors(n)
    for g in range(2, q):
        if all(pow(g, n // p, q) != 1 for p in prime_factors):
            return FqElem(g, q)
    raise AssertionError(f"no primitive root mod {q}")  # unreachable for prime q
