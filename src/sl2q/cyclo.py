"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A CycNum is a dense vector of rational coefficients over the power basis
1, zeta, ..., zeta^(phi(N)-1) of Q(zeta_N), kept fully reduced modulo the
N-th cyclotomic polynomial.  Two values at the same conductor are equal
iff their vectors are equal; mixed-conductor operands are embedded into
the least common conductor automatically.

Everything any character-table entry needs lives here: roots of unity,
nu(r, s) = zeta_r^s + zeta_r^(-s), and the quadratic Gauss sum, which is
an exact square root of eps*q (eps = (-1)^((q-1)/2)).

No floating point is used in any computation; approx() exists only as an
advisory numeric shadow for display and serialization.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .fq import FqElem, legendre_symbol
from ._kernel import mul_reduce

__all__ = [
    "CycNum", "cyclotomic_polynomial", "root_of_unity", "nu",
    "sqrt_eps_q", "working_conductor", "rational",
]


# ---------------------------------------------------------------------------
# integer polynomials, dense lists, index = degree

def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of polynomials that divide exactly (integer coefficients)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        if c % den[dd]:
            raise ArithmeticError("inexact polynomial division")
        c //= den[dd]
        out[k] = c
        if c:
            for j, b in enumerate(den):
                num[k + j] -= c * b
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of Phi_N, low degree first, length phi(N)+1.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if N < 1:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (N - 1) + [1]          # x^N - 1
    for d in range(1, N):
        if N % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi(N: int) -> int:
    return len(cyclotomic_polynomial(N)) - 1


@lru_cache(maxsize=None)
def _power_rows(N: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_N for every k in 0..N-1, as integer vectors of length phi.

    Since Phi_N divides x^N - 1, x is an N-th root of unity in the quotient
    ring, so every power of zeta_N is one of these rows.
    """
    phi_n = _phi(N)
    mod = cyclotomic_polynomial(N)
    rows = []
    cur = [0] * phi_n
    cur[0] = 1
    for _ in range(N):
        rows.append(tuple(cur))
        top = cur.pop()
        cur.insert(0, 0)
        if top:
            for t in range(phi_n):
                cur[t] -= top * mod[t]
    return tuple(rows)


@lru_cache(maxsize=None)
def _high_rows(N: int) -> tuple[tuple[int, ...], ...]:
    """Reduction rows for the kernel: x^(phi+j) mod Phi_N, j = 0..phi-2."""
    phi_n = _phi(N)
    rows = _power_rows(N)
    return tuple(rows[(phi_n + j) % N] for j in range(phi_n - 1))


# ---------------------------------------------------------------------------

def _as_fraction(x) -> Fraction | None:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


class CycNum:
    """An element of Q(zeta_N), reduced mod Phi_N.

    >>> i = root_of_unity(4, 1)
    >>> i * i == -1
    True
    >>> (rational(1) + root_of_unity(3, 1)) * (rational(1) + root_of_unity(3, 2)) == 1
    True
    """

    __slots__ = ("conductor", "coeffs", "_intform")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(coeffs) != _phi(conductor):
            raise ValueError(
                f"need {_phi(conductor)} coefficients at conductor {conductor}, "
                f"got {len(coeffs)}")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_intform", None)

    def __setattr__(self, name, val):
        raise AttributeError("CycNum is immutable")

    def _int_coeffs(self) -> tuple[list[int], int]:
        # memoized: products hit the same table values over and over
        form = self._intform
        if form is None:
            form = _clear_denominators(self.coeffs)
            object.__setattr__(self, "_intform", form)
        return form

    # -- representation changes ---------------------------------------

    def promote(self, M: int) -> "CycNum":
        """Embed into Q(zeta_M); the conductor must grow by a multiple."""
        N = self.conductor
        if M == N:
            return self
        if M % N:
            raise ValueError(f"{N} does not divide {M}")
        rows = _power_rows(M)
        ratio = M // N
        out = [Fraction(0)] * _phi(M)
        for j, c in enumerate(self.coeffs):
            if c:
                row = rows[(j * ratio) % M]
                for t, r in enumerate(row):
                    if r:
                        out[t] += c * r
        return CycNum(M, out)

    def _common(self, other: "CycNum") -> tuple["CycNum", "CycNum"]:
        if self.conductor == other.conductor:
            return self, other
        M = lcm(self.conductor, other.conductor)
        return self.promote(M), other.promote(M)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if (r := _as_fraction(other)) is not None:
            coeffs = list(self.coeffs)
            coeffs[0] += r
            return CycNum(self.conductor, coeffs)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        return CycNum(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        if (r := _as_fraction(other)) is not None:
            return self + (-r)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        return CycNum(a.conductor, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, r: Fraction) -> "CycNum":
        if r == 1:
            return self
        return CycNum(self.conductor, [c * r for c in self.coeffs])

    def __mul__(self, other):
        if (r := _as_fraction(other)) is not None:
            return self._scale(r)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        N = a.conductor
        if _phi(N) == 1:
            return CycNum(N, [a.coeffs[0] * b.coeffs[0]])
        xs, dx = a._int_coeffs()
        ys, dy = b._int_coeffs()
        out = mul_reduce(xs, ys, _high_rows(N))
        den = dx * dy
        if den == 1:
            return CycNum(N, out)
        return CycNum(N, [Fraction(v, den) for v in out])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, CycNum):
            r = other.as_rational()
            if r is None:
                raise TypeError("division only by rational values")
            other = r
        if (r := _as_fraction(other)) is None:
            return NotImplemented
        if r == 0:
            raise ZeroDivisionError("division by zero")
        return self._scale(Fraction(1) / r)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = rational(1, self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- structure ------------------------------------------------------

    def conjugate(self) -> "CycNum":
        """Image under zeta_N -> zeta_N^(-1)."""
        N = self.conductor
        rows = _power_rows(N)
        out = [Fraction(0)] * _phi(N)
        for j, c in enumerate(self.coeffs):
            if c:
                row = rows[(N - j) % N]
                for t, r in enumerate(row):
                    if r:
                        out[t] += c * r
        return CycNum(N, out)

    def as_rational(self) -> Fraction | None:
        """The rational value, or None when the element is irrational."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def as_integer(self) -> int:
        r = self.as_rational()
        if r is None or r.denominator != 1:
            raise ValueError(f"not an integer: {self!r}")
        return r.numerator

    def approx(self) -> complex:
        """Floating shadow; advisory only, never used for decisions."""
        N = self.conductor
        return sum((complex(c) * cmath.exp(2j * cmath.pi * k / N)
                    for k, c in enumerate(self.coeffs) if c), 0j)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if (r := _as_fraction(other)) is not None:
            return self.as_rational() == r
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # no canonical cross-conductor hash; use == only

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"CycNum({self.conductor}, {tuple(str(c) for c in self.coeffs)})"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        a = self.approx()
        return {
            "conductor": self.conductor,
            "coeffs": [str(c) for c in self.coeffs],
            "approx": {"re": a.real, "im": a.imag},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CycNum":
        return cls(obj["conductor"], [Fraction(s) for s in obj["coeffs"]])


def _clear_denominators(coeffs) -> tuple[list[int], int]:
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(c * den) for c in coeffs], den


# ---------------------------------------------------------------------------
# constructors

def rational(r, conductor: int = 1) -> CycNum:
    """A rational number as a CycNum (at conductor 1 unless asked otherwise)."""
    r = Fraction(r)
    coeffs = [Fraction(0)] * _phi(conductor)
    coeffs[0] = r
    return CycNum(conductor, coeffs)


def root_of_unity(N: int, k: int) -> CycNum:
    """zeta_N^k, reduced mod Phi_N.

    >>> root_of_unity(2, 1) == -1
    True
    >>> sum((root_of_unity(5, k) for k in range(1, 5)), rational(0, 5)) == -1
    True
    """
    if N < 1:
        raise ValueError("conductor must be positive")
    return CycNum(N, _power_rows(N)[k % N])


def nu(r: int, s: int) -> CycNum:
    """zeta_r^s + zeta_r^(-s): twice the cosine of 2*pi*s/r, exactly.

    >>> nu(6, 1) == 1
    True
    >>> nu(8, 2) == 0
    True
    """
    return root_of_unity(r, s) + root_of_unity(r, -s)


@lru_cache(maxsize=None)
def sqrt_eps_q(q: int) -> CycNum:
    """The quadratic Gauss sum g = sum_k legendre(k) zeta_q^k.

    Squares to eps*q with eps = (-1)^((q-1)/2): an exact square root of
    +-q, real for q = 1 mod 4 and purely imaginary for q = 3 mod 4.
    """
    total = rational(0, q)
    for k in range(1, q):
        ls = legendre_symbol(FqElem(k, q))
        term = root_of_unity(q, k)
        total = total + (term if ls > 0 else -term)
    return total


def working_conductor(q: int) -> int:
    """Every character value of SL2(q) lives in Q(zeta_N) for this N."""
    return lcm(q, q - 1, q + 1)
