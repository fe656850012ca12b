"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A CycNum is a dense vector of integer numerators over the power basis
1, zeta, ..., zeta^(phi(N)-1) of Q(zeta_N), reduced modulo the N-th
cyclotomic polynomial, and one positive common denominator.  The pair is
kept in lowest terms (gcd of the denominator and all numerators is 1),
so two values at the same conductor are equal iff their numerator
vectors and denominators are equal; mixed-conductor operands are
embedded into the least common conductor automatically.  All arithmetic
runs on Python ints; ``coeffs`` gives the rational coefficients on
request.  There is one reduction, exact long division by the monic Phi_N
after a few sparse multiples of it (``_moduli``, ``_kernel.reduce_mod``):
a product reduces its convolution, a conjugate or a root of unity
reduces its exponents scattered into one vector, an embedding only its
few scattered terms (``_kernel.reduce_sparse``), and ``dot`` reduces a
whole weighted sum of products once, read through each value's split.

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
from itertools import compress
from math import gcd, lcm

from .fq import _prime_factors, is_odd_prime
from ._kernel import mul_reduce, reduce_mod, reduce_sparse

__all__ = [
    "CycNum", "cyclotomic_polynomial", "root_of_unity", "nu",
    "sqrt_eps_q", "working_conductor", "rational", "dot",
]

# Conductor-keyed caches (phi(N), the moduli of N, and Phi_m for the
# squarefree m that reduction uses, at most phi(m) + 1 ints an entry) should
# hold every key one command touches, or products rebuild them.  Values live at
# 1, q-1, q or q+1; verify's inner products and class sums (``dot``)
# reach q(q-1), q(q+1) and (q^2-1)/2; N = lcm(q, q-1, q+1) only when csv embeds
# a table there for its approximation columns (``approx`` caches no roots).
_CONDUCTOR_CACHE = 8


# ---------------------------------------------------------------------------
# integer polynomials, dense lists, index = degree

@lru_cache(maxsize=_CONDUCTOR_CACHE)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of Phi_N, low degree first, length phi(N)+1.

    Built from the Moebius product Phi_N = prod_{d | N} (x^d - 1)^mu(N/d):
    first every factor with mu = +1 is multiplied in, then every factor
    with mu = -1 is divided out exactly, each in one pass over the list.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if N < 1:
        raise ValueError("conductor must be positive")
    # mu(N/d) != 0 only for N/d squarefree: N/d = s runs over the
    # products of distinct primes of N, with mu(s) = (-1)^(number of them)
    squarefree = [(1, 1)]
    for p in _prime_factors(N):
        squarefree += [(s * p, -m) for s, m in squarefree]
    poly = [1]
    for d in sorted(N // s for s, m in squarefree if m == 1):
        # times (x^d - 1)
        poly = [-c for c in poly] + [0] * d
        for i in range(len(poly) - 1, d - 1, -1):
            poly[i] -= poly[i - d]
    for d in sorted(N // s for s, m in squarefree if m == -1):
        # exactly divided by (x^d - 1): p[i] = quot[i-d] - quot[i]
        quot = [0] * (len(poly) - d)
        for i in range(len(quot)):
            quot[i] = (quot[i - d] if i >= d else 0) - poly[i]
        poly = quot
    return tuple(poly)


@lru_cache(maxsize=_CONDUCTOR_CACHE)
def _phi(N: int) -> int:
    """Euler's totient, the degree of Phi_N."""
    if N < 1:
        raise ValueError("conductor must be positive")
    out = N
    for p in _prime_factors(N):
        out = out // p * (p - 1)
    return out


@lru_cache(maxsize=_CONDUCTOR_CACHE)
def _moduli(N: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Phi_N for the kernel, after sparse multiples of it that divide faster.

    For m | N, z^(N/m) has order m for every primitive N-th root of unity
    z, so Phi_m(x^(N/m)) is a multiple of Phi_N, and at m = rad(N) it is
    Phi_N.  m runs over p1, p1*p2, ..., rad(N), primes ascending: the
    degree falls at each step, and Phi_m has few terms while m is small.
    """
    out, m = [], 1
    for p in _prime_factors(N):
        m *= p
        out.append((cyclotomic_polynomial(m), N // m))
    return tuple(out) or ((cyclotomic_polynomial(1), 1),)


def _from_powers(N: int, terms) -> list[int]:
    """Sum of c * zeta_N^k over the (k, c) pairs (0 <= k < N), reduced."""
    poly = [0] * N
    for k, c in terms:
        poly[k] += c
    return reduce_mod(poly, _moduli(N))


# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


def _rational_operand(x) -> Fraction | int | None:
    """x itself when it is an int or a Fraction, else None."""
    if isinstance(x, (int, Fraction)):
        return x
    return None


def _make(N: int, num, den: int) -> "CycNum":
    """The CycNum num/den at conductor N, brought to lowest terms (den > 0)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _raw(N, tuple(num), den)


def _raw(N: int, num: tuple, den: int) -> "CycNum":
    """A CycNum from a numerator tuple and denominator already in lowest terms."""
    x = object.__new__(CycNum)
    _fill(x, N, num, den)
    return x


def _fill(x: "CycNum", N: int, num: tuple, den: int) -> None:
    _set = object.__setattr__
    _set(x, "conductor", N)
    _set(x, "_num", num)
    _set(x, "_den", den)
    _set(x, "_coeffs", None)
    _set(x, "_split", None)


class CycNum:
    """An element of Q(zeta_N), reduced mod Phi_N.

    >>> i = root_of_unity(4, 1)
    >>> i * i == -1
    True
    >>> (rational(1) + root_of_unity(3, 1)) * (rational(1) + root_of_unity(3, 2)) == 1
    True
    """

    __slots__ = ("conductor", "_num", "_den", "_coeffs", "_split")

    def __init__(self, conductor: int, coeffs):
        coeffs = [c if type(c) is int else Fraction(c) for c in coeffs]
        if len(coeffs) != _phi(conductor):
            raise ValueError(
                f"need {_phi(conductor)} coefficients at conductor {conductor}, "
                f"got {len(coeffs)}")
        # the lcm of reduced denominators is coprime to the numerators' gcd
        den = lcm(*(c.denominator for c in coeffs))
        _fill(self, conductor,
              tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    def __setattr__(self, name, val):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients over the power basis (derived, memoized)."""
        out = self._coeffs
        if out is None:
            den = self._den
            out = tuple(Fraction(x, den) if x else _ZERO for x in self._num)
            object.__setattr__(self, "_coeffs", out)
        return out

    def _is_rational(self) -> bool:
        return not any(self._num[1:])

    def _parts(self) -> tuple[int, tuple, int]:
        """(conductor, the nonzero (exponent, numerator) pairs, denominator),
        a rational at conductor 1 and zero with no pairs (derived,
        memoized); ``dot`` reads each value through it."""
        out = self._split
        if out is None:
            num = self._num
            pairs = tuple(compress(enumerate(num), num))
            # a rational has no pair past exponent 0
            N = 1 if not pairs or pairs[-1][0] == 0 else self.conductor
            out = (N, pairs, self._den)
            object.__setattr__(self, "_split", out)
        return out

    # -- representation changes ---------------------------------------

    def promote(self, M: int) -> "CycNum":
        """Embed into Q(zeta_M); the conductor must grow by a multiple."""
        N = self.conductor
        if M == N:
            return self
        if M % N:
            raise ValueError(f"{N} does not divide {M}")
        num, ratio = self._num, M // N
        # at most phi(N) terms in M slots, reduced without a scan of the
        # slots.  Z[zeta_M] meets Q(zeta_N) in Z[zeta_N], so the numerators
        # keep their content and num/den stays in lowest terms.  The
        # nonzero terms are the split, kept for approx and dot
        terms = {j * ratio: c for j, c in compress(enumerate(num), num)}
        pairs = sorted((k, c) for k, c in
                       reduce_sparse(terms, _moduli(M)).items() if c)
        out = [0] * _phi(M)
        for k, c in pairs:
            out[k] = c
        x = _raw(M, tuple(out), self._den)
        split = (M if pairs and pairs[-1][0] else 1, tuple(pairs), self._den)
        object.__setattr__(x, "_split", split)
        return x

    def _common(self, other: "CycNum") -> tuple["CycNum", "CycNum"]:
        if self.conductor == other.conductor:
            return self, other
        M = lcm(self.conductor, other.conductor)
        return self.promote(M), other.promote(M)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if (r := _rational_operand(other)) is not None:
            den = lcm(self._den, r.denominator)
            k = den // self._den
            num = [x * k for x in self._num]
            num[0] += r.numerator * (den // r.denominator)
            return _make(self.conductor, num, den)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        return _add_vectors(a, b)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.conductor, tuple(-x for x in self._num), self._den)

    def __sub__(self, other):
        if (r := _rational_operand(other)) is not None:
            return self + (-r)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        return _add_vectors(a, -b)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, p: int, d: int) -> "CycNum":
        """Multiply by the rational p/d, given in lowest terms with d > 0."""
        if p == d:
            return self
        return _make(self.conductor, [x * p for x in self._num], self._den * d)

    def __mul__(self, other):
        if (r := _rational_operand(other)) is not None:
            return self._scale(r.numerator, r.denominator)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        # a rational operand is a scale, not a kernel product
        if b._is_rational():
            return a._scale(b._num[0], b._den)
        if a._is_rational():
            return b._scale(a._num[0], a._den)
        N = a.conductor
        out = mul_reduce(a._num, b._num, _moduli(N))
        return _make(N, out, a._den * b._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, CycNum):
            r = other.as_rational()
            if r is None:
                raise TypeError("division only by rational values")
            other = r
        if (r := _rational_operand(other)) is None:
            return NotImplemented
        if r == 0:
            raise ZeroDivisionError("division by zero")
        r = Fraction(1) / r
        return self._scale(r.numerator, r.denominator)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = rational(1, conductor=self.conductor)
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
        if self._is_rational():
            return self
        N = self.conductor
        out = _from_powers(N, (((N - j) % N, c)
                               for j, c in enumerate(self._num) if c))
        return _make(N, out, self._den)

    def as_rational(self) -> Fraction | None:
        """The rational value, or None when the element is irrational."""
        if not self._is_rational():
            return None
        return Fraction(self._num[0], self._den)

    def as_integer(self) -> int:
        r = self.as_rational()
        if r is None or r.denominator != 1:
            raise ValueError(f"not an integer: {self!r}")
        return r.numerator

    def approx(self) -> complex:
        """Floating shadow; advisory only, never used for decisions.  Only
        the nonzero terms are read, in basis order, one exp each."""
        N, den = self.conductor, self._den
        pairs = (self._split or self._parts())[1]
        return sum((complex(x / den) * cmath.exp(2j * cmath.pi * k / N)
                    for k, x in pairs), 0j)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if (r := _rational_operand(other)) is not None:
            # in ints: rational, and num/den = r
            num = self._num
            return (num[0] * r.denominator == r.numerator * self._den
                    and not any(num[1:]))
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        return a._den == b._den and a._num == b._num

    __hash__ = None  # no canonical cross-conductor hash; use == only

    def key(self) -> tuple:
        """(conductor, denominator, numerators), hashable.

        Two values at one conductor are equal iff their keys are, so a dict
        keyed on it does work once per distinct value (equal values at two
        conductors get two keys).
        """
        return (self.conductor, self._den, self._num)

    def __bool__(self):
        return any(self._num)

    def _coeff_strs(self) -> list[str]:
        """str() of each rational coefficient, without building Fractions."""
        den = self._den
        if den == 1:
            return [str(x) for x in self._num]
        out = []
        for x in self._num:
            g = gcd(x, den)
            out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return out

    def __repr__(self):
        return f"CycNum({self.conductor}, {tuple(self._coeff_strs())})"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        a = self.approx()
        return {
            "conductor": self.conductor,
            "coeffs": self._coeff_strs(),
            "approx": {"re": a.real, "im": a.imag},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CycNum":
        return cls(obj["conductor"], [Fraction(s) for s in obj["coeffs"]])


def _add_vectors(a: CycNum, b: CycNum) -> CycNum:
    """a + b for operands at one conductor."""
    da, db = a._den, b._den
    if da == db:
        return _make(a.conductor, [x + y for x, y in zip(a._num, b._num)], da)
    g = gcd(da, db)
    ka, kb = db // g, da // g
    return _make(a.conductor, [x * ka + y * kb for x, y in zip(a._num, b._num)],
                 da * ka)


def dot(triples) -> CycNum:
    """The exact sum of w * x * y over the (x, y, w) triples, reduced once.

    x and y are CycNums and w is an int.  A term with a zero factor is
    dropped, and the rest are read through each value's split
    (``CycNum._parts``), at the common denominator D, the lcm of the
    den_x * den_y met.  A term of two rationals is summed on ints; any
    other term's numerator products are scattered by exponent,
    j*(L/N_x) + k*(L/N_y) mod L, into one vector over the L-th roots of
    unity, L the lcm of the conductors met; L and D grow as terms are
    read.  Z[x]/(x^L - 1) maps onto Z[zeta_L] because Phi_L divides
    x^L - 1, so the vector is reduced mod Phi_L and brought to lowest
    terms once, not once per term; a sum of rationals needs no reduction.

    >>> dot([]) == 0
    True
    >>> i = root_of_unity(4, 1)
    >>> w = root_of_unity(3, 1)
    >>> dot([(i, i, 1), (rational(Fraction(1, 2)), rational(1), 2),
    ...      (w, rational(1), 2)]) == w * 2
    True
    """
    terms, L, D, num = [], 1, 1, 0   # num / D: the rational terms' sum
    for x, y, w in triples:
        if w:
            nx, ax, dx = x._split or x._parts()
            ny, ay, dy = y._split or y._parts()
            if ax and ay:
                d = dx * dy
                if D % d:
                    g = d // gcd(D, d)
                    D, num = D * g, num * g
                if nx == ny == 1:
                    num += w * (D // d) * ax[0][1] * ay[0][1]
                else:
                    terms.append((nx, ax, ny, ay, d, w))
                    if L % nx or L % ny:
                        L = lcm(L, nx, ny)
    if L == 1:
        return _make(1, [num], D)
    poly = [0] * L
    poly[0] = num
    for nx, ax, ny, ay, d, w in terms:
        f = w * (D // d)
        sx, sy = L // nx, L // ny
        if len(ay) > len(ax):
            ax, ay, sx, sy = ay, ax, sy, sx
        for k, c in ay:
            k = k * sy - L   # j*sx + k < 2L, so index - L is it mod L
            c *= f
            for j, cx in ax:
                poly[j * sx + k] += cx * c
    return _make(L, reduce_mod(poly, _moduli(L)), D)


# ---------------------------------------------------------------------------
# constructors

def rational(r, *, conductor: int = 1) -> CycNum:
    """A rational number as a CycNum (at conductor 1 unless asked otherwise)."""
    r = Fraction(r)
    return _raw(conductor, (r.numerator,) + (0,) * (_phi(conductor) - 1),
                r.denominator)


def root_of_unity(N: int, k: int) -> CycNum:
    """zeta_N^k, reduced mod Phi_N.

    >>> root_of_unity(2, 1) == -1
    True
    >>> sum((root_of_unity(5, k) for k in range(1, 5)), rational(0, conductor=5)) == -1
    True
    """
    if N < 1:
        raise ValueError("conductor must be positive")
    return _raw(N, tuple(_from_powers(N, [(k % N, 1)])), 1)


def nu(r: int, s: int) -> CycNum:
    """zeta_r^s + zeta_r^(-s): twice the cosine of 2*pi*s/r, exactly.

    >>> nu(6, 1) == 1
    True
    >>> nu(8, 2) == 0
    True
    """
    if r < 1:
        raise ValueError("conductor must be positive")
    return _raw(r, tuple(_from_powers(r, [(s % r, 1), (-s % r, 1)])), 1)


@lru_cache(maxsize=8)
def sqrt_eps_q(q: int) -> CycNum:
    """The quadratic Gauss sum g = sum_k legendre(k) zeta_q^k, built in one
    scatter as sum_{x in F_q} zeta_q^(x^2), which equals it because the
    q-th roots of unity sum to 0.

    Squares to eps*q with eps = (-1)^((q-1)/2): an exact square root of
    +-q, real for q = 1 mod 4 and purely imaginary for q = 3 mod 4.
    """
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    squares = ((x * x % q, 1) for x in range(q))
    return _raw(q, tuple(_from_powers(q, squares)), 1)


def working_conductor(q: int) -> int:
    """Every character value of SL2(q) lives in Q(zeta_N) for this N;
    q must be an odd prime."""
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    return lcm(q, q - 1, q + 1)
