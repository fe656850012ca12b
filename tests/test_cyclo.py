"""Exact cyclotomic arithmetic.

The ring axioms run as hypothesis properties over random small operands;
the named identities (vanishing geometric sums, nu symmetries, Gauss
sums) pin down the values the character tables are built from.
"""
import cmath
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sl2q._kernel import mul_reduce, reduce_mod, reduce_sparse
from sl2q.chars import complex_table
from sl2q.cyclo import (CycNum, _from_powers, _make, _moduli, _phi,
                        cyclotomic_polynomial, dot, nu, rational,
                        root_of_unity, sqrt_eps_q, working_conductor)
from sl2q.realrep import real_table

# small conductors with interesting lcm structure; lcm of any three is
# at most 2520, so even the worst promotion stays cheap
CONDUCTORS = [1, 3, 4, 5, 6, 8, 9, 12]


@st.composite
def cyc_numbers(draw):
    N = draw(st.sampled_from(CONDUCTORS))
    phi = len(cyclotomic_polynomial(N)) - 1
    nums = draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    den = draw(st.sampled_from([1, 1, 2, 3]))
    return CycNum(N, [Fraction(n, den) for n in nums])


@seed(20240601)
@settings(max_examples=1000, deadline=None)
@given(x=cyc_numbers(), y=cyc_numbers(), z=cyc_numbers())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x
    assert x * 1 == x
    assert x - x == 0


@seed(20240602)
@settings(max_examples=200, deadline=None)
@given(x=cyc_numbers(), r=st.fractions(min_value=-5, max_value=5).filter(bool))
def test_rational_scalars_commute_with_division(x, r):
    assert (x * r) / r == x
    assert x * r == r * x


@st.composite
def values_and_rationals(draw):
    """A CycNum, irrational or rational at any conductor with denominator
    1 to 3, and an int or Fraction operand, equal to it half the time
    that it is rational."""
    if draw(st.booleans()):
        x = draw(cyc_numbers())
    else:
        x = rational(draw(st.fractions(-5, 5, max_denominator=3)),
                     conductor=draw(st.sampled_from(CONDUCTORS)))
    r = draw(st.one_of(st.integers(-9, 9),
                       st.fractions(-5, 5, max_denominator=6)))
    if (v := x.as_rational()) is not None and draw(st.booleans()):
        r = v.numerator if v.denominator == 1 and draw(st.booleans()) else v
    return x, r


@seed(20261021)
@settings(max_examples=500, deadline=None)
@given(xr=values_and_rationals())
def test_equality_with_an_int_or_fraction_is_as_rational(xr):
    # __eq__ decides in ints; as_rational builds the Fraction
    x, r = xr
    assert (x == r) is (x.as_rational() == r)
    assert (r == x) is (x == r)
    assert (x != r) is not (x == r)


def _poly_mul(a, b):
    sparse_b = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in sparse_b:
                out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # x^N - 1 = prod over d | N of Phi_d, by plain multiplication; the
    # last four are the working conductors at q = 13, 17, 19, 23
    for N in list(range(1, 401)) + [1092, 2448, 3420, 6072]:
        prod = [1]
        for d in (d for d in range(1, N + 1) if N % d == 0):
            phi_d = cyclotomic_polynomial(d)
            assert phi_d[-1] == 1 and len(phi_d) - 1 == _phi(d), d
            prod = _poly_mul(prod, phi_d)
        assert prod == [-1] + [0] * (N - 1) + [1], N


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(7) == (1,) * 7
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # Phi_105 is the first with a coefficient of magnitude 2
    assert min(cyclotomic_polynomial(105)) == -2


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 12])
def test_geometric_sum_vanishes(n):
    # sum over i of zeta_n^(ik) is 0 for k nonzero mod n, so the sum
    # starting at i = 1 is -1; this is the engine behind every
    # fixed-point average over a cyclic subgroup
    for k in range(1, n):
        total = rational(0, conductor=n)
        for i in range(1, n):
            total = total + root_of_unity(n, i * k)
        assert total == -1


def test_kernel_reduction_is_correct():
    # zeta_12^6 = -1: square the basis vector for zeta_12^3
    xs = [0, 0, 0, 1]
    assert mul_reduce(xs, xs, [(cyclotomic_polynomial(12), 1)]) == [-1, 0, 0, 0]
    z = root_of_unity(1092, 1)
    assert z ** 1092 == 1


def _power_rows(N):
    """x^k mod Phi_N for k in 0..N-1, each row from the last by one shift
    and at most one subtraction of Phi_N."""
    mod = cyclotomic_polynomial(N)
    phi = len(mod) - 1
    rows, cur = [], [1] + [0] * (phi - 1)
    for _ in range(N):
        rows.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        cur = [c - top * m for c, m in zip(cur, mod)]
    return rows


def test_moduli_are_multiples_of_phi_n_ending_in_it():
    # cyclo reduces by each (mod, step), the polynomial mod(x^step), in
    # turn: each must be a multiple of Phi_N (zero remainder under plain
    # long division), and the last, of degree phi(N), is Phi_N itself
    for N in list(range(1, 200)) + [1092, 3420, 12180]:
        moduli = _moduli(N)
        for mod, step in moduli:
            poly = [0] * ((len(mod) - 1) * step + 1)
            for t, c in enumerate(mod):
                poly[t * step] = c
            assert not any(_reduce(poly, N)), (N, step)
        mod, step = moduli[-1]
        assert (len(mod) - 1) * step == _phi(N)


@pytest.mark.parametrize("N", [1, 12, 60, 1092])
@pytest.mark.parametrize("magnitude", [50, 10 ** 30])
def test_kernel_matches_power_row_sum(N, magnitude):
    # reference: zeta^i * zeta^j = zeta^((i+j) mod N), read off the power
    # rows, so it shares no code with the kernel's long division; the
    # kernel runs with Phi_N alone and with the moduli cyclo passes it
    rows = _power_rows(N)
    phi = len(rows[0])
    rng = random.Random(N)
    for _ in range(3):
        xs = [rng.randint(-magnitude, magnitude) for _ in range(phi)]
        ys = [rng.randint(-magnitude, magnitude) for _ in range(phi)]
        by_power = [0] * N
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                by_power[(i + j) % N] += x * y
        expected = [0] * phi
        for k, c in enumerate(by_power):
            if c:
                for t, r in enumerate(rows[k]):
                    expected[t] += c * r
        assert mul_reduce(xs, ys, [(cyclotomic_polynomial(N), 1)]) == expected
        assert mul_reduce(xs, ys, _moduli(N)) == expected


@pytest.mark.parametrize("N", [12, 60, 168, 660, 1092])
def test_sparse_reduction_of_each_power_is_its_power_row(N):
    # x^k for every k < N against the power rows: no exponent is left at
    # or past phi, also where a term lands on a modulus' degree exactly
    rows = _power_rows(N)
    phi = len(rows[0])
    for k, row in enumerate(rows):
        out = reduce_sparse({k: 1}, _moduli(N))
        assert max(out) < phi and [out.get(e, 0) for e in range(phi)] == row


def test_root_of_unity_basics():
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(4, 1) * root_of_unity(4, 1) == -1
    assert root_of_unity(5, 7) == root_of_unity(5, 2)
    z = root_of_unity(12, 1)
    assert z ** 12 == 1
    assert z ** 6 == -1
    assert root_of_unity(3, 1).promote(12) == root_of_unity(12, 4)


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8, 12, 14])
def test_nu_reflection_symmetry(r):
    for s in range(r + 1):
        assert nu(r, r - s) == nu(r, s)
        assert nu(r, -s) == nu(r, s)


def test_nu_boundary_values():
    # nu(r, s) = 2 exactly at s = 0 mod r, and -2 exactly at the
    # half-turn, which exists only for even r
    for r in [3, 4, 5, 6, 8, 12]:
        for s in range(r):
            v = nu(r, s)
            assert (v == 2) is (s == 0)
            assert (v == -2) is (r % 2 == 0 and s == r // 2)


def test_nu_is_real():
    for r, s in [(5, 1), (7, 2), (12, 5), (13, 4)]:
        v = nu(r, s)
        assert v.conjugate() == v
        assert abs(v.approx().imag) < 1e-12


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_gauss_sum_squares_to_eps_q(q):
    eps = 1 if q % 4 == 1 else -1
    g = sqrt_eps_q(q)
    assert g * g == eps * q
    # classical sign: sqrt(q) on the positive real axis for q = 1 mod 4,
    # i*sqrt(q) on the positive imaginary axis for q = 3 mod 4
    a = g.approx()
    if eps == 1:
        assert a.real > 0 and abs(a.imag) < 1e-9
    else:
        assert a.imag > 0 and abs(a.real) < 1e-9


def test_gauss_sum_conjugate():
    assert sqrt_eps_q(5).conjugate() == sqrt_eps_q(5)
    assert sqrt_eps_q(7).conjugate() == -sqrt_eps_q(7)


@pytest.mark.parametrize("make, arg", [
    (nu, 0), (nu, -4), (sqrt_eps_q, 0), (sqrt_eps_q, -3), (sqrt_eps_q, 1),
    (sqrt_eps_q, 2), (sqrt_eps_q, 9), (working_conductor, 0),
    (working_conductor, 1), (working_conductor, 2), (working_conductor, 9),
    (working_conductor, -3)])
def test_constructors_refuse_what_they_cannot_build(make, arg):
    # nu(r, 1) at r < 1 divided by zero or indexed past its vector, the
    # Gauss sum of a q that is no odd prime is no square root of eps*q, and
    # working_conductor gave 0 at q = 1, which no CycNum takes
    if make is nu:
        message, args = "conductor must be positive", (arg, 1)
    else:
        message, args = f"q must be an odd prime, got {arg}", (arg,)
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(*args)


def test_conjugate_inverts_roots():
    for n, k in [(5, 1), (7, 3), (12, 5)]:
        assert root_of_unity(n, k).conjugate() == root_of_unity(n, -k)


def test_as_rational_and_as_integer():
    assert rational(Fraction(3, 2), conductor=12).as_rational() == Fraction(3, 2)
    assert root_of_unity(5, 1).as_rational() is None
    assert (root_of_unity(5, 1) * 0).as_rational() == 0
    assert rational(4, conductor=7).as_integer() == 4
    with pytest.raises(ValueError):
        rational(Fraction(1, 2)).as_integer()
    with pytest.raises(ValueError):
        root_of_unity(5, 1).as_integer()
    # an irrational-looking combination that collapses to an integer
    assert (nu(5, 1) + nu(5, 2)).as_integer() == -1


def test_rational_takes_the_conductor_by_keyword():
    # rational(1, 3) reads like the fraction 1/3, so it is refused rather
    # than taken as 1 in Q(zeta_3)
    with pytest.raises(TypeError):
        rational(1, 3)
    assert rational(1, conductor=3) == 1 == rational(1)


def test_division_rules():
    x = root_of_unity(7, 1) + 3
    assert (x * 2) / 2 == x
    assert x / rational(2) == x * Fraction(1, 2)
    with pytest.raises(TypeError):
        x / root_of_unity(7, 1)
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_mixed_conductor_equality():
    assert rational(5, conductor=1) == rational(5, conductor=12)
    assert root_of_unity(6, 1) == nu(6, 1) - root_of_unity(6, -1)
    assert nu(6, 1) == 1


def test_immutability():
    x = root_of_unity(5, 1)
    with pytest.raises(AttributeError):
        x.coeffs = ()


def test_json_round_trip():
    x = nu(12, 1) * Fraction(1, 2) + root_of_unity(12, 5)
    obj = x.to_json()
    assert obj["conductor"] == 12
    assert isinstance(obj["coeffs"][0], str)
    assert abs(obj["approx"]["re"] - x.approx().real) < 1e-12
    assert CycNum.from_json(obj) == x


@pytest.mark.parametrize("q,N", [(3, 12), (5, 60), (7, 168), (11, 660),
                                 (13, 1092)])
def test_working_conductor(q, N):
    assert working_conductor(q) == N
    # every ingredient embeds: zeta_q, nu at q-1, nu at q+1
    assert N % q == 0 and N % (q - 1) == 0 and N % (q + 1) == 0


# ---------------------------------------------------------------------------
# the integer representation against a plain Fraction-vector model

# every lcm of two of these divides 1092 = 4*3*7*13, the working
# conductor at q = 13
MODEL_CONDUCTORS = [1, 3, 4, 7, 12, 13, 84, 1092]


def _reduce(poly, N):
    """A Fraction polynomial (index = degree) mod Phi_N, by long division."""
    mod = cyclotomic_polynomial(N)
    phi = len(mod) - 1
    terms = [(t, m) for t, m in enumerate(mod[:-1]) if m]
    poly = list(poly) + [Fraction(0)] * max(0, phi - len(poly))
    for k in range(len(poly) - 1, phi - 1, -1):
        c = poly[k]
        if c:
            for t, m in terms:
                poly[k - phi + t] -= c * m
    return poly[:phi]


def _model_promote(xs, N, M):
    poly = [Fraction(0)] * M
    for j, c in enumerate(xs):
        poly[j * (M // N)] += c
    return _reduce(poly, M)


def _model_mul(xs, ys, N):
    poly = [Fraction(0)] * (2 * len(xs) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                poly[i + j] += x * y
    return _reduce(poly, N)


def _model_conjugate(xs, N):
    poly = [Fraction(0)] * N
    for j, c in enumerate(xs):
        poly[-j % N] += c
    return _reduce(poly, N)


@st.composite
def model_operands(draw):
    """(N, coefficient list) with a few nonzero Fraction coefficients."""
    N = draw(st.sampled_from(MODEL_CONDUCTORS))
    phi = _phi(N)
    xs = [Fraction(0)] * phi
    for _ in range(draw(st.integers(0, 5))):
        xs[draw(st.integers(0, phi - 1))] = Fraction(
            draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 3, 4, 6])))
    return N, xs


def _assert_normal(v):
    assert type(v._den) is int and v._den > 0
    assert all(type(x) is int for x in v._num)
    assert gcd(v._den, *v._num) == 1
    if not any(v._num):
        assert v._den == 1


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(x=model_operands(), y=model_operands(),
       r=st.fractions(min_value=-5, max_value=5, max_denominator=12))
def test_arithmetic_matches_fraction_model(x, y, r):
    (N, xs), (Ny, ys) = x, y
    M = lcm(N, Ny)
    a, b = CycNum(N, xs), CycNum(Ny, ys)
    xm, ym = _model_promote(xs, N, M), _model_promote(ys, Ny, M)
    cases = [
        (a + b, M, [u + v for u, v in zip(xm, ym)]),
        (a - b, M, [u - v for u, v in zip(xm, ym)]),
        (a * b, M, _model_mul(xm, ym, M)),
        (a * r, N, [u * r for u in xs]),
        (r * a, N, [u * r for u in xs]),
        (a + r, N, [xs[0] + r] + xs[1:]),
        (-a, N, [-u for u in xs]),
        (a.conjugate(), N, _model_conjugate(xs, N)),
        (a.promote(M), M, xm),
    ]
    for got, conductor, want in cases:
        assert got.conductor == conductor
        assert list(got.coeffs) == want
        _assert_normal(got)


@lru_cache(maxsize=None)
def _divisors(M):
    return [d for d in range(1, M + 1) if M % d == 0]


@st.composite
def embeddings(draw):
    """(x, M): M = lcm(q, q-1, q+1) for an odd prime q <= 31, and x a
    value, dense or mostly zero, at q-1, q, q+1 or another divisor of M."""
    q = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    M = working_conductor(q)
    N = draw(st.sampled_from([q - 1, q, q + 1])
             | st.sampled_from(_divisors(M)))
    coeff = st.integers(-9, 9)
    if draw(st.booleans()):
        coeff = st.just(0) | st.just(0) | coeff
    nums = draw(st.lists(coeff, min_size=_phi(N), max_size=_phi(N)))
    den = draw(st.sampled_from([1, 2, 3]))
    return CycNum(N, [Fraction(n, den) for n in nums]), M


def _dense_promote(x, M):
    """x embedded at M through one vector of M slots and reduce_mod."""
    poly = [0] * M
    for j, c in enumerate(x._num):
        poly[j * (M // x.conductor)] += c
    return _make(M, reduce_mod(poly, _moduli(M)), x._den)


@seed(20261022)
@settings(max_examples=200, deadline=None)
@given(xm=embeddings())
def test_sparse_embedding_matches_the_dense_scatter(xm):
    x, M = xm
    y, dense = x.promote(M), _dense_promote(x, M)
    assert y.conductor == M and y.key() == dense.key()
    # the split promote attaches is the one read off the vector
    assert y._parts() == dense._parts()
    assert _bits(y.approx()) == _bits(dense.approx())


def test_normal_form():
    x = root_of_unity(12, 1) * Fraction(2, 6) + Fraction(4, 6)
    assert (x._num, x._den) == ((2, 1, 0, 0), 3)
    # a common factor of numerators and denominator cancels
    assert ((x * 3)._num, (x * 3)._den) == ((2, 1, 0, 0), 1)
    half = (x + x.conjugate()) * Fraction(1, 2)
    _assert_normal(half)
    # zero has one form at each conductor, whatever built it
    for zero in [x - x, x * 0, rational(0, conductor=12), x * Fraction(3, 7) - x * Fraction(3, 7),
                 CycNum(12, [Fraction(0, 5)] * 4)]:
        assert (zero._num, zero._den) == ((0, 0, 0, 0), 1)
    assert CycNum(12, [Fraction(1, 2), 0, Fraction(-1, 3), 2])._den == 6


def test_coeffs_are_memoized_fractions():
    x = nu(12, 1) * Fraction(1, 3) + 2
    assert all(type(c) is Fraction for c in x.coeffs)
    # nu(12, 1) = sqrt(3) = 2*zeta_12 - zeta_12^3
    assert x.coeffs == (Fraction(2), Fraction(2, 3), Fraction(0), Fraction(-1, 3))
    assert x.coeffs is x.coeffs


def _approx_reference(x):
    """One cmath.exp per nonzero coefficient, summed in index order."""
    N, den = x.conductor, x._den
    return sum((complex(n / den) * cmath.exp(2j * cmath.pi * k / N)
                for k, n in enumerate(x._num) if n), 0j)


def _bits(z):
    return z.real.hex(), z.imag.hex()


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(cyc_numbers())
def test_approx_is_bit_identical_to_one_exp_per_coefficient(x):
    assert _bits(x.approx()) == _bits(_approx_reference(x))


def test_approx_at_a_working_conductor():
    # N = 1092 at q = 13, where the csv approx columns read it
    rng = random.Random(8)
    N = 1092
    for _ in range(20):
        x = CycNum(N, [Fraction(rng.randint(-50, 50), rng.choice([1, 2, 7]))
                       for _ in range(_phi(N))])
        assert _bits(x.approx()) == _bits(_approx_reference(x))


@pytest.mark.parametrize("value,text", [
    (lambda: nu(12, 1) * Fraction(1, 2) + root_of_unity(12, 5),
     '{"conductor": 12, "coeffs": ["0", "0", "0", "1/2"], '
     '"approx": {"re": 3.061616997868383e-17, "im": 0.5}}'),
    (lambda: sqrt_eps_q(7) * Fraction(-3, 4) + Fraction(1, 3),
     '{"conductor": 7, "coeffs": ["-5/12", "-3/2", "-3/2", "0", "-3/2", "0"], '
     '"approx": {"re": 0.33333333333333326, "im": -1.9843134832984433}}'),
    (lambda: root_of_unity(12, 1) * Fraction(1, 6)
     + root_of_unity(12, 2) * Fraction(2, 3) - 7,
     '{"conductor": 12, "coeffs": ["-7", "1/6", "2/3", "0"], '
     '"approx": {"re": -6.52232909936926, "im": 0.660683602522959}}'),
    (lambda: rational(Fraction(-5, 6), conductor=12),
     '{"conductor": 12, "coeffs": ["-5/6", "0", "0", "0"], '
     '"approx": {"re": -0.8333333333333334, "im": 0.0}}'),
    (lambda: rational(0, conductor=5),
     '{"conductor": 5, "coeffs": ["0", "0", "0", "0"], '
     '"approx": {"re": 0.0, "im": 0.0}}'),
])
def test_json_strings_are_stable(value, text):
    # the strings written by the Fraction-coefficient representation
    x = value()
    assert json.dumps(x.to_json()) == text
    assert repr(x) == f"CycNum({x.conductor}, {tuple(json.loads(text)['coeffs'])})"
    assert CycNum.from_json(json.loads(text)) == x


# ---------------------------------------------------------------------------
# dot: one reduction for a whole sum of products

@lru_cache(maxsize=None)
def _table_values(q):
    """The distinct values of the complex and real tables at q: conductors
    1, q-1, q and q+1, so two of them meet at up to lcm(q-1, q, q+1)."""
    out = {}
    for table in (complex_table(q), real_table(q)):
        for row in table.rows.values():
            for v in row:
                out.setdefault(v.key(), v)
    return list(out.values())


def _rationals(max_denominator):
    return st.fractions(min_value=-4, max_value=4,
                        max_denominator=max_denominator).map(rational)


@st.composite
def dot_triples(draw):
    """(x, y, w) triples over one q <= 13: table values, the same halved
    (a denominator 2 on either side) and rationals, with int weights
    that are often zero and may be negative."""
    q = draw(st.sampled_from([3, 5, 7, 11, 13]))
    value = st.sampled_from(_table_values(q))
    halved = value.map(lambda v: v * Fraction(1, 2))
    ratio = _rationals(max_denominator=2)
    x = st.one_of(value, halved, ratio)
    weight = st.one_of(st.just(0), st.integers(-30, 30))
    return draw(st.lists(st.tuples(x, x, weight), max_size=12))


def _term_by_term(triples):
    acc = rational(0)
    for x, y, w in triples:
        acc = acc + x * y * w
    return acc


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(triples=dot_triples())
def test_dot_equals_the_term_by_term_sum(triples):
    got = dot(triples)
    assert got == _term_by_term(triples)
    _assert_normal(got)


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(triples=st.lists(st.tuples(
    _rationals(6), _rationals(6), st.integers(-9, 9)), max_size=8))
def test_dot_of_rationals_is_their_sum_at_conductor_1(triples):
    got = dot(triples)
    assert got.conductor == 1
    assert got.as_rational() == sum(
        (x.as_rational() * y.as_rational() * w for x, y, w in triples),
        Fraction(0))
    _assert_normal(got)


@st.composite
def mixed_dot_triples(draw):
    """(x, y, w) triples over one q <= 13 that mix rational pairs, some
    held above conductor 1, with irrational table values, in any order,
    so that the rational sum and L and D each grow between terms."""
    q = draw(st.sampled_from([5, 7, 11, 13]))
    irrational = st.sampled_from([v for v in _table_values(q)
                                  if v.as_rational() is None])
    ratio = _rationals(max_denominator=6)
    ratio = st.one_of(ratio, ratio.map(lambda v: v.promote(q + 1)))
    weight = st.one_of(st.just(0), st.integers(-30, 30))
    term = st.one_of(st.tuples(ratio, ratio, weight),
                     st.tuples(irrational, ratio, weight),
                     st.tuples(ratio, irrational, weight),
                     st.tuples(irrational, irrational, weight))
    return draw(st.lists(term, max_size=16))


@seed(20261023)
@settings(max_examples=300, deadline=None)
@given(triples=mixed_dot_triples())
def test_dot_of_mixed_terms_equals_the_term_by_term_sum(triples):
    got = dot(triples)
    assert got == _term_by_term(triples)
    _assert_normal(got)
    # at the lcm of the conductors of the nonzero terms, rationals at 1
    want = lcm(1, *(v._parts()[0] for x, y, w in triples
                    if w and x and y for v in (x, y)))
    assert got.conductor == want


def test_dot_of_nothing_is_zero():
    assert dot([]) == rational(0)
    assert dot(iter([])).as_rational() == 0
    # terms with a zero factor are dropped before the conductor is chosen
    one = rational(1)
    assert dot([(root_of_unity(7, 1), one, 0),
                (rational(0), nu(13, 1), 1)]) == 0
    assert dot([(root_of_unity(7, 1), one, 0)]).conductor == 1


def test_dot_at_the_working_conductor_of_13():
    # zeta_12 * zeta_13 * zeta_7: every exponent pair wraps past L = 1092
    x, y = root_of_unity(12, 11), root_of_unity(91, 90)
    assert dot([(x, y, 1), (x, y, 1)]) == dot([(x, y, 2)]) == x * y * 2
    assert dot([(x, y, 1)]).conductor == 1092
    assert dot([(x, y, -1)]) == -(x * y)


def _tables_to_split():
    for q in (3, 5, 7, 11, 13):
        yield pytest.param(complex_table, q, None, id=f"complex-{q}")
        yield pytest.param(real_table, q, None, id=f"real-{q}")
    # every value held above its natural conductor, at N = 12
    yield pytest.param(complex_table, 3, 12, id="promoted-3")


@pytest.mark.parametrize("make, q, M", _tables_to_split())
def test_every_pool_entry_splits_and_scatters_back_to_itself(make, q, M):
    # each entry and its conjugate: the values dot reads through the split
    for v, _ in make(q).pool:
        v = v.promote(M or v.conductor)
        for x in (v, v.conjugate()):
            split = x._parts()
            N, pairs, den = split
            assert x._parts() is split   # memoized on the value
            assert all(c for _, c in pairs)
            assert N == (1 if x.as_rational() is not None else x.conductor)
            back = _make(N, _from_powers(N, pairs), den)
            assert back == x and back.conductor == N
            _assert_normal(back)
