"""Prime-field arithmetic: residues, inverses, Euler's criterion."""
import pytest

from sl2q.fq import (inverse, is_odd_prime, is_quadratic_residue,
                     legendre_symbol, primitive_root)


@pytest.mark.parametrize("n,expected", [
    (1, False), (2, False), (3, True), (5, True), (7, True), (9, False),
    (11, True), (13, True), (15, False), (17, True), (25, False),
    (91, False), (97, True), (-3, False), (0, False),
])
def test_is_odd_prime(n, expected):
    assert is_odd_prime(n) is expected


def test_elem_normalizes_and_rejects_bad_modulus():
    # a residue stands for its class mod q
    assert inverse(7, 5) == inverse(2, 5) == 3
    assert inverse(-1, 5) == inverse(4, 5) == 4
    assert legendre_symbol(12, 7) == legendre_symbol(5, 7) == -1
    with pytest.raises(ValueError):
        inverse(1, 4)
    with pytest.raises(ValueError):
        inverse(1, 2)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15])
def test_each_function_checks_its_input(bad):
    for f in (inverse, is_quadratic_residue, legendre_symbol):
        with pytest.raises(ValueError):
            f(1, bad)
    with pytest.raises(ValueError):
        primitive_root(bad)
    # zero is refused where it has no answer, at any representative
    q = 7
    for zero in (0, q, -q):
        with pytest.raises(ValueError):
            is_quadratic_residue(zero, q)
        with pytest.raises(ZeroDivisionError):
            inverse(zero, q)
        assert legendre_symbol(zero, q) == 0
    # a residue outside 0..q-1 answers as its reduction does
    for v in range(1, q):
        for a in (v - q, v + q, v - 3 * q, v + 5 * q):
            assert inverse(a, q) == inverse(v, q)
            assert is_quadratic_residue(a, q) is is_quadratic_residue(v, q)
            assert legendre_symbol(a, q) == legendre_symbol(v, q)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_inverse_against_definition(q):
    for v in range(1, q):
        w = inverse(v, q)
        assert 0 < w < q and v * w % q == 1
    with pytest.raises(ZeroDivisionError):
        inverse(0, q)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17])
def test_euler_criterion_matches_the_set_of_squares(q):
    squares = {(v * v) % q for v in range(1, q)}
    for v in range(1, q):
        assert is_quadratic_residue(v, q) is (v in squares)
        assert legendre_symbol(v, q) == (1 if v in squares else -1)
    assert legendre_symbol(0, q) == 0
    with pytest.raises(ValueError):
        is_quadratic_residue(0, q)


def test_legendre_is_multiplicative():
    q = 13
    for u in range(1, q):
        for v in range(1, q):
            lu = legendre_symbol(u, q)
            lv = legendre_symbol(v, q)
            assert legendre_symbol(u * v, q) == lu * lv


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19])
def test_primitive_root_generates_everything(q):
    g = primitive_root(q)
    assert type(g) is int
    powers = {pow(g, k, q) for k in range(q - 1)}
    assert powers == set(range(1, q))


def test_primitive_root_is_deterministic_smallest():
    # 2 generates mod 5 and 13; mod 7 the smallest generator is 3
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(13) == 2
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 41, 71):
        g = primitive_root(q)
        assert all(len({pow(h, k, q) for k in range(q - 1)}) < q - 1
                   for h in range(2, g))
