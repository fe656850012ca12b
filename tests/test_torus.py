"""The torus index ranges, stated once in ``grp.torus_indices``.

The split torus <a> (order q-1) has the classes a^l, 1 <= l <= (q-3)/2,
and the non-split torus <b> (order q+1) the classes b^m,
1 <= m <= (q-1)/2.  The chi and theta rows, the real rows built from
them and the AH/BH subgroups take the same indices.  The references
below spell those ranges out, as the package did before it read them
from one place, and every list built from them must agree.
"""
import re

import pytest

from sl2q.chars import CharLabel, char_labels, complex_table
from sl2q.fixdim import (AH, BH, C_H, TRIVIAL_H, Z_H, ZC_H, fixed_dim_closed,
                         subgroup, subgroup_keys)
from sl2q.fq import is_odd_prime, is_quadratic_residue
from sl2q.grp import (A, B, C, D, ONE, Z, ZC, ZD, class_labels, find_b,
                      identity, rep_a, rep_c, rep_d, rep_z, rep_zc, rep_zd,
                      representatives, torus_indices, torus_order)
from sl2q.realrep import (RChiEven, RPSI, RTRIV, RThetaEven, RTwoChiOdd,
                          RTwoThetaOdd, RTWO_ETA1, RTWO_ETA2, RTWO_RE_ETA1,
                          RTWO_RE_XI1, RXI1, RXI2, fs_indicator_closed,
                          real_char_labels, square_class_map)

PRIMES_TO_211 = [q for q in range(3, 212) if is_odd_prime(q)]


def spelled_class_labels(q):
    return ([ONE, Z, C, D, ZC, ZD]
            + [A(l) for l in range(1, (q - 3) // 2 + 1)]
            + [B(m) for m in range(1, (q - 1) // 2 + 1)])


def spelled_char_labels(q):
    return ([CharLabel("1"), CharLabel("psi")]
            + [CharLabel("chi", i) for i in range(1, (q - 3) // 2 + 1)]
            + [CharLabel("theta", j) for j in range(1, (q - 1) // 2 + 1)]
            + [CharLabel(k) for k in ("xi1", "xi2", "eta1", "eta2")])


def spelled_real_char_labels(q):
    chi_max, theta_max = (q - 3) // 2, (q - 1) // 2
    return ([RTRIV, RPSI]
            + [RChiEven(i) for i in range(2, chi_max + 1, 2)]
            + [RTwoChiOdd(i) for i in range(1, chi_max + 1, 2)]
            + [RThetaEven(j) for j in range(2, theta_max + 1, 2)]
            + [RTwoThetaOdd(j) for j in range(1, theta_max + 1, 2)]
            + ([RXI1, RXI2, RTWO_ETA1, RTWO_ETA2] if q % 4 == 1
               else [RTWO_RE_XI1, RTWO_RE_ETA1]))


def spelled_subgroup_keys(q):
    return ([TRIVIAL_H, Z_H, C_H, ZC_H]
            + [AH(l) for l in range(1, (q - 3) // 2 + 1)]
            + [BH(m) for m in range(1, (q - 1) // 2 + 1)])


def spelled_square_class_map(q):
    def fold(label, k, n):   # the class of t^k, t of order n
        k %= n
        return ONE if k == 0 else Z if 2 * k == n else label(min(k, n - k))

    two_qr = is_quadratic_residue(2, q)
    sq = {ONE: ONE, Z: ONE, C: C if two_qr else D, D: D if two_qr else C}
    sq[ZC], sq[ZD] = sq[C], sq[D]
    for l in range(1, (q - 3) // 2 + 1):
        sq[A(l)] = fold(A, 2 * l, q - 1)
    for m in range(1, (q - 1) // 2 + 1):
        sq[B(m)] = fold(B, 2 * m, q + 1)
    return sq


def spelled_representatives(q):
    a, b = rep_a(q), find_b(q)
    return ([identity(q), rep_z(q), rep_c(q), rep_d(q), rep_zc(q), rep_zd(q)]
            + [a ** l for l in range(1, (q - 3) // 2 + 1)]
            + [b ** m for m in range(1, (q - 1) // 2 + 1)])


def spelled_fs_indicator_closed(table, char):
    q = table.q
    K = q * q + q if q % 4 == 1 else q * q - q
    val = table.value
    acc = (val(char, ONE) * 2 + val(char, Z) * K
           + (val(char, C) + val(char, D)) * (q * q - 1))
    for l in range(1, (q - 3) // 4 + 1):
        acc = acc + val(char, A(2 * l)) * (2 * q * (q + 1))
    for m in range(1, (q - 1) // 4 + 1):
        acc = acc + val(char, B(2 * m)) * (2 * q * (q - 1))
    return int((acc / (q ** 3 - q)).as_rational())


@pytest.mark.parametrize("q", PRIMES_TO_211)
def test_lists_equal_the_spelled_out_ranges(q):
    assert torus_order(q, "a") == q - 1 and torus_order(q, "b") == q + 1
    assert class_labels(q) == spelled_class_labels(q)
    assert char_labels(q) == spelled_char_labels(q)
    assert real_char_labels(q) == spelled_real_char_labels(q)
    assert subgroup_keys(q) == spelled_subgroup_keys(q)
    sq = square_class_map(q)
    assert sq == spelled_square_class_map(q)
    assert list(sq) == class_labels(q)
    reps = representatives(q)
    assert [c.label for c in reps] == spelled_class_labels(q)
    assert [c.representative for c in reps] == spelled_representatives(q)


@pytest.mark.parametrize("q", [q for q in PRIMES_TO_211 if q <= 53])
def test_fs_indicator_closed_equals_the_spelled_out_sum(q):
    table = complex_table(q)
    for char in table.chars:
        assert fs_indicator_closed(table, char) == (
            spelled_fs_indicator_closed(table, char)), char


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_subgroup_index_bounds(q):
    def rejected(key):
        message = f"{key.kind} index {key.index} out of range for q={q}"
        for build in (lambda: subgroup(q, key),
                      lambda: fixed_dim_closed(q, RTRIV, key)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    # at q = 3 the split torus range is empty: AH(1) is already past it
    last_a, last_b = (q - 3) // 2, (q - 1) // 2
    for key in ([AH(last_a)] if last_a else []) + [BH(last_b)]:
        assert subgroup(q, key).key == key
        assert fixed_dim_closed(q, RTRIV, key) == 1
    rejected(AH(last_a + 1))
    rejected(BH(last_b + 1))
    assert list(torus_indices(q, "a")) == list(range(1, last_a + 1))
    assert list(torus_indices(q, "b")) == list(range(1, last_b + 1))

