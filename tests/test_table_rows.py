"""Tables stored as rows in class order, each distinct value built once.

``complex_table`` and ``real_table`` name each distinct entry by one
code and build it once, each nu value included, and every cell that
reads it shares it.  The references below build every cell on its own,
as the package did before it stored rows, with the symbolic-cell
arithmetic below, and every value and display cell must agree with them.
"""
from fractions import Fraction

import pytest

import sl2q.chars
import sl2q.realrep
from sl2q.chars import (ETA1, ETA2, PSI, TRIV, XI1, XI2, Chi, Theta,
                        char_labels, complex_table)
from sl2q.cyclo import CycNum, nu, rational, sqrt_eps_q
from sl2q.fq import is_odd_prime
from sl2q.grp import A, B, C, D, ONE, Z, ZC, ZD
from sl2q.realrep import real_char_labels, real_table

PRIMES_TO_47 = [q for q in range(3, 48) if is_odd_prime(q)]


# symbolic cells: ("rat", Fraction) | ("nu", coef, r, s) | ("gauss", a, b, D)
# where ("gauss", a, b, D) means a + b*sqrt(D), all coefficients Fraction.

def sym_scale(sym: tuple, k) -> tuple:
    k = Fraction(k)
    tag = sym[0]
    if tag == "rat":
        return ("rat", sym[1] * k)
    if tag == "nu":
        return ("nu", sym[1] * k, sym[2], sym[3])
    if tag == "gauss":
        return ("gauss", sym[1] * k, sym[2] * k, sym[3])
    raise ValueError(f"bad symbolic cell {sym!r}")


def sym_add(s1: tuple, s2: tuple) -> tuple:
    """Addition for the combinations the real table needs."""
    if s1[0] == "rat" and s2[0] == "rat":
        return ("rat", s1[1] + s2[1])
    if s1[0] == "gauss" and s2[0] == "gauss" and s1[3] == s2[3]:
        a, b = s1[1] + s2[1], s1[2] + s2[2]
        return ("rat", a) if b == 0 else ("gauss", a, b, s1[3])
    if s1[0] == "nu" and s2[0] == "nu" and s1[2:] == s2[2:]:
        return ("nu", s1[1] + s2[1], s1[2], s1[3])
    raise ValueError(f"cannot add symbolic cells {s1!r} and {s2!r}")


def _fold(r, s):
    s %= r
    return min(s, r - s)


def reference_complex_cells(q):
    """{(char, label): (value, display cell)}, every cell built on its
    own: a nu cell is nu(r, s) * coef at the cell's own exponent."""
    eps = 1 if q % 4 == 1 else -1
    gauss = sqrt_eps_q(q)
    ls, ms = range(1, (q - 3) // 2 + 1), range(1, (q - 1) // 2 + 1)
    half = Fraction(1, 2)

    def rat(v):
        return (rational(Fraction(v)), ("rat", Fraction(v)))

    def nu_cell(r, s, coef):
        val = nu(r, s) * coef
        if val.as_rational() is not None:
            return rat(val.as_rational())
        return (val, ("nu", Fraction(coef), r, _fold(r, s)))

    def gauss_cell(a, b):
        return (gauss * b + a, ("gauss", Fraction(a), Fraction(b), eps * q))

    out = {}

    def fill(char, one, z, c, d, a_of, b_of):
        sz = z[0].as_rational() / one[0].as_rational()
        row = {ONE: one, Z: z, C: c, D: d,
               ZC: (c[0] * sz, sym_scale(c[1], sz)),
               ZD: (d[0] * sz, sym_scale(d[1], sz))}
        row |= {A(l): a_of(l) for l in ls}
        row |= {B(m): b_of(m) for m in ms}
        out.update(((char, lab), cell) for lab, cell in row.items())

    fill(TRIV, rat(1), rat(1), rat(1), rat(1), lambda l: rat(1),
         lambda m: rat(1))
    fill(PSI, rat(q), rat(q), rat(0), rat(0), lambda l: rat(1),
         lambda m: rat(-1))
    for i in ls:
        fill(Chi(i), rat(q + 1), rat((-1) ** i * (q + 1)), rat(1), rat(1),
             lambda l, i=i: nu_cell(q - 1, i * l, 1), lambda m: rat(0))
    for j in ms:
        fill(Theta(j), rat(q - 1), rat((-1) ** j * (q - 1)), rat(-1), rat(-1),
             lambda l: rat(0), lambda m, j=j: nu_cell(q + 1, j * m, -1))
    for char, g in ((XI1, half), (XI2, -half)):
        fill(char, rat(half * (q + 1)), rat(half * eps * (q + 1)),
             gauss_cell(half, g), gauss_cell(half, -g),
             lambda l: rat((-1) ** l), lambda m: rat(0))
    for char, g in ((ETA1, half), (ETA2, -half)):
        fill(char, rat(half * (q - 1)), rat(-half * eps * (q - 1)),
             gauss_cell(-half, g), gauss_cell(-half, -g),
             lambda l: rat(0), lambda m: rat((-1) ** (m + 1)))
    return out


@pytest.mark.parametrize("q", PRIMES_TO_47)
def test_complex_table_matches_the_per_cell_reference(q):
    ct = complex_table(q)
    ref = reference_complex_cells(q)
    assert ct.chars == tuple(char_labels(q))
    assert len(ref) == len(ct.chars) * len(ct.class_order) == (q + 4) ** 2
    for ch in ct.chars:
        assert len(ct.rows[ch]) == len(ct.cells[ch]) == q + 4
        for lab in ct.class_order:
            value, cell = ref[ch, lab]
            assert ct.value(ch, lab).key() == value.key()
            assert ct.cell(ch, lab) == cell


@pytest.mark.parametrize("q", PRIMES_TO_47)
def test_real_table_matches_its_sums_of_complex_cells(q):
    # each real cell summed on its own through ``value`` and the
    # complex table's display cells
    ct, rt = complex_table(q), real_table(q)
    assert rt.chars == tuple(real_char_labels(q))
    for ch in rt.chars:
        for lab in rt.class_order:
            value = cell = None
            for src, mult in rt.source[ch]:
                v = ct.value(src, lab) * mult
                s = sym_scale(ct.cell(src, lab), mult)
                value = v if value is None else value + v
                cell = s if cell is None else sym_add(cell, s)
            if value.as_rational() is not None:   # held at conductor 1
                value = rational(value.as_rational())
            assert rt.value(ch, lab).key() == value.key()
            assert rt.cell(ch, lab) == cell


def test_rows_and_cells_are_in_class_order():
    for table in (complex_table(13), real_table(13)):
        assert list(table.rows) == list(table.cells) == list(table.chars)
        for j, lab in enumerate(table.class_order):
            assert table.size(lab) == table.classes[j].size
            for ch in table.chars:
                assert table.value(ch, lab) is table.rows[ch][j]
                assert table.cell(ch, lab) is table.cells[ch][j]


@pytest.mark.parametrize("q", PRIMES_TO_47)
def test_no_two_pool_entries_share_a_key_and_cell(q):
    for table in (complex_table(q), real_table(q)):
        keys = [(value.key(), cell) for value, cell in table.pool]
        assert len(set(keys)) == len(keys)
        # and every entry is read by some cell
        assert set().union(*map(set, table.index.values())) == set(
            range(len(table.pool)))


def test_each_nu_value_is_built_once(monkeypatch):
    # one nu(r, s) per folded exponent 0 <= s <= r/2 of r = q-1 and q+1
    q, calls = 13, []
    real_nu = sl2q.chars.nu

    def counted(r, s):
        calls.append((r, s))
        return real_nu(r, s)
    monkeypatch.setattr(sl2q.chars, "nu", counted)
    complex_table.__wrapped__(q)
    assert len(calls) <= q + 3
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("q", [3, 5, 13, 23, 53])
def test_each_table_entry_is_built_once(monkeypatch, q):
    # both tables name each distinct (value, cell) entry by one code, so
    # _intern builds and keys as many entries as the pool keeps
    keyed, key = [], CycNum.key
    monkeypatch.setattr(CycNum, "key", lambda v: keyed.append(v) or key(v))
    for module, build in ((sl2q.chars, complex_table),
                          (sl2q.realrep, real_table)):
        seen, built, real_intern = [], [], module._intern

        def counted(rows, entry):
            rows = list(rows)
            seen.extend(code for _, codes in rows for code in codes)
            return real_intern(rows, lambda c: built.append(c) or entry(c))
        monkeypatch.setattr(module, "_intern", counted)
        keyed.clear()
        table = build.__wrapped__(q)
        assert len(seen) == len(table.chars) * (q + 4)
        assert len(set(seen)) == len(built) == len(keyed) == len(table.pool)


@pytest.mark.parametrize("q", [7, 13])
def test_real_table_does_not_build_the_complex_table(monkeypatch, q):
    # wherever the name could be read from, realrep included
    def refuse(q):
        raise AssertionError("real_table built the complex table")
    for module in (sl2q.chars, sl2q.realrep):
        monkeypatch.setattr(module, "complex_table", refuse, raising=False)
    assert real_table.__wrapped__(q) == real_table(q)
