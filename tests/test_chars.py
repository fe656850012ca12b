"""The complex irreducible character table."""
from fractions import Fraction
from math import gcd

import pytest

from sl2q.chars import (Chi, ETA1, ETA2, PSI, TRIV, Theta, XI1, XI2, CharLabel,
                        CharTable, char_labels, complex_table,
                        parse_char_label, sym_latex, sym_str)
from sl2q.cyclo import (nu, rational, root_of_unity, sqrt_eps_q,
                        working_conductor)
from sl2q.grp import (A, B, C, D, ONE, Z, ZC, ZD, class_of, rep_a, rep_c,
                      rep_z)
from sl2q.realrep import parse_real_char_label, real_table

Q_SMALL = [3, 5, 7, 11, 13]


def test_char_labels_order():
    assert [str(ch) for ch in char_labels(5)] == [
        "1", "psi", "chi_1", "theta_1", "theta_2",
        "xi_1", "xi_2", "eta_1", "eta_2"]
    for q in Q_SMALL:
        assert len(char_labels(q)) == q + 4


def test_label_validation_and_parsing():
    for s in ["1", "psi", "chi_3", "theta_12", "xi_1", "eta_2"]:
        assert str(parse_char_label(s)) == s
    with pytest.raises(ValueError):
        CharLabel("chi")
    with pytest.raises(ValueError):
        CharLabel("psi", 1)
    with pytest.raises(ValueError):
        parse_char_label("rho_1")


@pytest.mark.parametrize("q,degrees", [
    (5, [1, 5, 6, 4, 4, 3, 3, 2, 2]),
    (7, [1, 7, 8, 8, 6, 6, 6, 4, 4, 3, 3]),
])
def test_degrees(q, degrees):
    ct = complex_table(q)
    assert [ct.degree(ch) for ch in ct.chars] == degrees


@pytest.mark.parametrize("q", Q_SMALL)
def test_sum_of_squared_degrees_is_group_order(q):
    ct = complex_table(q)
    assert sum(ct.degree(ch) ** 2 for ch in ct.chars) == q ** 3 - q


@pytest.mark.parametrize("q", Q_SMALL)
def test_row_shapes(q):
    """Entries every table must show, straight from the closed forms."""
    ct = complex_table(q)
    g = sqrt_eps_q(q)
    for lab in ct.class_order:
        assert ct.value(TRIV, lab) == 1
    assert ct.value(PSI, Z) == q
    assert ct.value(PSI, C) == 0 and ct.value(PSI, D) == 0
    for m in range(1, (q - 1) // 2 + 1):
        assert ct.value(PSI, B(m)) == -1
    for i in range(1, (q - 3) // 2 + 1):
        sign = 1 if i % 2 == 0 else -1
        assert ct.value(Chi(i), Z) == sign * (q + 1)
        assert ct.value(Chi(i), C) == 1
        for l in range(1, (q - 3) // 2 + 1):
            assert ct.value(Chi(i), A(l)) == nu(q - 1, i * l)
        assert ct.value(Chi(i), B(1)) == 0
    for j in range(1, (q - 1) // 2 + 1):
        sign = 1 if j % 2 == 0 else -1
        assert ct.value(Theta(j), Z) == sign * (q - 1)
        assert ct.value(Theta(j), D) == -1
        for m in range(1, (q - 1) // 2 + 1):
            assert ct.value(Theta(j), B(m)) == -nu(q + 1, j * m)
    half = Fraction(1, 2)
    assert ct.value(XI1, C) == (1 + g) * half
    assert ct.value(XI1, D) == (1 - g) * half
    assert ct.value(XI2, C) == (1 - g) * half
    assert ct.value(ETA1, C) == (-1 + g) * half
    assert ct.value(ETA1, D) == (-1 - g) * half


@pytest.mark.parametrize("q", Q_SMALL)
def test_negative_columns_scale_by_central_sign(q):
    ct = complex_table(q)
    for ch in ct.chars:
        s = ct.value(ch, Z) / ct.value(ch, ONE)
        assert s.as_rational() in (1, -1)
        assert ct.value(ch, ZC) == ct.value(ch, C) * s
        assert ct.value(ch, ZD) == ct.value(ch, D) * s


@pytest.mark.parametrize("q", [3, 5, 7])
def test_orthogonality_small(q):
    ct = complex_table(q)
    order = q ** 3 - q
    sizes = {lab: ct.size(lab) for lab in ct.class_order}
    for ch1 in ct.chars:
        for ch2 in ct.chars:
            total = rational(0)
            for lab in ct.class_order:
                total = total + (ct.value(ch1, lab)
                                 * ct.value(ch2, lab).conjugate() * sizes[lab])
            assert total == (order if ch1 == ch2 else 0)


def test_values_of_arbitrary_elements():
    ct = complex_table(5)
    assert ct.value(PSI, class_of(rep_a(5))) == 1
    assert ct.value(PSI, class_of(rep_z(5))) == 5
    c2 = rep_c(5) * rep_c(5)  # lands in (d) since 2 is not a square mod 5
    assert class_of(c2) == D
    assert ct.value(XI1, class_of(c2)) == ct.value(XI1, D)


def test_symbolic_cells_render():
    ct5 = complex_table(5)
    sym = {(str(ch), str(lab)): sym_str(ct5.cell(ch, lab))
           for ch in ct5.chars for lab in ct5.class_order}
    assert sym[("xi_1", "c")] == "(1+sqrt(5))/2"
    assert sym[("eta_1", "d")] == "(-1-sqrt(5))/2"
    assert sym[("psi", "z")] == "5"
    ct7 = complex_table(7)
    assert sym_str(ct7.cell(XI1, C)) == "(1+sqrt(-7))/2"
    ct13 = complex_table(13)
    assert sym_str(ct13.cell(Chi(1), A(1))) == "nu(12,1)"
    assert sym_str(ct13.cell(Theta(2), B(1))) == "-nu(14,2)"
    # nu(12,3) = 2cos(pi/2) collapses to an exact zero and renders as one
    assert sym_str(ct13.cell(Chi(1), A(3))) == "0"
    # the same cells in LaTeX
    assert sym_latex(ct5.cell(XI1, C)) == "\\tfrac{1+\\sqrt{5}}{2}"
    assert sym_latex(ct5.cell(ETA1, D)) == "\\tfrac{-1-\\sqrt{5}}{2}"
    assert sym_latex(ct5.cell(PSI, Z)) == "5"
    assert sym_latex(ct7.cell(XI1, C)) == "\\tfrac{1+\\sqrt{-7}}{2}"
    assert sym_latex(ct13.cell(Chi(1), A(1))) == "\\nu_{12}^{1}"
    assert sym_latex(ct13.cell(Theta(2), B(1))) == "-\\nu_{14}^{2}"
    assert sym_latex(ct13.cell(Chi(1), A(3))) == "0"
    # a gauss cell off the halves: real q=5 2eta_1 = -1+sqrt(5) at c
    rt5 = real_table(5)
    cell = rt5.cell(parse_real_char_label("2eta_1"), C)
    assert (sym_str(cell), sym_latex(cell)) == ("-1+sqrt(5)", "-1+\\sqrt{5}")
    # unit and scaled nu terms
    cell = ct7.cell(Theta(1), B(1))
    assert (sym_str(cell), sym_latex(cell)) == ("-nu(8,1)", "-\\nu_{8}^{1}")
    cell = real_table(7).cell(parse_real_char_label("2theta_1"), B(1))
    assert (sym_str(cell), sym_latex(cell)) == ("-2*nu(8,1)", "-2\\nu_{8}^{1}")
    # branches no table reaches: fractional and non-unit coefficients
    half = Fraction(1, 2)
    for cell, text, tex in [
            (("rat", -half), "-1/2", "-\\tfrac{1}{2}"),
            (("nu", half, 8, 1), "1/2*nu(8,1)", "\\tfrac{1}{2}\\nu_{8}^{1}"),
            (("gauss", half, 3 * half, 5), "(1+3*sqrt(5))/2",
             "\\tfrac{1+3\\sqrt{5}}{2}"),
            (("gauss", Fraction(0), -half, -7), "-1/2*sqrt(-7)",
             "-\\tfrac{1}{2}\\sqrt{-7}"),
            (("gauss", Fraction(1, 3), Fraction(2, 3), 5), "1/3+2/3*sqrt(5)",
             "\\tfrac{1}{3}+\\tfrac{2}{3}\\sqrt{5}"),
            (("gauss", Fraction(2), Fraction(0), 5), "2", "2")]:
        assert (sym_str(cell), sym_latex(cell)) == (text, tex)


def test_symbolic_matches_exact_values():
    # the display layer must agree with the arithmetic layer everywhere
    for q in [5, 7]:
        ct = complex_table(q)
        for ch in ct.chars:
            for value, cell in zip(ct.rows[ch], ct.cells[ch]):
                exact = value.approx()
                kind = cell[0]
                if kind == "rat":
                    shown = complex(cell[1])
                elif kind == "nu":
                    shown = complex(cell[1]) * nu(cell[2], cell[3]).approx()
                else:
                    _, a, b, dd = cell
                    shown = complex(a) + complex(b) * (abs(dd) ** 0.5
                                                       * (1j if dd < 0 else 1))
                assert abs(exact - shown) < 1e-9


def test_conjugation_symmetry_of_borel_rows():
    # complex conjugation fixes xi/eta rows for q = 1 mod 4 and swaps
    # the 1,2 pair for q = 3 mod 4, because conj(g) = eps*g
    ct5 = complex_table(5)
    assert ct5.value(XI1, C).conjugate() == ct5.value(XI1, C)
    ct7 = complex_table(7)
    assert ct7.value(XI1, C).conjugate() == ct7.value(XI2, C)
    assert ct7.value(ETA1, ZD).conjugate() == ct7.value(ETA2, ZD)


def test_json_round_trip():
    ct = complex_table(5)
    clone = CharTable.from_json(ct.to_json())
    assert clone == ct
    assert clone.cells is None
    assert clone.degree(PSI) == 5
    assert clone.value(ETA2, B(2)) == ct.value(ETA2, B(2))
    # schema 2: every cell is written at the conductor it is stored at,
    # under the table's working conductor N
    for table in (ct, real_table(5)):
        obj = table.to_json()
        assert obj["schema"] == 2 and obj["conductor"] == table.conductor
        assert all(obj["values"][str(ch)][str(lab)]
                   == table.value(ch, lab).to_json()
                   for ch in table.chars for lab in table.class_order)
        assert CharTable.from_json(obj) == table


def test_from_json_rejects_a_value_outside_the_working_field():
    obj = complex_table(5).to_json()
    obj["values"]["psi"]["c"] = root_of_unity(7, 1).to_json()
    with pytest.raises(ValueError, match="does not divide"):
        CharTable.from_json(obj)


def test_class_sum_is_the_inner_product_with_the_trivial_row():
    ct = complex_table(7)
    sizes = {cls.label: cls.size for cls in ct.classes}
    for ch in ct.chars:
        assert ct.class_sum(ch, sizes) == (7 ** 3 - 7 if ch == TRIV else 0)


def test_class_sum_of_no_classes_is_zero():
    for table in (complex_table(7), real_table(7)):
        for ch in table.chars:
            assert table.class_sum(ch, {}) == rational(0)


def test_table_is_cached():
    assert complex_table(7) is complex_table(7)
    assert real_table(7) is real_table(7)
    # per-process caches stay bounded
    assert complex_table.cache_info().maxsize is not None
    assert real_table.cache_info().maxsize is not None


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23])
def test_values_stay_at_their_natural_conductor(q):
    # only serialization embeds a value in Q(zeta_N), N = lcm(q, q-1, q+1)
    natural = {1, q - 1, q, q + 1}
    for table in (complex_table(q), real_table(q)):
        assert table.conductor == working_conductor(q)
        assert {v.conductor for row in table.rows.values()
                for v in row} <= natural
    # every rational cell of both tables, nu values and sums of
    # conjugates included, at 1
    for table in (complex_table(q), real_table(q)):
        assert all(v.conductor == 1 for row in table.rows.values()
                   for v in row if v.as_rational() is not None)


def _non_integral_central_characters(rows: dict, sizes: list) -> list:
    """(row, class index) of each cell whose central character
    |C| chi(g_C) / chi(1) is no algebraic integer (Isaacs, Character
    Theory of Finite Groups, Thm 3.7), with chi(1) in the first column.  A
    CycNum holds its numerators over the power basis of Z[zeta_N], an
    integral basis, so each cell is one int test: den * chi(1) divides
    |C| * gcd(numerators)."""
    return [(ch, j) for ch, row in rows.items()
            for degree in [row[0].as_integer()]
            for j, (v, size) in enumerate(zip(row, sizes))
            if size * gcd(*v._num) % (v._den * degree)]


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                               43, 47, 211])
def test_central_characters_are_algebraic_integers(q):
    table = complex_table(q)
    sizes = [cls.size for cls in table.classes]
    assert _non_integral_central_characters(table.rows, sizes) == []


def test_central_characters_see_a_rotated_table():
    # M is rational orthogonal and fixes (1, 1, 1): the rotated rows keep
    # every row and column relation, the degrees and the z, c and d
    # columns, which no check of the oracle tells from a character table
    # at q = 23, but their central characters at a^1 have a denominator 3
    table = complex_table(23)
    rows = table.rows
    third = Fraction(1, 3)
    M = [[2, 2, -1], [-1, 2, 2], [2, -1, 2]]
    rotated = [Chi(2), Chi(4), Chi(6)]
    old = [rows[ch] for ch in rotated]
    for ch, weights in zip(rotated, M):
        rows[ch] = [sum((v * (w * third) for v, w in zip(cells, weights)),
                        rational(0)) for cells in zip(*old)]
    sizes = [cls.size for cls in table.classes]
    a1 = table.class_order.index(A(1))
    bad = _non_integral_central_characters(rows, sizes)
    assert {ch for ch, _ in bad} == set(rotated)
    assert {(ch, a1) for ch in rotated} <= set(bad)
