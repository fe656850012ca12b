"""A seeded-defect census of the oracle: one defect at a time, through
``verify_all`` at q = 11 and q = 13, one prime for each residue mod 4.

Each defect is patched into the package where the library reads it, with
every per-process cache cleared before and after, so that it reaches each
table, map and column built from it and no other test sees it.  A defect
must fail at least one check, and each case names the checks it fails.
A defect that passes all eleven is a hole in the oracle: it stays in the
census as a strict xfail that names the hole.  An equivalent mutant, a
table that is correct up to relabeling, must pass every check.

Reference: R. A. DeMillo, R. J. Lipton and F. G. Sayward, "Hints on test
data selection", IEEE Computer 11(4), 1978.
"""
import importlib
import pkgutil
from fractions import Fraction
from math import gcd

import pytest

import sl2q
import sl2q.chars as chars
import sl2q.fixdim as fixdim
import sl2q.grp as grp
import sl2q.realrep as realrep
import sl2q.verify as verify
from sl2q.chars import CharTable, Chi, _intern
from sl2q.cyclo import _from_powers, _make, working_conductor
from sl2q.fq import is_quadratic_residue
from sl2q.grp import A, ONE, Z
from sl2q.realrep import RChiEven

_MODULES = [importlib.import_module(info.name)
            for info in pkgutil.iter_modules(sl2q.__path__, "sl2q.")]


def _clear_caches():
    """Empty every lru cache of the package and the indicator totals."""
    for module in _MODULES:
        for obj in vars(module).values():
            if (hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) == module.__name__):
                obj.cache_clear()
    realrep._TOTALS.clear()


@pytest.fixture(autouse=True)
def _fresh_caches():
    _clear_caches()
    yield
    _clear_caches()


def _failed(q):
    """The names of the checks ``verify_all(q)`` fails, from cold caches,
    so that the defect patched in reaches everything built from it."""
    _clear_caches()
    return [c.name for c in verify.verify_all(q).checks if not c.passed]


# ---------------------------------------------------------------------------
# the defects: each patches one fact into the package

def _edit_entries(monkeypatch, edit):
    """Both tables with the value of each code passed through
    ``edit(q, code, value)``: ``chars._codes`` wrapped where both tables
    read it."""
    original = chars._codes

    def codes(q):
        rows, entry = original(q)

        def edited(code):
            value, cell = entry(code)
            return edit(q, code, value), cell
        return rows, edited
    for module in (chars, realrep):
        monkeypatch.setattr(module, "_codes", codes)


def _chosen_code(kind, q):
    """One entry code of each kind: psi(1), chi_1(a^1) and xi_1(c)."""
    return {"int": q, "nu": ("nu", 1, q - 1, 1),
            "gauss": ("gauss", 1, 1)}[kind]


def _negate(kind):
    def install(monkeypatch, q):
        chosen = _chosen_code(kind, q)
        _edit_entries(monkeypatch,
                      lambda q, code, v: -v if code == chosen else v)
    return install


def _conjugate_gauss(monkeypatch, q):
    chosen = _chosen_code("gauss", q)
    _edit_entries(monkeypatch,
                  lambda q, code, v: v.conjugate() if code == chosen else v)


def _galois_twist(monkeypatch, q):
    """sigma_k: zeta -> zeta^k on every value of every row, k prime to the
    working conductor and a non-square mod q: another choice of the root
    of unity, which permutes the chi and theta rows among themselves and
    swaps xi_1 with xi_2 and eta_1 with eta_2."""
    N = working_conductor(q)
    k = next(k for k in range(2, N)
             if gcd(k, N) == 1 and not is_quadratic_residue(k, q))

    def twist(q, code, v):
        M = v.conductor
        return _make(M, _from_powers(M, ((j * k % M, c)
                                         for j, c in enumerate(v._num) if c)),
                     v._den)
    _edit_entries(monkeypatch, twist)


def _two_chi_odd_taken_once(monkeypatch, q):
    monkeypatch.setitem(realrep._SOURCE, "two_chi_odd", (("chi", 1),))


def _shift_k(shift):
    def install(monkeypatch, q):
        weights = realrep._closed_fs_weights(q)
        weights = {**weights, Z: weights[Z] + shift * 2 * q}
        monkeypatch.setattr(realrep, "_closed_fs_weights", lambda q: weights)
    return install


def _generic_column_off_by_one(monkeypatch, q):
    original = fixdim._generic_column

    def column(q, kind, g=0, odd=0):
        values = original(q, kind, g, odd)
        return {**values, "psi": values["psi"] + 1} if kind == "CH" else values
    monkeypatch.setattr(fixdim, "_generic_column", column)


def _moved_map_entry(name):
    def install(monkeypatch, q):
        moved = {**getattr(realrep, name)(q), A(1): ONE}
        for module in (realrep, verify):
            monkeypatch.setattr(module, name, lambda q: moved)
    return install


def _moved_class_size(monkeypatch, q):
    """One element moved from class c to class d in the class rows."""
    original = grp._class_rows

    def rows(q):
        step = {"c": 1, "d": -1}
        return iter([(kind, k, g, order, size + step.get(kind, 0))
                     for kind, k, g, order, size in original(q)])
    monkeypatch.setattr(grp, "_class_rows", rows)


DEFECTS = {
    "negate_int_code": _negate("int"),
    "negate_nu_code": _negate("nu"),
    "negate_gauss_code": _negate("gauss"),
    "conjugate_gauss_code": _conjugate_gauss,
    "two_chi_odd_taken_once": _two_chi_odd_taken_once,
    "fs_weight_K_plus_2q": _shift_k(1),
    "fs_weight_K_minus_2q": _shift_k(-1),
    "generic_column_off_by_one": _generic_column_off_by_one,
    "moved_square_map_entry": _moved_map_entry("square_class_map"),
    "moved_inverse_map_entry": _moved_map_entry("inverse_class_map"),
    "moved_class_size": _moved_class_size,
}

# (defect, q, the checks it fails).  Conjugation runs at q = 11 alone:
# at q = 1 mod 4 every class is real, so every value is, and conjugating
# an entry changes nothing.
CAUGHT = [
    ("negate_int_code", 11, ["orthogonality", "fs_indicators", "fixed_dims"]),
    ("negate_int_code", 13, ["orthogonality", "fs_indicators", "fixed_dims"]),
    ("negate_nu_code", 11, ["orthogonality"]),
    ("negate_nu_code", 13, ["orthogonality", "conjugation_trace"]),
    ("negate_gauss_code", 11,
     ["orthogonality", "fs_indicators", "conjugation_trace"]),
    ("negate_gauss_code", 13,
     ["orthogonality", "fs_indicators", "fixed_dims"]),
    ("conjugate_gauss_code", 11,
     ["orthogonality", "fs_indicators", "conjugation_trace"]),
    ("two_chi_odd_taken_once", 11, ["fixed_dims"]),
    ("two_chi_odd_taken_once", 13, ["fixed_dims"]),
    ("fs_weight_K_plus_2q", 11, ["fs_indicators"]),
    ("fs_weight_K_plus_2q", 13, ["fs_indicators"]),
    ("fs_weight_K_minus_2q", 11, ["fs_indicators"]),
    ("fs_weight_K_minus_2q", 13, ["fs_indicators"]),
    ("generic_column_off_by_one", 11, ["fixed_dims"]),
    ("generic_column_off_by_one", 13, ["fixed_dims"]),
    ("moved_square_map_entry", 11, ["square_inverse_maps", "fs_indicators"]),
    ("moved_square_map_entry", 13, ["square_inverse_maps", "fs_indicators"]),
    ("moved_inverse_map_entry", 11,
     ["square_inverse_maps", "real_table_rows"]),
    ("moved_inverse_map_entry", 13,
     ["square_inverse_maps", "real_table_rows"]),
    ("moved_class_size", 11,
     ["class_partition", "orthogonality", "fs_indicators"]),
    ("moved_class_size", 13,
     ["class_partition", "orthogonality", "fs_indicators"]),
]


@pytest.mark.parametrize("name, q, failing", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in CAUGHT])
def test_a_seeded_defect_fails_the_checks_named(monkeypatch, name, q, failing):
    DEFECTS[name](monkeypatch, q)
    assert _failed(q) == failing


def _with_rows(table, rows):
    """``table`` with its rows replaced by ``rows`` ({label: values})."""
    values = {v.key(): v for row in rows.values() for v in row}
    pool, index = _intern(((ch, [v.key() for v in row])
                           for ch, row in rows.items()),
                          lambda key: (values[key], None))
    return CharTable(table.q, table.epsilon, table.conductor, table.classes,
                     pool, index, table.source)


def _mixed(table, labels, M):
    """``table`` with the rows ``labels`` replaced by M times them."""
    rows = table.rows
    old = [rows[ch] for ch in labels]
    for ch, weights in zip(labels, M):
        rows[ch] = [sum(v * w for v, w in zip(cells, weights))
                    for cells in zip(*old)]
    return _with_rows(table, rows)


# M = (1/3)[[2, 2, -1], [-1, 2, 2], [2, -1, 2]], rational orthogonal and
# fixing (1, 1, 1)
_ROTATION = [[Fraction(w, 3) for w in row]
             for row in ([2, 2, -1], [-1, 2, 2], [2, -1, 2])]
# M5 = -I + (2/5)J, J all ones: rational orthogonal, fixing (1, ..., 1),
# and commuting with every permutation of the five rows
_M5 = [[Fraction(2, 5) - (i == j) for j in range(5)] for i in range(5)]


def _install_mixed(monkeypatch, q, M, chis):
    """Both tables with the chi rows of indices ``chis`` (and their real
    rows) mixed by M, patched in where verify reads them."""
    ct = _mixed(chars.complex_table(q), [Chi(i) for i in chis], M)
    rt = _mixed(realrep.real_table(q), [RChiEven(i) for i in chis], M)
    if ct == chars.complex_table(q) or rt == realrep.real_table(q):
        # not an AssertionError, so that the xfail does not absorb it
        raise RuntimeError("the mix left a table unchanged")
    monkeypatch.setattr(verify, "complex_table", lambda q: ct)
    monkeypatch.setattr(verify, "real_table", lambda q: rt)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: no check reads the class algebra, and checks 5 to 10 "
    "cannot see a rational orthogonal change of rows that keeps the "
    "degree, z, c and d columns and the index parity"))
def test_a_rotation_of_three_chi_rows_fails_a_check(monkeypatch):
    _install_mixed(monkeypatch, 23, _ROTATION, [2, 4, 6])
    assert _failed(23)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: no check reads the class algebra; M5 = -I + (2/5)J on "
    "one Galois orbit of five chi rows also commutes with the Galois "
    "action, so a closure test of the rows cannot see it either"))
def test_m5_on_five_chi_rows_fails_a_check(monkeypatch):
    _install_mixed(monkeypatch, 23, _M5, [2, 4, 6, 8, 10])
    assert _failed(23)


def _row_values(table):
    return {ch: tuple(v.key() for v in row) for ch, row in table.rows.items()}


@pytest.mark.parametrize("q", [11, 13])
def test_a_galois_twist_of_every_row_is_an_equivalent_mutant(monkeypatch, q):
    # the twisted tables are the true ones with their rows relabeled, so
    # every check must pass them
    true = [_row_values(make(q))
            for make in (chars.complex_table, realrep.real_table)]
    _galois_twist(monkeypatch, q)
    assert _failed(q) == []
    for rows, make in zip(true, (chars.complex_table, realrep.real_table)):
        twisted = _row_values(make(q))
        assert twisted != rows
        assert sorted(twisted.values()) == sorted(rows.values())
