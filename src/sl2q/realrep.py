"""Real-representation structure of SL2(q): Frobenius-Schur indicators,
real conjugacy classes, and the table of irreducible real characters.

The indicator of each irreducible complex character chi is
    iota(chi) = |G|^{-1} sum_g chi(g^2),
computed three independent ways (a closed form, a class-grouped sum via
the square map on classes, and optionally a raw elementwise sum in the
verification module).  The trichotomy:

  * iota = 1 (orthogonal): 1, psi, chi_i and theta_j for even index,
    plus xi_1, xi_2 when q = 1 mod 4;
  * iota = -1 (quaternionic): chi_i, theta_j for odd index, plus
    eta_1, eta_2 when q = 1 mod 4;
  * iota = 0 (complex): all of xi_1, xi_2, eta_1, eta_2 when q = 3 mod 4.

Real irreducible characters are then: the orthogonal rows unchanged,
the quaternionic rows doubled, and each complex-conjugate pair summed.
Since conjugation swaps xi_1 with xi_2 (and eta_1 with eta_2) when
q = 3 mod 4, the paired rows are xi_1 + xi_2 = 2 Re xi_1 and
eta_1 + eta_2 = 2 Re eta_1.

``real_table`` therefore returns a ``chars.CharTable``: its rows are
RealCharLabels and its ``source`` records that recipe, which complex
rows each real row sums and with what multiplicity.  It is built from
the codes of ``chars._codes``, not from the complex table: a row is its
source row's codes times the multiplicity, or a pair's codes added code
by code, where a Gauss-sum pair whose roots cancel is an int code (so a
rational lands at conductor 1).  ``RealCharTable`` is another name for
``CharTable``.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .chars import CharLabel, CharTable, _codes, _intern, _summed
from .cyclo import working_conductor
from .fq import is_quadratic_residue
from .grp import (
    C, D, ONE, Z, ZC, ZD, ClassLabel, _check_enumerable, _square_classes,
    class_labels, representatives, torus_indices, torus_order,
    DEFAULT_MAX_ENUM,
)
from .labels import _Label, _Record

__all__ = [
    "RealCharLabel", "RealCharTable", "RealClassPartition",
    "square_class_map", "inverse_class_map", "real_classes",
    "fs_indicator_brute", "fs_indicator_closed", "fs_indicator_raw",
    "real_table",
    "real_char_labels", "parse_real_char_label",
    "RTRIV", "RPSI", "RXI1", "RXI2", "RTWO_ETA1", "RTWO_ETA2",
    "RTWO_RE_XI1", "RTWO_RE_ETA1",
    "RChiEven", "RTwoChiOdd", "RThetaEven", "RTwoThetaOdd",
]


# ---------------------------------------------------------------------------
# class-level square and inverse maps

def _power_class(q: int, kind: str, k: int) -> ClassLabel:
    """The class of t^k for t = a or b (``kind``) of order n; t^(n/2) = z."""
    n = torus_order(q, kind)
    k %= n
    if k == 0:
        return ONE
    if 2 * k == n:
        return Z
    return ClassLabel(kind, min(k, n - k))


@lru_cache(maxsize=8)
def square_class_map(q: int) -> dict:
    """label -> class label of g^2 for g in that class."""
    sq: dict[ClassLabel, ClassLabel] = {ONE: ONE, Z: ONE}
    # unipotent classes: g^2 has trace 2; it lands back in the class of c
    # exactly when 2 is a square mod q, otherwise in the class of d.
    two_qr = is_quadratic_residue(2, q)
    sq[C] = C if two_qr else D
    sq[D] = D if two_qr else C
    sq[ZC] = sq[C]
    sq[ZD] = sq[D]
    sq |= {lab: _power_class(q, lab.kind, 2 * lab.index)
           for lab in class_labels(q) if lab.kind in ("a", "b")}
    return sq


@lru_cache(maxsize=8)
def inverse_class_map(q: int) -> dict:
    """label -> class label of g^{-1}.

    Every class is inverse-closed except that c, d (and zc, zd) swap
    when q = 3 mod 4, because -1 is then a non-residue.
    """
    inv = {lab: lab for lab in class_labels(q)}
    if q % 4 == 3:
        inv[C], inv[D] = D, C
        inv[ZC], inv[ZD] = ZD, ZC
    return inv


class RealClassPartition(_Record):
    """Orbits of the inversion map on classes, as frozensets in table order."""
    __slots__ = _FIELDS = ("q", "blocks")

    @property
    def count(self) -> int:
        return len(self.blocks)


@lru_cache(maxsize=8)
def real_classes(q: int) -> RealClassPartition:
    inv = inverse_class_map(q)
    seen: set[ClassLabel] = set()
    blocks = []
    for lab in class_labels(q):
        if lab in seen:
            continue
        block = frozenset({lab, inv[lab]})
        seen |= block
        blocks.append(block)
    return RealClassPartition(q, tuple(blocks))


# ---------------------------------------------------------------------------
# Frobenius-Schur indicators

# (id(table), id(weights)) -> (table, weights, {row: class sum}); an entry
# holds both objects, so neither id is reused while it lives
_TOTALS: dict = {}
_TOTALS_MAX = 8


def _indicator(table: CharTable, char: CharLabel, weights: dict) -> int:
    """The indicator of ``char``: its class sum over ``weights`` divided
    by |G|.  The first call for a (table, weight map) sums every row at
    once (``CharTable.class_sums``), and the other rows read the totals
    it keeps."""
    key = id(table), id(weights)
    hit = _TOTALS.get(key)
    if hit is None:
        if len(_TOTALS) >= _TOTALS_MAX:
            _TOTALS.clear()
        hit = _TOTALS[key] = (
            table, weights, dict(zip(table.chars, table.class_sums(weights))))
    q = table.q
    v = (hit[2][char] / (q ** 3 - q)).as_rational()
    if v is None or v.denominator != 1 or v not in (-1, 0, 1):
        raise ValueError(f"indicator came out as {v!r}, expected -1, 0 or 1")
    return int(v)


@lru_cache(maxsize=8)
def _square_class_counts(q: int) -> dict:
    """How many g have g^2 in each class, summed class by class through
    the square map."""
    sq = square_class_map(q)
    counts = Counter()
    for cls in representatives(q):
        counts[sq[cls.label]] += cls.size
    return dict(counts)


def fs_indicator_brute(table: CharTable, char: CharLabel) -> int:
    """Indicator via the square map on classes:
    sum over classes of |class| * chi(square of the class)."""
    return _indicator(table, char, _square_class_counts(table.q))


@lru_cache(maxsize=8)
def _square_label_counts(q: int):
    """How many g in G have g^2 in each class, by the orbit partition."""
    counts = Counter(_square_classes(q))
    labels = class_labels(q)
    return {labels[i]: n for i, n in counts.items()}


def fs_indicator_raw(table: CharTable, char: CharLabel,
                     max_enum: int = DEFAULT_MAX_ENUM) -> int:
    """Ground-truth indicator: sum of chi(g^2) over every group element,
    classified through the brute-force orbit partition."""
    _check_enumerable(table.q, max_enum)
    return _indicator(table, char, _square_label_counts(table.q))


def fs_indicator_closed(table: CharTable, char: CharLabel) -> int:
    """Closed-form indicator.

    Grouping the elementwise sum by the square-map fibres gives
      iota = (2 chi(1) + K chi(z) + (q^2-1)(chi(c) + chi(d))
              + 2q(q+1) sum_{l<= (q-3)/4} chi(a^{2l})
              + 2q(q-1) sum_{m<= (q-1)/4} chi(b^{2m})) / (q^3 - q)
    with K = q^2+q for q = 1 mod 4 and K = q^2-q for q = 3 mod 4.
    """
    return _indicator(table, char, _closed_fs_weights(table.q))


@lru_cache(maxsize=8)
def _closed_fs_weights(q: int) -> dict:
    """The closed form's weight on each class, as ``fs_indicator_closed``
    states it."""
    K = q * q + q if q % 4 == 1 else q * q - q
    weights = {ONE: 2, Z: K, C: q * q - 1, D: q * q - 1}
    for kind, weight in (("a", 2 * q * (q + 1)), ("b", 2 * q * (q - 1))):
        for k in torus_indices(q, kind)[1::2]:   # the even indices
            weights[ClassLabel(kind, k)] = weight
    return weights


# ---------------------------------------------------------------------------
# real character labels

class RealCharLabel(_Label):
    """Row name in the real table; a chi/theta kind carries the index of
    its complex character, even on chi_i, theta_j and odd on 2chi_i, 2theta_j."""
    __slots__ = ()
    _NAMES = {
        "triv": ("1", r"\mathbf{{1}}", None), "psi": ("psi", r"\psi", None),
        "chi_even": ("chi_{}", r"\chi_{{{}}}", 2),
        "two_chi_odd": ("2chi_{}", r"2\chi_{{{}}}", 1),
        "theta_even": ("theta_{}", r"\theta_{{{}}}", 2),
        "two_theta_odd": ("2theta_{}", r"2\theta_{{{}}}", 1),
        "xi1": ("xi_1", r"\xi_{{1}}", None), "xi2": ("xi_2", r"\xi_{{2}}", None),
        "two_eta1": ("2eta_1", r"2\eta_{{1}}", None),
        "two_eta2": ("2eta_2", r"2\eta_{{2}}", None),
        "two_re_xi1": ("2Re(xi_1)", r"2\mathrm{{Re}}\,\xi_{{1}}", None),
        "two_re_eta1": ("2Re(eta_1)", r"2\mathrm{{Re}}\,\eta_{{1}}", None),
    }
    _STEP = 2


RTRIV = RealCharLabel("triv")
RPSI = RealCharLabel("psi")
RXI1 = RealCharLabel("xi1")
RXI2 = RealCharLabel("xi2")
RTWO_ETA1 = RealCharLabel("two_eta1")
RTWO_ETA2 = RealCharLabel("two_eta2")
RTWO_RE_XI1 = RealCharLabel("two_re_xi1")
RTWO_RE_ETA1 = RealCharLabel("two_re_eta1")
parse_real_char_label = RealCharLabel.parse


def RChiEven(i: int) -> RealCharLabel:
    return RealCharLabel("chi_even", i)


def RTwoChiOdd(i: int) -> RealCharLabel:
    return RealCharLabel("two_chi_odd", i)


def RThetaEven(j: int) -> RealCharLabel:
    return RealCharLabel("theta_even", j)


def RTwoThetaOdd(j: int) -> RealCharLabel:
    return RealCharLabel("two_theta_odd", j)


def real_char_labels(q: int) -> list[RealCharLabel]:
    """Row labels of the real table, in table order."""
    ls, ms = torus_indices(q, "a"), torus_indices(q, "b")
    # even indices are [1::2] of a range from 1, odd ones [::2]
    rows = [RTRIV, RPSI, *map(RChiEven, ls[1::2]), *map(RTwoChiOdd, ls[::2]),
            *map(RThetaEven, ms[1::2]), *map(RTwoThetaOdd, ms[::2])]
    if q % 4 == 1:
        rows += [RXI1, RXI2, RTWO_ETA1, RTWO_ETA2]
    else:
        rows += [RTWO_RE_XI1, RTWO_RE_ETA1]
    return rows


# ---------------------------------------------------------------------------

# Kept as a name: ``RealCharTable`` is in ``sl2q.__all__``, and callers
# load real tables through ``RealCharTable.from_json``.
RealCharTable = CharTable

# real row kind -> (complex row kind, multiplicity) pairs it sums; the
# chi and theta rows carry the real label's index over
_SOURCE = {
    "triv": (("1", 1),), "psi": (("psi", 1),),
    "chi_even": (("chi", 1),), "two_chi_odd": (("chi", 2),),
    "theta_even": (("theta", 1),), "two_theta_odd": (("theta", 2),),
    "xi1": (("xi1", 1),), "xi2": (("xi2", 1),),
    "two_eta1": (("eta1", 2),), "two_eta2": (("eta2", 2),),
    "two_re_xi1": (("xi1", 1), ("xi2", 1)),
    "two_re_eta1": (("eta1", 1), ("eta2", 1)),
}


@lru_cache(maxsize=8)
def real_table(q: int) -> CharTable:
    codes, entry = _codes(q)
    labels = real_char_labels(q)
    # each real row = sum of complex rows with multiplicity
    recipe = {lab: tuple((CharLabel(kind, lab.index), mult)
                         for kind, mult in _SOURCE[lab.kind])
              for lab in labels}

    def row(terms):
        """A row's codes: its source row times its multiplicity, or the
        two rows of a pair added code by code."""
        if len(terms) == 1:
            return codes(*terms[0])
        return list(map(_summed, *(codes(*t) for t in terms)))

    pool, index = _intern(((lab, row(recipe[lab])) for lab in labels), entry)
    return CharTable(q, 1 if q % 4 == 1 else -1, working_conductor(q),
                     representatives(q), pool, index, recipe)
