"""Fixed-point dimensions dim V^H for real irreducible V and cyclic H.

Every cyclic subgroup of SL2(q) is generated by (a conjugate of) one of
the class representatives, so the subgroup kinds are

    TrivialH, ZH = <z>, CH = <c> (also covers <d>), ZCH = <zc> (also
    <zd>), AH(l) = <a^l>, BH(m) = <b^m>.

dim V^H = (1/|H|) sum_{h in H} chi_V(h) has a closed form in every
case.  For the torus subgroups the answer depends on
gamma = gcd(q-1, l) (resp. delta = gcd(q+1, m)), on whether the
quotient (q-1)/gamma (resp. (q+1)/delta) is odd or even, and - for the
chi and theta rows - on whether that quotient divides the character
index (the resonance correction, see ``_closed_column``); in the even case
the xi and 2Re(eta_1) rows additionally see the parity of l (resp. m).
The closed forms were fixed against the averaging oracle, one average
per class profile (``_averages``, shared by ``full_report`` and check 10
of ``verify_all``); ``full_report`` records any mismatch, never fixes it.

A note on one entry: for psi on an odd-quotient AH(l) the averaged
value is gcd(q-1, l) + 1; classical write-ups sometimes carry
gcd(q-1, l) for the same quantity.  The oracle decides (+1 is correct).
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from math import gcd

from .fq import is_odd_prime
from .grp import (
    GroupElem, _class_order, class_of, find_b, identity, powers, rep_a,
    rep_c, rep_z, rep_zc, torus_indices, DEFAULT_MAX_ENUM,
)
from .chars import CharTable, _json_schema
from .labels import _Label, _Record
from .realrep import RealCharLabel, real_char_labels, real_table

__all__ = [
    "SubgroupKey", "SubgroupDesc", "FixedDimTable",
    "TRIVIAL_H", "Z_H", "C_H", "ZC_H", "AH", "BH",
    "subgroup", "subgroup_keys", "subgroup_key_of", "parse_subgroup_key",
    "fixed_dim_average", "fixed_dim_closed", "full_report",
]


class SubgroupKey(_Label):
    """Canonical name of a cyclic subgroup up to conjugacy."""
    __slots__ = ()
    _NAMES = {
        "TrivialH": ("TrivialH", r"\{{1\}}", None),
        "ZH": ("ZH", r"\langle z\rangle", None),
        "CH": ("CH", r"\langle c\rangle", None),
        "ZCH": ("ZCH", r"\langle zc\rangle", None),
        "AH": ("AH({})", r"\langle a^{{{}}}\rangle", 1),
        "BH": ("BH({})", r"\langle b^{{{}}}\rangle", 1),
    }


TRIVIAL_H = SubgroupKey("TrivialH")
Z_H = SubgroupKey("ZH")
C_H = SubgroupKey("CH")
ZC_H = SubgroupKey("ZCH")
parse_subgroup_key = SubgroupKey.parse


def AH(l: int) -> SubgroupKey:
    return SubgroupKey("AH", l)


def BH(m: int) -> SubgroupKey:
    return SubgroupKey("BH", m)


def _as_key(kind, index: int = 0) -> SubgroupKey:
    if isinstance(kind, SubgroupKey):
        if index and index != kind.index:
            raise ValueError("conflicting subgroup index")
        return kind
    return SubgroupKey(kind, index)


# subgroup kind -> the class kind of its standard generator, and the
# function that makes the element that generator is a power of
_GENERATOR = {"TrivialH": ("1", identity), "ZH": ("z", rep_z),
              "CH": ("c", rep_c), "ZCH": ("zc", rep_zc),
              "AH": ("a", rep_a), "BH": ("b", find_b)}

# class kind of a generator -> subgroup kind; <c> is the whole unipotent
# subgroup, so <d> = <c>, and likewise <zd> = <zc>
_SUBGROUP_OF_CLASS = ({cls: kind for kind, (cls, _) in _GENERATOR.items()}
                      | {"d": "CH", "zd": "ZCH"})


def subgroup_keys(q: int) -> list[SubgroupKey]:
    """All subgroup kinds/indices for SL2(q), in report order: one per
    class of standard generators, so d and zd give none."""
    return [TRIVIAL_H, Z_H, C_H, ZC_H, *map(AH, torus_indices(q, "a")),
            *map(BH, torus_indices(q, "b"))]


def _check_key_range(q: int, key: SubgroupKey) -> None:
    torus = _GENERATOR[key.kind][0]
    if torus in ("a", "b") and key.index not in torus_indices(q, torus):
        raise ValueError(f"{key.kind} index {key.index} out of range for q={q}")


class SubgroupDesc(_Record):
    """A concrete cyclic subgroup: generator g and its powers g, ..., 1."""
    __slots__ = _FIELDS = ("q", "key", "order", "generator", "elements")

    def __str__(self):
        return f"{self.key} (order {self.order}) in SL2({self.q})"


def _closed_order(q: int, key: SubgroupKey) -> int:
    return _class_order(q, _GENERATOR[key.kind][0], key.index)


def subgroup(q: int, kind, index: int = 0) -> SubgroupDesc:
    """Build the named cyclic subgroup from its standard generator."""
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    key = _as_key(kind, index)
    _check_key_range(q, key)
    g = _GENERATOR[key.kind][1](q)
    if key.index:
        g = g ** key.index
    elements = powers(g)
    assert len(elements) == _closed_order(q, key)
    return SubgroupDesc(q, key, len(elements), g, tuple(elements))


def subgroup_key_of(g: GroupElem) -> SubgroupKey:
    """Canonical kind/index of <g>, via the class of the generator."""
    lab = class_of(g)
    return SubgroupKey(_SUBGROUP_OF_CLASS[lab.kind], lab.index)


# ---------------------------------------------------------------------------
# closed forms

def _signature(q: int, key: SubgroupKey) -> tuple:
    """All that ``key``'s closed column depends on: its kind, and on a
    torus AH(l) (BH(m)) also gamma = gcd(q-1, l) (delta = gcd(q+1, m)) and
    the parity of the index.  The parity only matters when the quotient
    (q-1)/gamma ((q+1)/delta) is even: an odd quotient makes gamma
    (delta) even, and the index with it."""
    if key.kind == "AH":
        return "AH", gcd(q - 1, key.index), key.index % 2
    if key.kind == "BH":
        return "BH", gcd(q + 1, key.index), key.index % 2
    return key.kind, 0, 0


def _generic_column(q: int, kind: str, g: int = 0, odd: int = 0) -> dict:
    """The generic closed value of each real row kind on a subgroup of
    signature (kind, g, odd) (``_signature``)."""
    if kind == "TrivialH":
        return {"triv": 1, "psi": q, "chi_even": q + 1, "two_chi_odd": 2 * q + 2,
                "theta_even": q - 1, "two_theta_odd": 2 * q - 2,
                "xi1": (q + 1) // 2, "xi2": (q + 1) // 2,
                "two_eta1": q - 1, "two_eta2": q - 1,
                "two_re_xi1": q + 1, "two_re_eta1": q - 1}
    if kind == "ZH":
        return {"triv": 1, "psi": q, "chi_even": q + 1, "two_chi_odd": 0,
                "theta_even": q - 1, "two_theta_odd": 0,
                "xi1": (q + 1) // 2, "xi2": (q + 1) // 2,
                "two_eta1": 0, "two_eta2": 0,
                "two_re_xi1": 0, "two_re_eta1": q - 1}
    if kind == "CH":
        return {"triv": 1, "psi": 1, "chi_even": 2, "two_chi_odd": 4,
                "theta_even": 0, "two_theta_odd": 0,
                "xi1": 1, "xi2": 1, "two_eta1": 0, "two_eta2": 0,
                "two_re_xi1": 2, "two_re_eta1": 0}
    if kind == "ZCH":
        return {"triv": 1, "psi": 1, "chi_even": 2, "two_chi_odd": 0,
                "theta_even": 0, "two_theta_odd": 0,
                "xi1": 1, "xi2": 1, "two_eta1": 0, "two_eta2": 0,
                "two_re_xi1": 0, "two_re_eta1": 0}
    if kind == "AH":
        if ((q - 1) // g) % 2 == 1:
            # odd quotient: -1 is not a power of a^l
            return {"triv": 1, "psi": g + 1, "chi_even": g, "two_chi_odd": 2 * g,
                    "theta_even": g, "two_theta_odd": 2 * g,
                    "xi1": g // 2 + 1, "xi2": g // 2 + 1,
                    "two_eta1": g, "two_eta2": g,
                    "two_re_xi1": g + 2, "two_re_eta1": g}
        # even quotient: z is a power of a^l; xi sees the parity of l
        xi = g if odd else g + 1
        return {"triv": 1, "psi": 2 * g + 1, "chi_even": 2 * g, "two_chi_odd": 0,
                "theta_even": 2 * g, "two_theta_odd": 0,
                "xi1": xi, "xi2": xi, "two_eta1": 0, "two_eta2": 0,
                "two_re_xi1": 0, "two_re_eta1": 2 * g}
    # BH, with g = delta = gcd(q+1, m)
    if ((q + 1) // g) % 2 == 1:
        return {"triv": 1, "psi": g - 1, "chi_even": g, "two_chi_odd": 2 * g,
                "theta_even": g, "two_theta_odd": 2 * g,
                "xi1": g // 2, "xi2": g // 2,
                "two_eta1": g - 2, "two_eta2": g - 2,
                "two_re_xi1": g, "two_re_eta1": g - 2}
    re_eta = 2 * g if odd else 2 * g - 2
    return {"triv": 1, "psi": 2 * g - 1, "chi_even": 2 * g, "two_chi_odd": 0,
            "theta_even": 2 * g, "two_theta_odd": 0,
            "xi1": g, "xi2": g, "two_eta1": 0, "two_eta2": 0,
            "two_re_xi1": 0, "two_re_eta1": re_eta}


# real row kind -> (the torus subgroup kind it resonates on, its correction)
_RESONANT = {"chi_even": ("AH", 2), "two_chi_odd": ("AH", 4),
             "theta_even": ("BH", -2), "two_theta_odd": ("BH", -4)}


@lru_cache(maxsize=8)
def _rows(q: int) -> tuple[dict, dict, tuple]:
    """The real characters of SL2(q): each one's position in
    ``real_char_labels(q)``, each row kind's (position, index) pairs, and
    every row's kind in table order."""
    positions = {char: ci for ci, char in enumerate(real_char_labels(q))}
    by_kind = {}
    for char, ci in positions.items():
        by_kind.setdefault(char.kind, []).append((ci, char.index))
    return positions, by_kind, tuple(char.kind for char in positions)


@lru_cache(maxsize=8)
def _closed_column(q: int, kind: str, g: int = 0,
                   odd: int = 0) -> tuple[tuple, tuple]:
    """dim V^H for every real row V in table order, and the positions of
    the rows the resonance correction moved, on every subgroup H of
    signature (kind, g, odd) (``_signature``): keys of one signature have
    one column.

    The correction is a boundary effect on torus restrictions of chi and
    theta.  Restricting chi_i to AH(l), the eigenvalue-character sum over
    the subgroup is a geometric sum that collapses to |H| instead of 0
    exactly when n = (q-1)/gcd(q-1,l) divides i; each of the two
    eigenvalue lines then contributes a full fixed vector, adding 2 to
    the generic dimension (4 on a doubled row).  Dually theta_j on
    BH(m) LOSES 2 (or 4) when n = (q+1)/gcd(q+1,m) divides j, the sign
    coming from theta's minus on the torus values.  The generic-case
    tables in the literature omit this; the smallest instances are
    theta_4 on BH(3) at q = 11 and chi_4 on AH(3) at q = 13, and the
    averaging oracle confirms the corrected values.  n, the order of H,
    is a function of g, so the signature covers the correction too.
    """
    _, by_kind, kinds = _rows(q)
    values = list(map(_generic_column(q, kind, g, odd).__getitem__, kinds))
    moved = []
    for row_kind, (torus, shift) in _RESONANT.items():
        if torus != kind:
            continue
        n = (q - 1 if torus == "AH" else q + 1) // g
        for ci, index in by_kind.get(row_kind, ()):
            if index % n == 0:
                # an even n cannot divide the odd index of a doubled odd row
                assert n % 2 or not row_kind.startswith("two_")
                values[ci] += shift
                moved.append(ci)
    assert min(values) >= 0
    return tuple(values), tuple(moved)


def _key_column(q: int, key: SubgroupKey) -> tuple:
    """The closed column of ``key``, a valid subgroup key of SL2(q)."""
    return _closed_column(q, *_signature(q, key))[0]


def fixed_dim_closed(q: int, char: RealCharLabel, kind, index: int = 0) -> int:
    """Closed-form dim V^H; raises on a (char, q) or (kind, q) mismatch."""
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    ci = _rows(q)[0].get(char)
    if ci is None:
        raise ValueError(f"{char} is not a real character of SL2({q})")
    key = _as_key(kind, index)
    _check_key_range(q, key)
    return _key_column(q, key)[ci]


def _profile(counts: dict) -> frozenset:
    """A subgroup's class profile: its (class label, element count) pairs."""
    return frozenset(counts.items())


def _degrees(rt: CharTable) -> list[int]:
    """Every row's degree, in row order: read once per table."""
    return [rt.degree(ch) for ch in rt.chars]


def _averages(rt: CharTable, degrees: list, counts: dict, memo: dict) -> tuple:
    """Every row's exact average over a subgroup of class counts ``counts``,
    in row order, made once per class profile and kept in ``memo``; raises
    unless each is an integer from 0 to its row's degree (``degrees``).

    A total is num/den over the power basis, so its average is an integer
    exactly when the numerators past index 0 are zero and den * n divides
    numerator 0; a Fraction is built only to word the error."""
    profile = _profile(counts)
    if profile not in memo:
        n = sum(counts.values())
        avgs = []
        for ch, deg, total in zip(rt.chars, degrees, rt.class_sums(counts)):
            num = total._num
            v, rest = divmod(num[0], total._den * n)
            if rest or not 0 <= v <= deg or any(num[1:]):
                raise ValueError(f"average of {ch} over a subgroup of order "
                                 f"{n} is {(total / n).as_rational()!r}, not "
                                 f"an integer in [0, deg]")
            avgs.append(v)
        memo[profile] = tuple(avgs)
    return memo[profile]


def fixed_dim_average(rt: CharTable, H: SubgroupDesc) -> dict:
    """Oracle: {char: (1/|H|) sum of char over H} for every row of ``rt``,
    exactly, from one count of the classes of H's elements."""
    return dict(zip(rt.chars, _averages(
        rt, _degrees(rt), Counter(map(class_of, H.elements)), {})))


# ---------------------------------------------------------------------------
# report

class FixedDimTable:
    """All fixed-point dimensions for one q, closed form vs oracle.

    ``closed[j][i]`` is dim V^H for V = ``chars[i]`` and H = ``keys[j]``:
    one int tuple per subgroup key, and from ``full_report`` the same
    tuple object for every key of one closed-form signature, so the
    distinct columns are a few dozen, not one per key.  ``oracle`` has the
    same shape, or is None when q exceeded the enumeration bound.  Whether
    an entry matches is derived from the two, never stored.
    """

    def __init__(self, q: int, chars, keys, closed, oracle, notes):
        self.q = q
        self.chars = tuple(chars)
        self.keys = tuple(keys)
        self.closed = tuple(map(tuple, closed))
        self.oracle = None if oracle is None else tuple(map(tuple, oracle))
        self.notes = tuple(notes)

    def rows(self):
        """(char, closed row, oracle row) in table order; past the
        enumeration bound the oracle row is all None."""
        oracle = (repeat((None,) * len(self.keys)) if self.oracle is None
                  else zip(*self.oracle))
        return zip(self.chars, zip(*self.closed), oracle)

    @property
    def all_match(self) -> bool:
        return self.oracle is None or self.oracle == self.closed

    def to_json(self, lazy: bool = False) -> dict:
        """The table as a JSON document (schema 2): the subgroup keys once,
        then one row per character with its closed and oracle values in
        key order; a row's ``oracle`` is null past the enumeration bound.
        With ``lazy``, "rows" is a generator, to encode row by row."""
        rows = ({"char": str(c), "closed": list(closed),
                 "oracle": None if self.oracle is None else list(oracle)}
                for c, closed, oracle in self.rows())
        return {
            "schema": 2,
            "q": self.q,
            "subgroups": [{"key": str(k), "order": _closed_order(self.q, k)}
                          for k in self.keys],
            "rows": rows if lazy else list(rows),
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FixedDimTable":
        """Load a document of schema 2 (``to_json``) or of schema 1, which
        has no "schema" key and one {"closed", "oracle", "match"} dict per
        entry under "entries"."""
        names = [d["key"] for d in obj["subgroups"]]
        if _json_schema(obj, "fixed-point table") == 1:
            chars = obj["chars"]
            rows = [obj["entries"][s] for s in chars]
            columns = [[row[name] for row in rows] for name in names]
            for e in chain.from_iterable(columns):
                if e["match"] is not (None if e["oracle"] is None
                                      else e["closed"] == e["oracle"]):
                    raise ValueError(f"entry {e} has a match that disagrees "
                                     f"with its closed and oracle values")
            closed = [[e["closed"] for e in column] for column in columns]
            oracle = [[e["oracle"] for e in column] for column in columns]
            missing = {o is None for column in oracle for o in column}
        else:
            rows = obj["rows"]
            for row in rows:
                lengths = {len(row["closed"])}
                if row["oracle"] is not None:
                    lengths.add(len(row["oracle"]))
                if lengths != {len(names)}:
                    raise ValueError(f"row {row['char']} does not have one "
                                     f"entry per subgroup ({len(names)})")
            chars = [row["char"] for row in rows]
            closed = list(zip(*(row["closed"] for row in rows)))
            oracles = [row["oracle"] for row in rows]
            missing = {o is None for o in oracles}
            oracle = None if True in missing else list(zip(*oracles))
        if len(missing) > 1:
            raise ValueError("the oracle mixes null and non-null entries")
        return cls(obj["q"], map(RealCharLabel.parse, chars),
                   map(SubgroupKey.parse, names), closed,
                   None if True in missing else oracle, obj["notes"])

    def __eq__(self, other):
        if not isinstance(other, FixedDimTable):
            return NotImplemented
        return vars(self) == vars(other)


def full_report(q: int, max_enum: int = DEFAULT_MAX_ENUM) -> FixedDimTable:
    """Closed-form table, with the oracle column when q <= max_enum.

    Mismatches are recorded in the table, never patched over.
    """
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    chars = tuple(_rows(q)[0])   # real_char_labels(q), from the row map
    keys = subgroup_keys(q)
    rt = real_table(q) if q <= max_enum else None
    degrees = None if rt is None else _degrees(rt)

    closed = []
    oracle = None if rt is None else []
    columns = {}   # signature -> closed column; keys of a signature share it
    memo = {}   # class profile -> oracle column; most keys share one
    resonant = []   # (char position, key position) of corrected entries
    for ki, key in enumerate(keys):
        signature = _signature(q, key)
        if signature not in columns:
            columns[signature] = _closed_column(q, *signature)
        values, moved = columns[signature]
        closed.append(values)
        resonant += zip(moved, repeat(ki))
        if rt is not None:   # rt's rows are in the order of chars
            counts = Counter(map(class_of, subgroup(q, key).elements))
            oracle.append(_averages(rt, degrees, counts, memo))
    notes = []
    if any(kind == "AH" and (q - 1) // g % 2 for kind, g, _ in columns):
        notes.append(
            "psi on odd-quotient AH(l): the averaged value is "
            "gcd(q-1,l)+1; some classical write-ups carry gcd(q-1,l) "
            "for the same quantity, which the oracle rules out.")
    if resonant:
        resonant.sort()   # the note lists them in table order, rows first
        shown = ", ".join(f"({chars[ci]}, {keys[ki]})" for ci, ki in resonant[:4])
        notes.append(
            f"resonant torus entries at {shown}"
            f"{' and more' if len(resonant) > 4 else ''}: when the "
            f"subgroup order divides the character index, chi rows gain "
            f"2 (doubled rows 4) and theta rows lose 2 (doubled rows 4) "
            f"relative to the generic closed form; the oracle confirms "
            f"the corrected values.")
    return FixedDimTable(q, chars, keys, closed, oracle, notes)
