"""The complex irreducible character table of SL2(q), exactly.

Rows (the classical table, see Dornhoff, Group Representation Theory,
Thm 38.1): the trivial character, the Steinberg character psi of degree
q, principal-series chi_i of degree q+1, discrete-series theta_j of
degree q-1, and the four half-degree characters xi_1, xi_2 (degree
(q+1)/2) and eta_1, eta_2 (degree (q-1)/2).

Every value is an exact CycNum kept at its natural conductor: 1 for a
rational, q-1 for chi_i on the a-classes, q+1 for theta_j on the
b-classes, q for the Gauss-sum values of xi and eta (in
Q(sqrt(eps*q)) inside Q(zeta_q)).  The table's ``conductor`` is the
working conductor N = lcm(q, q-1, q+1) that holds them all; a value is
embedded there only where the csv approximation columns read it (the
csv renderer of ``cli``, once per pool entry), so arithmetic at degree
phi(N) happens for that format alone.  JSON writes each value at its
natural conductor.

The zc/zd columns follow from the central character of z:
chi(zc) = chi(z)/chi(1) * chi(c), and chi(z)/chi(1) is always +-1.

The xi_1 / xi_2 (and eta_1 / eta_2) labels are a gauge: they swap under
the other choice of square root of eps*q.  We pin the gauge by defining
xi_1 as the row whose value at class c is (1 + g)/2 with g the quadratic
Gauss sum.

Each cell also carries a small symbolic form (a tagged tuple) used by
the text and LaTeX renderers; the exact CycNum is the value of record.
Both renderers are one cell grammar (``_render``) spelled per format.
The (q+4)^2 cells hold about q distinct (value, cell) entries.  Both
tables name each entry by one code of ints (a rational by its integer,
k*nu(r, s) by k, r and its folded exponent, a Gauss-sum cell by its two
coefficients): ``_codes`` gives the codes of any row times an int k,
row by row on demand, and builds each entry once, on first use, from
its code.  ``_intern`` keeps each once in the table's ``pool``, in order
of first occurrence (the order of the text legend), a row is an array of
pool indices, and every reader of a table works once per entry.

``CharTable`` is the table type of both the complex table built here
and the real table of ``realrep``, whose rows are sums of complex rows
with other row labels and a ``source`` recipe (which complex rows each
real row sums).  ``CharTable.from_json`` loads either.
"""
from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .cyclo import (
    CycNum, _raw, dot, nu, rational, sqrt_eps_q, working_conductor,
)
from .fq import is_odd_prime
from .grp import (
    ONE, ClassLabel, ConjClass, GroupElem, representatives, torus_indices,
)
from .labels import _Label

__all__ = [
    "CharLabel", "CharTable", "complex_table",
    "TRIV", "PSI", "XI1", "XI2", "ETA1", "ETA2", "Chi", "Theta",
    "char_labels", "parse_char_label",
]


class CharLabel(_Label):
    """Row name: one of 1, psi, chi_i, theta_j, xi_1, xi_2, eta_1, eta_2."""
    __slots__ = ()
    _NAMES = {
        "1": ("1", r"\mathbf{{1}}", None), "psi": ("psi", r"\psi", None),
        "chi": ("chi_{}", r"\chi_{{{}}}", 1),
        "theta": ("theta_{}", r"\theta_{{{}}}", 1),
        "xi1": ("xi_1", r"\xi_{{1}}", None), "xi2": ("xi_2", r"\xi_{{2}}", None),
        "eta1": ("eta_1", r"\eta_{{1}}", None), "eta2": ("eta_2", r"\eta_{{2}}", None),
    }


TRIV = CharLabel("1")
PSI = CharLabel("psi")
XI1 = CharLabel("xi1")
XI2 = CharLabel("xi2")
ETA1 = CharLabel("eta1")
ETA2 = CharLabel("eta2")
parse_char_label = CharLabel.parse


def Chi(i: int) -> CharLabel:
    return CharLabel("chi", i)


def Theta(j: int) -> CharLabel:
    return CharLabel("theta", j)


def char_labels(q: int) -> list[CharLabel]:
    """All q+4 row labels in table order."""
    return ([TRIV, PSI]
            + [Chi(i) for i in torus_indices(q, "a")]
            + [Theta(j) for j in torus_indices(q, "b")]
            + [XI1, XI2, ETA1, ETA2])


# ---------------------------------------------------------------------------
# symbolic cells: ("rat", Fraction) | ("nu", coef, r, s) | ("gauss", a, b, D)
# where ("gauss", a, b, D) means a + b*sqrt(D), all coefficients Fraction.

class _CellFormat(NamedTuple):
    """What the text and LaTeX cell grammars spell differently."""
    rat: Callable[[Fraction], str]
    nu: Callable[[int, int], str]
    root: Callable[[int], str]
    mul: str
    half: Callable[[str], str]


def _frac_tex(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    s = "-" if v < 0 else ""
    return f"{s}\\tfrac{{{abs(v.numerator)}}}{{{v.denominator}}}"


_TEXT = _CellFormat(str, "nu({},{})".format, "sqrt({})".format, "*",
                    "({})/2".format)
_LATEX = _CellFormat(_frac_tex, "\\nu_{{{}}}^{{{}}}".format,
                     "\\sqrt{{{}}}".format, "", "\\tfrac{{{}}}{{2}}".format)


def _term(head: str, coef, atom: str, fmt: _CellFormat) -> str:
    """``head`` followed by coef*atom; a unit coefficient is written bare."""
    if coef == 1:
        return f"{head}+{atom}" if head else atom
    if coef == -1:
        return f"{head}-{atom}"
    sign = "+" if coef > 0 and head else ""
    return f"{head}{sign}{fmt.rat(coef)}{fmt.mul}{atom}"


def _render(sym: tuple, fmt: _CellFormat) -> str:
    tag = sym[0]
    if tag == "rat":
        return fmt.rat(sym[1])
    if tag == "nu":
        coef, r, s = sym[1], sym[2], sym[3]
        return "0" if coef == 0 else _term("", coef, fmt.nu(r, s), fmt)
    if tag == "gauss":
        a, b, disc = sym[1], sym[2], sym[3]
        if b == 0:
            return fmt.rat(a)
        root = fmt.root(disc)
        if a.denominator == 2 and b.denominator == 2:
            na, nb = a.numerator, b.numerator
            return fmt.half(_term(fmt.rat(na) if na else "", nb, root, fmt))
        return _term(fmt.rat(a) if a else "", b, root, fmt)
    raise ValueError(f"bad symbolic cell {sym!r}")


def sym_str(sym: tuple) -> str:
    """Stable text mini-grammar: "3", "-1/2", "2*nu(14,3)", "(1+sqrt(5))/2",
    "-1+sqrt(-7)" and the like."""
    return _render(sym, _TEXT)


def sym_latex(sym: tuple) -> str:
    """The same cell in LaTeX: "\\tfrac{1+\\sqrt{5}}{2}", "-2\\nu_{8}^{1}"."""
    return _render(sym, _LATEX)


# ---------------------------------------------------------------------------

_ONE = rational(1)   # the y of each class-sum term w * x * y


# The one JSON schema sl2q writes and reads: every document carries it
# as "schema", and each exact value sits at its natural conductor.
JSON_SCHEMA = 2


def _json_schema(obj: dict, what: str) -> None:
    """Refuse a document whose "schema" is not ``JSON_SCHEMA``."""
    schema = obj.get("schema")
    # the type test, because JSON true and 2.0 compare equal to 1 and 2
    if type(schema) is not int or schema != JSON_SCHEMA:
        raise ValueError(f"unknown {what} schema {schema!r}; "
                         f"only schema {JSON_SCHEMA} can be read")


def _intern(rows, entry) -> tuple[tuple, dict]:
    """(pool, {row label: array('I') of pool indices}) from (row label,
    sequence of codes) pairs, where ``entry(code)`` is the (value, cell)
    a hashable code names.  ``entry`` and ``CycNum.key`` run once per
    distinct code; the pool holds each distinct (value.key(), cell) once,
    in order of first occurrence row by row."""
    pool, found, at, index = [], {}, {}, {}
    for label, codes in rows:
        for code in dict.fromkeys(codes):
            if code not in at:
                value, cell = entry(code)
                i = at[code] = found.setdefault((value.key(), cell), len(pool))
                if i == len(pool):
                    pool.append((value, cell))
        index[label] = array("I", map(at.__getitem__, codes))
    return tuple(pool), index


class CharTable:
    """Exact character table: columns ClassLabel, rows character labels.

    ``pool`` holds each distinct (value, display cell) entry once
    (``_intern``), and ``index`` maps each row label to an array('I') of
    pool indices in class order (the order of ``classes``).  Each value is
    a CycNum at its natural conductor, a divisor of ``conductor``.  The
    cell is None on tables rebuilt from JSON; the exact values are the
    record.  ``rows`` and ``cells`` are read-only views, built anew from
    the pool on each read.  The complex table has CharLabel rows and
    ``source`` None.  The real table (see ``realrep.real_table``) has
    RealCharLabel rows, and ``source`` maps each of them to the
    (CharLabel, multiplicity) pairs it is the sum of.
    """

    def __init__(self, q: int, epsilon: int, conductor: int,
                 classes: tuple[ConjClass, ...], pool: tuple, index: dict,
                 source: dict | None = None):
        self.q = q
        self.epsilon = epsilon
        self.conductor = conductor
        self.classes = classes
        self.chars = tuple(index)
        self.pool = pool
        self.index = index
        self.source = source
        self.class_order = [cls.label for cls in classes]
        self._column = {lab: i for i, lab in enumerate(self.class_order)}

    def by_row(self, column):
        """(row label, tuple of ``column[i]`` for the row's pool indices i
        in class order) for each row; ``column`` has an item per entry."""
        return ((ch, tuple(map(column.__getitem__, idx)))
                for ch, idx in self.index.items())

    def _view(self, part: int) -> dict:
        return dict(self.by_row([entry[part] for entry in self.pool]))

    @property
    def rows(self) -> dict:
        """{row: its values in class order}."""
        return self._view(0)

    @property
    def cells(self) -> dict | None:
        """{row: its display cells in class order}; None from JSON."""
        return None if self.pool[0][1] is None else self._view(1)

    def value(self, char, label: ClassLabel) -> CycNum:
        return self.pool[self.index[char][self._column[label]]][0]

    def cell(self, char, label: ClassLabel) -> tuple:
        """The display cell of ``value(char, label)``."""
        return self.pool[self.index[char][self._column[label]]][1]

    def degree(self, char) -> int:
        return self.value(char, ONE).as_integer()

    def class_sum(self, char, counts: dict) -> CycNum:
        """Sum of count * chi(label) over a {ClassLabel: count} map (0 for
        an empty map), reduced once (``cyclo.dot``)."""
        pool, row, column = self.pool, self.index[char], self._column
        return dot((pool[row[column[lab]]][0], _ONE, cnt)
                   for lab, cnt in counts.items())

    def class_sums(self, counts: dict) -> tuple:
        """``class_sum`` of every row over one {ClassLabel: count} map, in
        row order; the labels are mapped to columns once, not per row."""
        values = [v for v, _ in self.pool]
        weights = [(self._column[lab], cnt) for lab, cnt in counts.items()]
        return tuple(dot((values[row[c]], _ONE, cnt) for c, cnt in weights)
                     for row in self.index.values())

    def size(self, label: ClassLabel) -> int:
        return self.classes[self._column[label]].size

    def to_json(self) -> dict:
        """The table as a JSON document, each value at its own conductor;
        each pool entry is written once and shared by its cells."""
        names = [str(lab) for lab in self.class_order]

        def by_name(column):
            return {str(ch): dict(zip(names, row))
                    for ch, row in self.by_row(column)}
        obj = {
            "schema": JSON_SCHEMA,
            "q": self.q,
            "epsilon": self.epsilon,
            "conductor": self.conductor,
            "classes": [
                {"label": name,
                 "representative": list(c.representative.to_tuple()),
                 "size": c.size, "order": c.element_order}
                for name, c in zip(names, self.classes)
            ],
            "chars": [str(ch) for ch in self.chars],
            "values": by_name([v.to_json() for v, _ in self.pool]),
            "symbolic": None if self.pool[0][1] is None else
            by_name([sym_str(cell) for _, cell in self.pool]),
        }
        if self.source is not None:
            obj["source"] = {str(ch): [[str(c), m] for c, m in self.source[ch]]
                             for ch in self.chars}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "CharTable":
        """Load either table from ``to_json``'s document; a "source" entry
        marks the real one.  Each value is at its own conductor, a divisor
        of ``conductor``, and each distinct value is parsed once.
        """
        from .realrep import RealCharLabel
        _json_schema(obj, "character table")
        q = obj["q"]
        classes = tuple(
            ConjClass(ClassLabel.parse(c["label"]),
                      GroupElem(q, *c["representative"]),
                      c["size"], c["order"])
            for c in obj["classes"])
        names = [str(c.label) for c in classes]
        source = obj.get("source")
        row_label = CharLabel if source is None else RealCharLabel
        chars = tuple(map(row_label.parse, obj["chars"]))
        N = obj["conductor"]

        def entry(code):
            v = CycNum(*code)
            if N % v.conductor:
                raise ValueError(f"a value has conductor {v.conductor}, which "
                                 f"does not divide the table's {N}")
            return v, None
        pool, index = _intern((
            (ch, [(v["conductor"], tuple(v["coeffs"])) for v in
                  map(obj["values"][str(ch)].__getitem__, names)])
            for ch in chars), entry)
        if source is not None:
            source = {ch: tuple((CharLabel.parse(c), m)
                                for c, m in source[str(ch)])
                      for ch in chars}
        return cls(q, obj["epsilon"], N, classes, pool, index, source)

    def __eq__(self, other):
        if not isinstance(other, CharTable):
            return NotImplemented
        return (self.q == other.q and self.epsilon == other.epsilon
                and self.conductor == other.conductor
                and self.classes == other.classes
                and self.chars == other.chars
                and self.source == other.source
                and self._view(0) == other._view(0))


# ---------------------------------------------------------------------------

def _folded_exponents(r: int, i: int, n: int) -> list[int]:
    """min(s, r - s) for s = i*l mod r, l = 1, ..., n: where nu(r, i*l)
    sits in a list of codes by folded exponent, stepped along a row
    (0 < i < r)."""
    out, s = [], 0
    for _ in range(n):
        s += i
        if s >= r:
            s -= r
        out.append(s if 2 * s <= r else r - s)
    return out


# Every entry of either table is named by a code of ints: an int n is the
# rational n (each rational of both tables is an integer, q being odd);
# ("gauss", a, b) is (a + b*g)/2 with g the quadratic Gauss sum; and
# ("nu", k, r, s) is k*nu(r, s), r = q-1 or q+1, at a folded exponent s.

def _scaled(code, k: int):
    """The code of k times the entry ``code``."""
    if type(code) is int:
        return k * code
    if code[0] == "gauss":
        return "gauss", k * code[1], k * code[2]
    return "nu", k * code[1], code[2], code[3]


def _summed(x, y):
    """The code of the sum of two int entries or two Gauss-sum entries;
    a sum whose roots cancel is an int (the real table's sums are)."""
    if type(x) is int:
        return x + y
    a, b = x[1] + y[1], x[2] + y[2]
    return a // 2 if b == 0 else ("gauss", a, b)


def _codes(q: int):
    """(codes, entry) for the tables of SL2(q).

    ``codes(char, k)`` is the list of the codes of k times the complex row
    ``char`` in class order, made on demand; ``entry(code)`` is the
    (value, display cell) any code of either table names.  Each nu(r, s)
    is built once, and each row's sources (its nu codes, signs and c/d
    cells) are scaled once, not cell by cell.
    """
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    eps = 1 if q % 4 == 1 else -1
    gauss = sqrt_eps_q(q)
    na, nb = len(torus_indices(q, "a")), len(torus_indices(q, "b"))
    # (r, s) -> (sign*nu(r, s), sign) for an irrational one, with the sign
    # it has in the complex table: nu(q-1, s) on chi_i, -nu(q+1, s) on theta_j
    nus = {}

    def nu_codes(r, sign):
        """The code of sign*nu(r, s) for each folded exponent 0 <= s <= r/2;
        a rational one is its int (nu is an algebraic integer)."""
        codes = []
        for s in range(r // 2 + 1):
            v = nu(r, s) if sign > 0 else -nu(r, s)
            if v._is_rational():
                codes.append(v._num[0])
            else:
                nus[r, s] = v, sign
                codes.append(("nu", sign, r, s))
        return codes
    nu_scaled = {(q - 1, 1): nu_codes(q - 1, 1),
                 (q + 1, 1): nu_codes(q + 1, -1)}

    def nu_row(r, k, i, n):
        """k times the complex row's nu codes at exponents i*l, l = 1, ...,
        n; the codes of r are scaled by k once per table."""
        if (r, k) not in nu_scaled:
            nu_scaled[r, k] = [_scaled(c, k) for c in nu_scaled[r, 1]]
        codes = nu_scaled[r, k]
        return [codes[s] for s in _folded_exponents(r, i, n)]

    def codes(char: CharLabel, k: int = 1) -> tuple:
        kind, i = char.kind, char.index
        # chi(1) = deg, chi(z) = sign*deg, chi(c), chi(d), and the a- and
        # b-columns already times k
        if kind == "1":
            deg, sign, c, d, a_row, b_row = 1, 1, 1, 1, [k] * na, [k] * nb
        elif kind == "psi":
            deg, sign, c, d, a_row, b_row = q, 1, 0, 0, [k] * na, [-k] * nb
        elif kind == "chi":
            deg, sign, c, d = q + 1, (-1) ** i, 1, 1
            a_row, b_row = nu_row(q - 1, k, i, na), [0] * nb
        elif kind == "theta":
            deg, sign, c, d = q - 1, (-1) ** i, -1, -1
            a_row, b_row = [0] * na, nu_row(q + 1, k, i, nb)
        elif kind in ("xi1", "xi2"):
            g = 1 if kind == "xi1" else -1
            deg, sign = (q + 1) // 2, eps
            c, d = ("gauss", 1, g), ("gauss", 1, -g)
            # (-1)^l on the a-classes
            a_row = [(k, -k)[l % 2] for l in range(1, na + 1)]
            b_row = [0] * nb
        else:
            g = 1 if kind == "eta1" else -1
            deg, sign = (q - 1) // 2, -eps
            c, d = ("gauss", -1, g), ("gauss", -1, -g)
            # -(-1)^m on the b-classes
            a_row = [0] * na
            b_row = [(-k, k)[m % 2] for m in range(1, nb + 1)]
        # the zc/zd columns are the c/d columns times the sign
        return (k * deg, k * sign * deg, _scaled(c, k), _scaled(d, k),
                _scaled(c, k * sign), _scaled(d, k * sign), *a_row, *b_row)

    def entry(code):
        if type(code) is int:
            return _raw(1, (code,), 1), ("rat", Fraction(code))
        if code[0] == "nu":
            _, k, r, s = code
            v, sign = nus[r, s]
            return v * (k * sign), ("nu", Fraction(k), r, s)
        _, a, b = code
        return (gauss * b + a) / 2, ("gauss", Fraction(a, 2), Fraction(b, 2),
                                     eps * q)

    return codes, entry


@lru_cache(maxsize=8)
def complex_table(q: int) -> CharTable:
    # each row names its (value, display cell) entries by codes, and
    # ``_intern`` builds each distinct entry once, from its code, in order
    # of first occurrence
    codes, entry = _codes(q)
    pool, index = _intern(((ch, codes(ch)) for ch in char_labels(q)), entry)
    return CharTable(q, 1 if q % 4 == 1 else -1, working_conductor(q),
                     representatives(q), pool, index)
