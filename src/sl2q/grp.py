"""Concrete SL2(q): matrices, enumeration, orders and conjugacy classes.

The class representatives are the standard system

    1, z = -1, c = [[1,0],[1,1]], d = [[1,0],[nu,1]], zc, zd,
    a^l (a = diag(nu, nu^-1), 1 <= l <= (q-3)/2),
    b^m (b an element of order q+1,   1 <= m <= (q-1)/2),

nu the smallest primitive root mod q.  That gives q+4 classes with sizes
1, 1, (q^2-1)/2 (four times), q(q+1) per a-class and q(q-1) per b-class.

Two gauges are involved and both are harmless: any generator nu works
(we fix the smallest), and any element of order q+1 works as b (we fix
the first in a lexicographic scan of matrix entries); changing either
permutes the a-/b-class labels coherently, and every quantity checked
against brute force is invariant under that relabeling.

A group element is a ``GroupElem``: an immutable tuple ``(q, a, b, c, d)``
with its entries reduced mod q.  It compares and hashes as that plain
tuple, so ``GroupElem(7, 1, 2, 3, 0) == (7, 1, 2, 3, 0)``.  A product
builds its result directly, without the constructor's primality check,
but still checks the determinant.  The brute-force oracle works on plain
``(a, b, c, d)`` tuples instead and keys its |G|-sized arrays by rank
(see "the brute-force oracle on rank-coded elements" below).
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from math import gcd
from operator import itemgetter

from .fq import (
    _prime_factors, inverse, is_odd_prime, is_quadratic_residue,
    primitive_root,
)
from .labels import _Label, _Record

__all__ = [
    "GroupElem", "ClassLabel", "ConjClass",
    "ONE", "Z", "C", "D", "ZC", "ZD", "A", "B",
    "identity", "rep_z", "rep_c", "rep_d", "rep_zc", "rep_zd", "rep_a",
    "find_b", "powers", "element_order", "torus_order", "torus_indices",
    "class_order", "enumerate_group", "representatives",
    "class_of", "conjugacy_partition", "class_label_lookup",
    "parse_class_label", "DEFAULT_MAX_ENUM",
]

DEFAULT_MAX_ENUM = 50


_new_tuple = tuple.__new__


class GroupElem(tuple):
    """A 2x2 matrix over F_q with determinant 1, rows (a b / c d).

    Stored as the tuple ``(q, a, b, c, d)`` with entries reduced mod q,
    so equality and hashing are tuple's: ``g == (q, a, b, c, d)`` and
    ``hash(g) == hash((q, a, b, c, d))``.  Tuple arithmetic, which means
    nothing for a matrix, raises TypeError.

    >>> g = GroupElem(7, 1, 2, 3, 0)
    >>> g * g.inverse() == identity(7)
    True
    >>> g.to_tuple()
    (1, 2, 3, 0)
    """

    __slots__ = ()

    def __new__(cls, q: int, a: int, b: int, c: int, d: int):
        if not is_odd_prime(q):
            raise ValueError(f"q must be an odd prime, got {q}")
        a %= q; b %= q; c %= q; d %= q
        if (a * d - b * c) % q != 1:
            raise ValueError(f"determinant must be 1: ({a},{b},{c},{d}) mod {q}")
        return _new_tuple(cls, (q, a, b, c, d))

    def __getnewargs__(self):   # pickle and copy rebuild through __new__
        return tuple(self)

    q = property(itemgetter(0))
    a = property(itemgetter(1))
    b = property(itemgetter(2))
    c = property(itemgetter(3))
    d = property(itemgetter(4))

    def _not_a_matrix_op(self, other):
        raise TypeError(f"unsupported operand for GroupElem: "
                        f"{type(other).__name__}")

    # g + h and 3 * g would be tuple concatenation and repetition
    __add__ = __radd__ = __rmul__ = _not_a_matrix_op

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        if type(other) is not GroupElem:
            self._not_a_matrix_op(other)
        # the determinant check still catches an operand forged past the
        # constructor
        q, a, b, c, d = self
        p, e, f, g, h = other
        if p != q:
            raise ValueError(f"mixed moduli {q} and {p}")
        w = (a * e + b * g) % q
        x = (a * f + b * h) % q
        y = (c * e + d * g) % q
        z = (c * f + d * h) % q
        if (w * z - x * y) % q != 1:
            raise ValueError(f"determinant must be 1: ({w},{x},{y},{z}) mod {q}")
        return _new_tuple(GroupElem, (q, w, x, y, z))

    def inverse(self) -> "GroupElem":
        q, a, b, c, d = self
        return _new_tuple(GroupElem, (q, d, -b % q, -c % q, a))

    def __pow__(self, n: int) -> "GroupElem":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = identity(self.q)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate_by(self, h: "GroupElem") -> "GroupElem":
        return h * self * h.inverse()

    @property
    def trace(self) -> int:
        q, a, _, _, d = self
        return (a + d) % q

    def to_tuple(self) -> tuple[int, int, int, int]:
        return self[1:]

    def __repr__(self):
        return f"GroupElem({self.q}, {self.a}, {self.b}, {self.c}, {self.d})"


class ClassLabel(_Label):
    """Conjugacy-class name: one of 1, z, c, d, zc, zd, a^l, b^m."""
    __slots__ = ()
    _NAMES = {k: (k, k, None) for k in ("1", "z", "c", "d", "zc", "zd")} | {
        "a": ("a^{}", "a^{{{}}}", 1), "b": ("b^{}", "b^{{{}}}", 1)}


ONE = ClassLabel("1")
Z = ClassLabel("z")
C = ClassLabel("c")
D = ClassLabel("d")
ZC = ClassLabel("zc")
ZD = ClassLabel("zd")
parse_class_label = ClassLabel.parse


def A(l: int) -> ClassLabel:
    return ClassLabel("a", l)


def B(m: int) -> ClassLabel:
    return ClassLabel("b", m)


def torus_order(q: int, kind: str) -> int:
    """The order of the torus generator a (kind "a") or b (kind "b")."""
    return q - 1 if kind == "a" else q + 1


def torus_indices(q: int, kind: str) -> range:
    """The k of the classes t^k, 0 < k < n/2 for t = a or b of order n;
    chi_k, theta_k, their real rows and AH(k), BH(k) take the same k.

    >>> torus_indices(7, "a"), torus_indices(7, "b")
    (range(1, 3), range(1, 4))
    """
    return range(1, torus_order(q, kind) // 2)


def class_labels(q: int) -> list[ClassLabel]:
    """All q+4 labels, in table order."""
    return [ONE, Z, C, D, ZC, ZD] + [ClassLabel(kind, k) for kind in "ab"
                                     for k in torus_indices(q, kind)]


class ConjClass(_Record):
    __slots__ = _FIELDS = ("label", "representative", "size", "element_order")


# ---------------------------------------------------------------------------
# fixed elements

def identity(q: int) -> GroupElem:
    return GroupElem(q, 1, 0, 0, 1)


def rep_z(q: int) -> GroupElem:
    return GroupElem(q, -1, 0, 0, -1)


def rep_c(q: int) -> GroupElem:
    return GroupElem(q, 1, 0, 1, 1)


def rep_d(q: int) -> GroupElem:
    return GroupElem(q, 1, 0, primitive_root(q), 1)


def rep_zc(q: int) -> GroupElem:
    return rep_z(q) * rep_c(q)


def rep_zd(q: int) -> GroupElem:
    return rep_z(q) * rep_d(q)


def rep_a(q: int) -> GroupElem:
    nu = primitive_root(q)
    return GroupElem(q, nu, 0, 0, inverse(nu, q))


def powers(g: GroupElem) -> list[GroupElem]:
    """g, g^2, ..., g^n = 1: the elements of <g>, n the order of g."""
    one = identity(g.q)
    walk = [g]
    while walk[-1] != one:
        walk.append(walk[-1] * g)
    return walk


def element_order(g: GroupElem) -> int:
    return len(powers(g))


def class_order(q: int, label: ClassLabel) -> int:
    """The order of every element of the class ``label``, in closed form:
    |a^l| = (q-1)/gcd(q-1, l) and |b^m| = (q+1)/gcd(q+1, m)."""
    return _class_order(q, label.kind, label.index)


def _class_order(q: int, kind: str, index: int) -> int:
    """``class_order`` of the label (kind, index), without building it."""
    if kind in ("a", "b"):
        n = torus_order(q, kind)
        return n // gcd(n, index)
    return {"1": 1, "z": 2, "c": q, "d": q, "zc": 2 * q, "zd": 2 * q}[kind]


def _lex_tuples(q: int):
    """All determinant-1 tuples (a,b,c,d), ascending lexicographically."""
    inv = [0] * q
    for x in range(1, q):
        inv[x] = pow(x, -1, q)
    for a in range(q):
        if a == 0:
            # bc = -1, d free
            for b in range(1, q):
                c = (-inv[b]) % q
                for d in range(q):
                    yield (0, b, c, d)
        else:
            inv_a = inv[a]
            for b in range(q):
                for c in range(q):
                    yield (a, b, c, (1 + b * c) * inv_a % q)


def _check_enumerable(q: int, max_enum: int) -> None:
    """Raise ValueError unless q is an odd prime within the enumeration bound."""
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    if q > max_enum:
        raise ValueError(
            f"q={q} exceeds the enumeration bound {max_enum}; "
            f"raise it explicitly if you really want the full group "
            f"({q ** 3 - q} elements)")


def _cached_on_q(build):
    """``build(q)`` behind an lru_cache keyed on q alone.

    The function returned takes ``(q, max_enum=DEFAULT_MAX_ENUM)`` and
    checks q against the bound on every call, outside the cache, so
    ``f(7)``, ``f(7, 50)`` and ``f(q=7)`` share one entry.  It carries the
    cache's ``cache_info``, ``cache_clear`` and ``cache_parameters``.
    """
    cached = lru_cache(maxsize=8)(build)

    def call(q: int, max_enum: int = DEFAULT_MAX_ENUM):
        _check_enumerable(q, max_enum)
        return cached(q)

    call.__name__, call.__qualname__ = build.__name__, build.__qualname__
    call.__doc__ = build.__doc__
    call.cache_info = cached.cache_info
    call.cache_clear = cached.cache_clear
    call.cache_parameters = cached.cache_parameters
    return call


@_cached_on_q
def enumerate_group(q: int) -> tuple[GroupElem, ...]:
    """Every element of SL2(q), exactly once, in a fixed deterministic order."""
    return tuple(GroupElem(q, *t) for t in _lex_tuples(q))


@lru_cache(maxsize=8)
def find_b(q: int) -> GroupElem:
    """First element of order q+1 in the lexicographic scan.

    The scan is lazy, so this works far beyond the enumeration bound.
    g has order n = q+1 exactly when g^n = 1 and g^(n/p) != 1 for every
    prime p dividing n, a few dozen products per candidate.
    """
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    n, one = q + 1, identity(q)
    cofactors = [n // p for p in _prime_factors(n)]
    for t in _lex_tuples(q):
        g = GroupElem(q, *t)
        if g ** n == one and all(g ** k != one for k in cofactors):
            return g
    raise AssertionError(f"no element of order {q + 1} in SL2({q})")  # unreachable


def _class_size(q: int, kind: str) -> int:
    """The size of each class of the kind: 1 for 1 and z, (q^2-1)/2 for
    c, d, zc and zd, q(q+1) per a-class and q(q-1) per b-class."""
    return {"1": 1, "z": 1, "a": q * (q + 1),
            "b": q * (q - 1)}.get(kind, (q * q - 1) // 2)


def _class_rows(q: int):
    """The q+4 conjugacy classes in table order, as ints: an iterator of
    ``(kind, index, (a, b, c, d), order, size)``.

    q is checked and the torus generators are found here, before the
    iterator is returned, so a refusal or a MemoryError comes before any
    row.  The classes t^k of a torus generator t are t, t^2, t^3, ...,
    one product per class written out on ints, each with the determinant
    check of ``GroupElem.__mul__``, and counted in ``_tuple_products`` once
    a torus is written out.
    """
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    nu = primitive_root(q)
    tori = (("a", (nu, 0, 0, inverse(nu, q))), ("b", find_b(q)[1:]))
    return _stream_rows(q, nu, tori)


def _stream_rows(q: int, nu: int, tori):
    """``_class_rows`` past its checks."""
    z = q - 1
    for kind, g in (("1", (1, 0, 0, 1)), ("z", (z, 0, 0, z)),
                    ("c", (1, 0, 1, 1)), ("d", (1, 0, nu, 1)),
                    ("zc", (z, 0, z, z)), ("zd", (z, 0, q - nu, z))):
        yield kind, 0, g, _class_order(q, kind, 0), _class_size(q, kind)
    for kind, t in tori:
        size = _class_size(q, kind)
        e, f, g, h = a, b, c, d = t
        ks = torus_indices(q, kind)
        for k in ks:
            if k > 1:
                a, b, c, d = ((a * e + b * g) % q, (a * f + b * h) % q,
                              (c * e + d * g) % q, (c * f + d * h) % q)
                if (a * d - b * c) % q != 1:
                    raise ValueError(
                        f"determinant must be 1: ({a},{b},{c},{d}) mod {q}")
            yield kind, k, (a, b, c, d), _class_order(q, kind, k), size
        _tuple_products[0] += max(len(ks) - 1, 0)


@lru_cache(maxsize=8)
def representatives(q: int) -> tuple[ConjClass, ...]:
    """The q+4 conjugacy classes: label, representative, size, element order.

    One ``ConjClass`` per row of ``_class_rows``, whose sizes and orders
    are the classical closed forms (orders from ``class_order``); the
    verification suite checks both against the orbits and against
    ``element_order`` of each representative.
    """
    return tuple(ConjClass(ClassLabel(kind, k), _elem(q, g), size, order)
                 for kind, k, g, order, size in _class_rows(q))


# ---------------------------------------------------------------------------
# classification

@lru_cache(maxsize=8)
def _trace_labels(q: int) -> dict:
    """Trace -> label of the a- and b-classes, each pinned down by its
    trace alone: eigenvalue pairs are distinct across the two families."""
    return {cls.representative.trace: cls.label
            for cls in representatives(q) if cls.label.kind in ("a", "b")}


def class_of(g: GroupElem) -> ClassLabel:
    """The label of the conjugacy class containing g, in closed form."""
    q = g.q
    if g.b == 0 and g.c == 0:
        if g.a == 1:
            return ONE
        if g.a == q - 1:
            return Z
    t = g.trace
    if t == 2 or t == q - 2:
        # u = g or z*g is unipotent and not 1.  It is conjugate to c exactly
        # when its lower-left entry is a nonzero square; when that entry is
        # 0, u = [[1, b], [0, 1]] is conjugate to [[1, 0], [-b, 1]], so -b
        # decides.  Diagonal conjugation scales both entries by squares
        # (Dornhoff §38; Bonnafé, Representations of SL2(F_q), ch. 1).
        u = g if t == 2 else rep_z(q) * g
        is_c = is_quadratic_residue(u.c if u.c else -u.b, q)
        return (C if is_c else D) if t == 2 else (ZC if is_c else ZD)
    label = _trace_labels(q).get(t)
    if label is None:  # every non-central trace belongs to exactly one family
        raise AssertionError(f"unclassifiable trace {t} mod {q}")
    # consistency: split classes have square discriminant, non-split don't
    disc = (t * t - 4) % q
    assert is_quadratic_residue(disc, q) == (label.kind == "a")
    return label


# ---------------------------------------------------------------------------
# the brute-force oracle on rank-coded elements
#
# The oracle works on plain (a, b, c, d) tuples, trusted to have
# determinant 1, and indexes every |G|-sized container by the rank of an
# element in the _lex_tuples order.  s = [[1,1],[0,1]] and t = [[1,0],[1,1]]
# generate SL2(Z), which maps onto SL2(q); the verification suite
# confirms it by closure.

_FREE = 0xFFFF   # the class index of a rank no orbit has reached

# products made on tuples, added in bulk by each pass (a per-product
# increment would cost a tenth of the product); the budget tests read it
_tuple_products = [0]


def _rank(q: int, g: tuple) -> int:
    """(b-1)q + d when a = 0, q(q-1) + ((a-1)q + b)q + c otherwise."""
    a, b, c, d = g
    return (a * q + b) * q + (c if a else d) - q


def _entries(q: int, r: int) -> tuple:
    """The element of rank r, as (a, b, c, d)."""
    ab, x = divmod(r + q, q)
    a, b = divmod(ab, q)
    if a:
        return a, b, x, (1 + b * x) * pow(a, -1, q) % q
    return 0, b, -pow(b, -1, q) % q, x


def _elem(q: int, g: tuple) -> GroupElem:
    """The GroupElem of a trusted tuple."""
    return _new_tuple(GroupElem, (q, *g))


# The passes below run once per group element, so each writes its
# products and ranks out inline (``_rank`` is the formula they repeat)
# and calls no helper per element or per product, but for the class
# orbits' one ``_conjugates`` call per element.

def _power_ranks(q: int, g: tuple) -> list[int]:
    """The ranks of g, g^2, ..., g^n = 1, n the order of g."""
    e, f, x, y = a, b, c, d = g
    r, one = (a * q + b) * q + (c if a else d) - q, q * q - q
    walk = [r]
    while r != one:
        a, b, c, d = ((a * e + b * x) % q, (a * f + b * y) % q,
                      (c * e + d * x) % q, (c * f + d * y) % q)
        r = (a * q + b) * q + (c if a else d) - q
        walk.append(r)
    _tuple_products[0] += len(walk) - 1
    return walk


def _conjugates(q: int, g: tuple) -> tuple:
    """s g s^-1 and t g t^-1, written out entry by entry."""
    a, b, c, d = g
    return (((a + c) % q, (b + d - a - c) % q, c, (d - c) % q),
            ((a - b) % q, b, (a + c - b - d) % q, (b + d) % q))


def _grow(q: int, marks, g: tuple, mark: int) -> int:
    """Set ``marks`` to ``mark`` at the rank of each element of the orbit
    of g under conjugation by s and t (``_conjugates``); the orbit's size.
    Each element met is conjugated once (the standard orbit algorithm);
    an orbit does not depend on visit order, so a list is the stack.  In
    a finite group, closure under conjugation by the generators is
    closure under conjugation by the group they generate."""
    a, b, c, d = g
    marks[(a * q + b) * q + (c if a else d) - q] = mark
    stack, size = [g], 1
    push, pop = stack.append, stack.pop
    while stack:
        for h in _conjugates(q, pop()):
            a, b, c, d = h
            r = (a * q + b) * q + (c if a else d) - q
            if marks[r] != mark:
                marks[r] = mark
                push(h)
                size += 1
    return size


def _generated_ranks(q: int) -> bytearray:
    """The subgroup generated by s and t, marked by rank: the closure of 1
    under right multiplication by each, two products per element, written
    out as additions: g s = (a, a+b, c, c+d) and g t = (a+b, b, c+d, d).
    A closure does not depend on visit order, so a list is the stack."""
    seen = bytearray(q ** 3 - q)
    seen[q * q - q] = 1   # the rank of 1
    stack, size = [(1, 0, 0, 1)], 1
    push, pop = stack.append, stack.pop
    while stack:
        a, b, c, d = pop()
        ab, cd = (a + b) % q, (c + d) % q
        r = (a * q + ab) * q + (c if a else cd) - q   # g s
        if not seen[r]:
            seen[r] = 1
            push((a, ab, c, cd))
            size += 1
        r = (ab * q + b) * q + (cd if ab else d) - q   # g t
        if not seen[r]:
            seen[r] = 1
            push((ab, b, cd, d))
            size += 1
    _tuple_products[0] += 2 * size
    return seen


@lru_cache(maxsize=8)
def _class_indices(q: int) -> array:
    """The index in ``representatives(q)`` of the class of each rank
    (_FREE where no orbit reaches).

    Each class is the orbit of its representative under conjugation by s
    and t, four products per member; an orbit whose representative an
    earlier orbit holds stays empty.
    """
    cls = array("H", [_FREE]) * (q ** 3 - q)
    for i, rep in enumerate(representatives(q)):
        g = rep.representative[1:]
        if cls[_rank(q, g)] == _FREE:
            _tuple_products[0] += 4 * _grow(q, cls, g, i)
    return cls


@lru_cache(maxsize=8)
def _square_classes(q: int) -> array:
    """``_class_indices`` of g^2, by the rank of g: one pass of squares,
    g^2 = (a^2 + bc, b(a+d), c(a+d), d^2 + bc)."""
    index = _class_indices(q)
    out = array("H", bytes(2 * (q ** 3 - q)))
    for r, (a, b, c, d) in enumerate(_lex_tuples(q)):
        bc, t = b * c, a + d
        x = (a * a + bc) % q
        out[r] = index[(x * q + b * t % q) * q - q
                       + (c * t % q if x else (d * d + bc) % q)]
    _tuple_products[0] += len(out)
    return out


@_cached_on_q
def conjugacy_partition(q: int):
    """Orbit partition {label: frozenset of elements}, built from the
    class of each rank; G itself is never built here."""
    reps = representatives(q)
    orbits = [[] for _ in reps]
    for i, g in zip(_class_indices(q), _lex_tuples(q)):
        if i != _FREE:
            orbits[i].append(_elem(q, g))
    return {cls.label: frozenset(orbit) for cls, orbit in zip(reps, orbits)}


@_cached_on_q
def class_label_lookup(q: int):
    """Element -> label map derived from the brute-force partition."""
    # the caller's bound was checked already; q itself passes for any q
    return {g: label
            for label, orbit in conjugacy_partition(q, q).items()
            for g in orbit}
