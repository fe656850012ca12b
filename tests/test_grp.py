"""SL2(q): elements, conjugacy classes, and the class-label machinery."""
import random
from itertools import accumulate, repeat
from operator import mul

import pytest

from sl2q import grp
from sl2q.fq import is_odd_prime
from sl2q.grp import (A, B, C, D, ONE, Z, ZC, ZD, ClassLabel, GroupElem,
                      _class_indices, _class_rows, _entries,
                      _generated_ranks, _grow, _lex_tuples, _power_ranks, _rank,
                      _square_classes,
                      class_label_lookup, class_labels, class_of,
                      class_order, conjugacy_partition, element_order,
                      enumerate_group, find_b, identity, parse_class_label,
                      powers, rep_a, rep_c, rep_d, rep_z, rep_zc, rep_zd,
                      representatives)

Q_SMALL = [3, 5, 7, 11, 13]


def test_elem_requires_determinant_one():
    g = GroupElem(5, 2, 1, 1, 1)
    assert (g.a, g.b, g.c, g.d) == (2, 1, 1, 1)
    with pytest.raises(ValueError):
        GroupElem(5, 1, 0, 0, 2)
    with pytest.raises(ValueError):
        GroupElem(9, 1, 0, 0, 1)


def test_elem_group_operations():
    g = GroupElem(7, 1, 2, 3, 0)
    h = GroupElem(7, 0, 1, 6, 4)
    assert (g * h).to_tuple() == ((1 * 0 + 2 * 6) % 7, (1 * 1 + 2 * 4) % 7,
                                  (3 * 0 + 0 * 6) % 7, (3 * 1 + 0 * 4) % 7)
    assert g * g.inverse() == identity(7)
    assert g ** 0 == identity(7)
    assert g ** -2 == (g.inverse()) ** 2
    assert g ** element_order(g) == identity(7)
    assert h.conjugate_by(g) == g * h * g.inverse()
    assert g.trace == 1
    with pytest.raises(ValueError):
        g * GroupElem(5, 1, 0, 0, 1)


def test_elem_immutable_hashable():
    g = rep_c(5)
    with pytest.raises(AttributeError):
        g.a = 0
    assert len({g, rep_c(5), rep_d(5)}) == 2


def test_elem_is_the_tuple_q_a_b_c_d():
    g = GroupElem(7, 8, 2, -4, 0)
    assert hash(g) == hash((7, 1, 2, 3, 0))
    assert g == (7, 1, 2, 3, 0)
    assert g.to_tuple() == (1, 2, 3, 0) and type(g.to_tuple()) is tuple
    assert (g.q, g.a, g.b, g.c, g.d) == (7, 1, 2, 3, 0)
    assert repr(g) == "GroupElem(7, 1, 2, 3, 0)"


def test_elem_rejects_tuple_arithmetic_and_assignment():
    g, h = rep_c(7), rep_d(7)
    for op in (lambda: g + h, lambda: 3 * g, lambda: g * 3,
               lambda: g + (1,), lambda: g * (7, 1, 0)):
        with pytest.raises(TypeError):
            op()
    for name in ("q", "a", "d", "entries_cache"):
        with pytest.raises(AttributeError):
            setattr(g, name, 0)
    with pytest.raises(ValueError):
        g * GroupElem(5, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        GroupElem(5, 1, 0, 0, 1) * g


def test_product_checks_the_determinant_of_forged_operands():
    # a tuple built past the constructor, with determinant 2
    forged = tuple.__new__(GroupElem, (7, 2, 0, 0, 1))
    g = rep_c(7)
    with pytest.raises(ValueError):
        g * forged
    with pytest.raises(ValueError):
        forged * g


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_rank_and_entries_are_inverse_in_lex_order(q):
    # ranks run over range(q^3 - q) in the order _lex_tuples yields
    order = q ** 3 - q
    assert [_rank(q, g) for g in _lex_tuples(q)] == list(range(order))
    assert [_entries(q, r) for r in range(order)] == list(_lex_tuples(q))


@pytest.mark.parametrize("q", Q_SMALL + [23])
def test_closure_pass_is_the_group_closure(q):
    # _generated_ranks walks the cosets of <s> and writes g*s^k*t out as
    # additions; the closure of 1 under GroupElem products by s and t
    # marks the same ranks
    s, t = GroupElem(q, 1, 1, 0, 1), GroupElem(q, 1, 0, 1, 1)
    seen, stack = {identity(q)}, [identity(q)]
    while stack:
        g = stack.pop()
        for h in (g * s, g * t):
            if h not in seen:
                seen.add(h)
                stack.append(h)
    want = bytearray(q ** 3 - q)
    for g in seen:
        want[_rank(q, g[1:])] = 1
    assert _generated_ranks(q) == want


@pytest.mark.parametrize("q", Q_SMALL)
def test_square_pass_is_the_group_square(q):
    # _square_classes writes g^2 out entry by entry; at every rank it
    # holds the class index of the GroupElem product g * g
    index, square = _class_indices(q), _square_classes(q)
    G = enumerate_group(q)
    assert len(square) == len(G)
    for g in G:
        assert square[_rank(q, g[1:])] == index[_rank(q, (g * g)[1:])]


class _Enough(Exception):
    pass


class _FirstReads(dict):
    """Orbit marks that log the ranks read and stop at the second: the
    ranks of s g s^-1 and t g t^-1, the first element's conjugates."""

    def __getitem__(self, r):
        self.reads.append(r)
        if len(self.reads) == 2:
            raise _Enough
        return 0


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_written_out_conjugations_and_power_walk(q):
    s, t = GroupElem(q, 1, 1, 0, 1), GroupElem(q, 1, 0, 1, 1)
    for g in enumerate_group(q):
        marks = _FirstReads()
        marks.reads = []
        with pytest.raises(_Enough):
            _grow(q, marks, g[1:], 1)
        assert marks.reads == [_rank(q, (s * g * s.inverse())[1:]),
                               _rank(q, (t * g * t.inverse())[1:])]
        assert _power_ranks(q, g[1:]) == [_rank(q, h[1:]) for h in powers(g)]


def test_class_labels_shape():
    assert [str(l) for l in class_labels(5)] == [
        "1", "z", "c", "d", "zc", "zd", "a^1", "b^1", "b^2"]
    assert [str(l) for l in class_labels(3)] == [
        "1", "z", "c", "d", "zc", "zd", "b^1"]
    for q in Q_SMALL:
        assert len(class_labels(q)) == q + 4


@pytest.mark.parametrize("s", ["1", "z", "zc", "a^2", "b^11"])
def test_parse_class_label_round_trip(s):
    assert str(parse_class_label(s)) == s


def test_parse_class_label_rejects_junk():
    for s in ["e", "a", "a^", "b^x", "zz", ""]:
        with pytest.raises(ValueError):
            parse_class_label(s)


def test_enumerate_group():
    elems = enumerate_group(5)
    assert len(elems) == 120 and len(set(elems)) == 120
    assert all((g.a * g.d - g.b * g.c) % 5 == 1 for g in elems)
    assert len(enumerate_group(3)) == 24
    with pytest.raises(ValueError):
        enumerate_group(97)  # past the default enumeration bound


def test_standard_representative_orders():
    for q in Q_SMALL:
        assert element_order(identity(q)) == 1
        assert element_order(rep_z(q)) == 2
        assert element_order(rep_c(q)) == q
        assert element_order(rep_d(q)) == q
        assert element_order(rep_zc(q)) == 2 * q
        assert element_order(rep_zd(q)) == 2 * q
        assert element_order(rep_a(q)) == q - 1
        assert element_order(find_b(q)) == q + 1


def _find_b_by_element_order(q):
    """The scan as first written: the whole power list of each candidate."""
    for t in _lex_tuples(q):
        g = GroupElem(q, *t)
        if element_order(g) == q + 1:
            return g


@pytest.mark.parametrize("q", [q for q in range(3, 212) if is_odd_prime(q)])
def test_find_b_is_the_first_element_of_order_q_plus_1(q):
    assert find_b(q) == _find_b_by_element_order(q)


@pytest.mark.parametrize("q", Q_SMALL)
def test_powers_walk_from_g_to_one(q):
    for c in representatives(q):
        g = c.representative
        walk = powers(g)
        assert walk == [g ** k for k in range(1, len(walk) + 1)]
        assert walk[-1] == identity(q) and identity(q) not in walk[:-1]
        assert len(walk) == element_order(g) == class_order(q, c.label)


@pytest.mark.parametrize("q", Q_SMALL)
def test_class_sizes_and_orders(q):
    classes = representatives(q)
    assert [c.label for c in classes] == class_labels(q)
    sizes = sorted(c.size for c in classes)
    expected = sorted([1, 1] + [(q * q - 1) // 2] * 4
                      + [q * (q + 1)] * ((q - 3) // 2)
                      + [q * (q - 1)] * ((q - 1) // 2))
    assert sizes == expected
    assert sum(c.size for c in classes) == q ** 3 - q
    for c in classes:
        assert c.element_order == element_order(c.representative)
        assert class_of(c.representative) == c.label


def _classes_from_group_products(q):
    """(label, entries, order, size) of each class, the representatives
    built as GroupElem products: t, t^2, t^3, ... for t = a and b."""
    reps = [identity(q), rep_z(q), rep_c(q), rep_d(q), rep_zc(q), rep_zd(q)]
    for t, n in ((rep_a(q), (q - 3) // 2), (find_b(q), (q - 1) // 2)):
        reps += accumulate(repeat(t, n), mul)
    sizes = {"1": 1, "z": 1, "a": q * (q + 1), "b": q * (q - 1)}
    return [(label, g.to_tuple(), class_order(q, label),
             sizes.get(label.kind, (q * q - 1) // 2))
            for label, g in zip(class_labels(q), reps)]


@pytest.mark.parametrize("q", [q for q in range(3, 212) if is_odd_prime(q)]
                         + [1009])
def test_class_rows_are_the_representatives(q):
    rows = [(ClassLabel(kind, k), g, order, size)
            for kind, k, g, order, size in _class_rows(q)]
    assert rows == [(c.label, c.representative.to_tuple(), c.element_order,
                     c.size) for c in representatives(q)]
    assert rows == _classes_from_group_products(q)


def test_class_rows_check_the_determinant_of_a_forged_torus_generator(
        monkeypatch):
    # determinant 2, so the first product, t^2, has determinant 4
    forged = tuple.__new__(GroupElem, (7, 2, 0, 0, 1))
    monkeypatch.setattr(grp, "find_b", lambda q: forged)
    with pytest.raises(ValueError, match=r"determinant must be 1: "
                                         r"\(4,0,0,1\) mod 7"):
        list(_class_rows(7))


def test_class_rows_refuse_before_the_first_row():
    with pytest.raises(ValueError, match="odd prime"):
        _class_rows(9)   # not iterated: the check runs on the call


@pytest.mark.parametrize("q", [5, 7, 11])
def test_partition_agrees_with_closed_sizes(q):
    classes = conjugacy_partition(q)
    reps = {c.label: c for c in representatives(q)}
    seen = set()
    for label, members in classes.items():
        assert len(members) == reps[label].size
        assert seen.isdisjoint(members)
        seen.update(members)
    assert len(seen) == q ** 3 - q


@pytest.mark.parametrize("q", Q_SMALL)
def test_orbit_partition_equals_the_direct_expansion(q):
    # the reference: each class as h rep h^-1 for every h in G
    G = enumerate_group(q)
    direct = {cls.label: frozenset(h * cls.representative * h.inverse()
                                   for h in G)
              for cls in representatives(q)}
    assert conjugacy_partition(q) == direct


@pytest.mark.parametrize("q", Q_SMALL)
def test_s_and_t_generate_the_group(q):
    assert _generated_ranks(q) == bytearray(b"\1") * len(enumerate_group(q))


def test_partition_and_lookup_keep_the_enumeration_bound():
    messages = []
    for call in (lambda: enumerate_group(53),
                 lambda: conjugacy_partition(53),
                 lambda: class_label_lookup(53)):
        with pytest.raises(ValueError) as info:
            call()
        messages.append(str(info.value))
    assert messages == [messages[0]] * 3
    assert messages[0] == ("q=53 exceeds the enumeration bound 50; raise it "
                           "explicitly if you really want the full group "
                           "(148824 elements)")
    with pytest.raises(ValueError):
        conjugacy_partition(7, max_enum=5)
    with pytest.raises(ValueError):
        conjugacy_partition(9)


def test_class_of_central_elements():
    assert class_of(identity(7)) == ONE
    assert class_of(rep_z(7)) == Z


def test_square_of_c_depends_on_residue_of_two():
    # 2 is a square mod 7 but not mod 5, so c^2 stays in (c) at q = 7
    # and crosses to (d) at q = 5
    assert class_of(rep_c(7) * rep_c(7)) == C
    assert class_of(rep_c(5) * rep_c(5)) == D
    assert class_of(rep_zc(7) ** 2) == C
    assert class_of(rep_zd(5) ** 2) == C


def test_torus_midpoints():
    # a has order q-1, so its half-power is the involution when the
    # exponent lands there; same for b with order q+1
    assert rep_a(13) ** 6 == rep_z(13)
    assert rep_a(5) ** 2 == rep_z(5)
    assert find_b(7) ** 4 == rep_z(7)
    assert find_b(11) ** 6 == rep_z(11)


def test_inverse_power_folds_back():
    q = 13
    a = rep_a(q)
    for l in range(1, (q - 3) // 2 + 1):
        assert class_of(a ** (q - 1 - l)) == A(l)
    b = find_b(q)
    for m in range(1, (q - 1) // 2 + 1):
        assert class_of(b ** (q + 1 - m)) == B(m)


@pytest.mark.parametrize("q", [q for q in range(3, 32) if is_odd_prime(q)])
def test_class_label_lookup_matches_class_of(q):
    # the closed classifier against the orbit partition, element by
    # element; only q = 3 mod 4, where -1 is not a square, can tell the
    # upper-right entry from minus it
    lookup = class_label_lookup(q)
    assert len(lookup) == q ** 3 - q
    for g in enumerate_group(q):
        assert lookup[g] == class_of(g)


def test_class_of_past_the_enumeration_bound():
    # class_of enumerates nothing, so it classifies at any q: a conjugate
    # of each representative keeps the representative's label
    q = 1009
    rng = random.Random(16)
    conjugators = []
    while len(conjugators) < 3:
        a, b, c = (rng.randrange(q) for _ in range(3))
        if a:
            conjugators.append(GroupElem(q, a, b, c, (1 + b * c) * pow(a, -1, q)))
    for cls in representatives(q):
        for h in conjugators:
            assert class_of(cls.representative.conjugate_by(h)) == cls.label
