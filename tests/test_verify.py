"""The self-verification suite on small q."""
import json
import os
from array import array
from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import gcd
import subprocess
import sys
from pathlib import Path

import pytest

import sl2q
from sl2q.chars import CharTable, complex_table
from sl2q.cyclo import dot
from sl2q.fixdim import subgroup_key_of
from sl2q.grp import (C, ZC, ZD, ConjClass, _class_indices, class_label_lookup,
                      element_order, enumerate_group, powers, rep_zc, rep_zd,
                      representatives)
from sl2q.verify import (VerificationReport, _fail_list, _UNWALKED,
                         _profile_key_pairs, _walk_subgroups, verify_all)

CHECK_NAMES = [
    "group_order", "class_partition", "unique_involution",
    "square_inverse_maps", "orthogonality", "degree_sum", "fs_indicators",
    "conjugation_trace", "real_table_rows", "fixed_dims",
    "order_2q_subgroups",
]


@pytest.mark.parametrize("q", [3, 5])
def test_everything_passes(q):
    report = verify_all(q)
    assert report.q == q
    assert report.overall
    assert [c.name for c in report.checks] == CHECK_NAMES
    for c in report.checks:
        assert c.passed, f"{c.name}: {c.details}"


def test_report_json_schema_and_round_trip():
    report = verify_all(3)
    obj = report.to_json()
    assert set(obj) == {"schema", "q", "checks", "overall"}
    assert obj["schema"] == 2 and obj["q"] == 3 and obj["overall"] is True
    for entry in obj["checks"]:
        assert set(entry) == {"name", "pass", "details"}
        assert isinstance(entry["details"], str)
    clone = VerificationReport.from_json(obj)
    assert clone.to_json() == obj


def test_report_text_rendering():
    text = verify_all(3).to_text()
    assert text.splitlines()[0] == "verification of SL2(3)"
    assert text.count("[PASS]") == len(CHECK_NAMES)
    assert "[FAIL]" not in text


def test_enumeration_bound_is_enforced():
    with pytest.raises(ValueError):
        verify_all(97)
    with pytest.raises(ValueError):
        verify_all(7, max_enum=5)


def test_rejects_non_prime():
    with pytest.raises(ValueError):
        verify_all(9)


# verify_all(q).to_text() as written before the group layer was reworked;
# every check detail must stay byte-stable
GOLDEN_TEXT = {
    5: "\n".join([
        'verification of SL2(5)',
        '[PASS] group_order: |SL2(5)| = 120, expected 120, distinct 120',
        '[PASS] class_partition: 9 classes, disjoint cover; sizes '
        '1,1,12,12,12,12,30,20,20',
        '[PASS] unique_involution: unique involution is z; a^((q-1)/2) = z '
        '(z lies in the split torus chain); both torus midpoints checked',
        '[PASS] square_inverse_maps: g -> g^2 and g -> g^-1 agree '
        'classwise for all 120 elements',
        '[PASS] orthogonality: 9 rows and 9 columns orthogonal at '
        'conductor 60',
        '[PASS] degree_sum: sum deg^2 = 120, expected 120 (degrees '
        '1,5,6,4,4,3,3,2,2)',
        '[PASS] fs_indicators: closed = grouped = raw for all 9 '
        'characters; 5 orthogonal, 4 quaternionic, 0 complex',
        '[PASS] conjugation_trace: trace 9, expected 9; non-real rows none',
        '[PASS] real_table_rows: 9 real rows = 9 real classes',
        '[PASS] fixed_dims: 49 distinct cyclic subgroups from 120 '
        'generators (7 class profiles); every average integral, in range, '
        'and equal to the closed form',
        '[PASS] order_2q_subgroups: 24 elements of order 10, 6 subgroup '
        'conjugates, all accounted for',
        'overall: PASS',
    ]),
    7: "\n".join([
        'verification of SL2(7)',
        '[PASS] group_order: |SL2(7)| = 336, expected 336, distinct 336',
        '[PASS] class_partition: 11 classes, disjoint cover; sizes '
        '1,1,24,24,24,24,56,56,42,42,42',
        '[PASS] unique_involution: unique involution is z; b^((q+1)/2) = z '
        '(z lies in the non-split torus chain); both torus midpoints '
        'checked',
        '[PASS] square_inverse_maps: g -> g^2 and g -> g^-1 agree '
        'classwise for all 336 elements',
        '[PASS] orthogonality: 11 rows and 11 columns orthogonal at '
        'conductor 168',
        '[PASS] degree_sum: sum deg^2 = 336, expected 336 (degrees '
        '1,7,8,8,6,6,6,4,4,3,3)',
        '[PASS] fs_indicators: closed = grouped = raw for all 11 '
        'characters; 4 orthogonal, 3 quaternionic, 4 complex',
        '[PASS] conjugation_trace: trace 7, expected 7; non-real rows '
        "['eta_1', 'eta_2', 'xi_1', 'xi_2']",
        '[PASS] real_table_rows: 9 real rows = 9 real classes',
        '[PASS] fixed_dims: 116 distinct cyclic subgroups from 336 '
        'generators (8 class profiles); every average integral, in range, '
        'and equal to the closed form',
        '[PASS] order_2q_subgroups: 48 elements of order 14, 8 subgroup '
        'conjugates, all accounted for',
        'overall: PASS',
    ]),
}


@pytest.mark.parametrize("q", sorted(GOLDEN_TEXT))
def test_report_text_is_byte_stable(q):
    assert verify_all(q).to_text() == GOLDEN_TEXT[q]


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_shared_subgroups_equal_the_full_expansion(q):
    G = enumerate_group(q)
    rank = {g: r for r, g in enumerate(G)}   # G is in rank order

    def ranks(g):
        return frozenset(rank[h] for h in powers(g))

    # check 11: every conjugate of <zc> and <zd>, with no de-duplication,
    # is some <g> with |g| = 2q and each such g lies in the orbit of zc
    # or zd, so that reading the class of g is enough
    full = set()
    for r in (rep_zc(q), rep_zd(q)):
        S = powers(r)
        for h in G:
            hinv = h.inverse()
            full.add(frozenset(rank[h * x * hinv] for x in S))
    big = [g for g in G if element_order(g) == 2 * q]
    assert full == {ranks(g) for g in big}
    cls = _class_indices(q)
    labels = [c.label for c in representatives(q)]
    assert {labels[cls[rank[g]]] for g in big} == {ZC, ZD}
    # checks 3, 10 and 11: <g> as if walked from g itself, for every g
    number, subgroups = _walk_subgroups(q, cls)
    assert len(number) == len(G)
    for g, i in zip(G, number):
        sub = subgroups[i]
        assert ranks(G[sub.rank]) == ranks(g)
        assert sub.order == len(ranks(g)) == element_order(g)
    assert len(subgroups) == len({ranks(g) for g in G})


def _walk_rank_by_rank(q):
    """The subgroup numbers and (order, generator rank) of each subgroup,
    found by a scan that visits every rank and skips those already
    numbered."""
    rank = {g: r for r, g in enumerate(enumerate_group(q))}
    number = [None] * len(rank)
    subgroups = []
    for r, g in enumerate(enumerate_group(q)):
        if number[r] is not None:
            continue
        walk = [rank[h] for h in powers(g)]
        n = len(walk)
        for d in range(1, n + 1):
            if n % d or number[walk[d - 1]] is not None:
                continue
            for k in range(1, n // d + 1):
                if gcd(k, n // d) == 1:
                    number[walk[d * k - 1]] = len(subgroups)
            subgroups.append((n // d, walk[d - 1]))
    return number, subgroups


def _rank_sets(number) -> dict:
    """{subgroup number: the ranks numbered with it}."""
    sets = {}
    for r, i in enumerate(number):
        sets.setdefault(i, set()).add(r)
    return {i: frozenset(ranks) for i, ranks in sets.items()}


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_subgroup_walk_numbers_every_rank_as_a_rank_by_rank_scan(q):
    # the walk starts from the maximal cyclic subgroups, so it numbers
    # them in another order than the scan; the ranks it puts together,
    # and each subgroup's order and elements, are the scan's
    number, subgroups = _walk_subgroups(q, _class_indices(q))
    want_number, want_subgroups = _walk_rank_by_rank(q)
    assert len(number) == len(want_number)
    assert _UNWALKED not in number   # no rank is left unnumbered
    got, want = _rank_sets(number), _rank_sets(want_number)
    assert sorted(got.values(), key=sorted) == sorted(want.values(), key=sorted)
    rank = {g: r for r, g in enumerate(enumerate_group(q))}

    def element_ranks(r):
        return frozenset(rank[h] for h in powers(enumerate_group(q)[r]))
    assert len(subgroups) == len(want_subgroups)
    assert Counter((s.order, element_ranks(s.rank))
                   for s in subgroups) == Counter(
        (n, element_ranks(r)) for n, r in want_subgroups)
    # each subgroup is numbered at the generators of its own rank set
    for i, ranks in got.items():
        assert ranks <= element_ranks(subgroups[i].rank)
        assert len(ranks) == sum(gcd(k, subgroups[i].order) == 1
                                 for k in range(1, subgroups[i].order + 1))


def _profile(counts) -> frozenset:
    return frozenset(counts.items())


@pytest.mark.parametrize("q", [7, 11, 13, 17])
def test_fixed_dims_tests_every_profile_key_pair_of_the_elements(q):
    # check 10 reads the key of each generator of a subgroup from the
    # orbits; the pairs it tests must be those that walking <g> and
    # classifying g give over every element g
    G = enumerate_group(q)
    lookup = class_label_lookup(q)
    want = {(_profile(Counter(lookup[h] for h in powers(g))),
             subgroup_key_of(g)) for g in G}
    cls = _class_indices(q)
    number, subgroups = _walk_subgroups(q, cls)
    assert len(number) == len(G)
    got = []
    for sig, key, sub, r in _profile_key_pairs(q, subgroups, cls):
        got.append((sig, key))
        g = G[r]   # G is in rank order
        # a generator of the subgroup, with the key
        assert set(powers(g)) == set(powers(G[sub.rank]))
        assert subgroup_key_of(g) == key
        assert sub.profile == sig
    assert len(got) == len(set(got))
    assert set(got) == want
    # and per subgroup, the keys of all its generators
    for sub in subgroups:
        walk = powers(G[sub.rank])
        n = len(walk)
        keys = {subgroup_key_of(walk[k - 1])
                for k in range(1, n + 1) if gcd(k, n) == 1}
        assert {key for _, key, _, _ in
                _profile_key_pairs(q, [sub], cls)} == keys


def test_class_lookup_crash_fails_only_the_checks_that_read_it(monkeypatch):
    import sl2q.grp as grp
    import sl2q.realrep as realrep
    import sl2q.verify as verify

    def broken(q, max_enum=50):
        raise RuntimeError("no lookup")

    for module in (grp, verify):
        monkeypatch.setattr(module, "_class_indices", broken)
    # check 4 and the raw indicator read the classes through per-q caches
    for cache in (grp._square_classes, realrep._square_label_counts):
        cache.cache_clear()
    report = verify_all(5)
    for cache in (grp._square_classes, realrep._square_label_counts):
        cache.cache_clear()
    failed = [c.name for c in report.checks if not c.passed]
    # every check that reads the class of an element, and the walk's
    # involution count still passes
    assert failed == ["class_partition", "square_inverse_maps",
                      "fs_indicators", "fixed_dims", "order_2q_subgroups"]
    assert all(c.details == "crashed: RuntimeError('no lookup')"
               for c in report.checks if not c.passed)


def test_subgroup_walk_crash_fails_only_its_checks(monkeypatch):
    import sl2q.verify as verify

    def broken(q, cls):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "_walk_subgroups", broken)
    report = verify_all(3)
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["unique_involution", "fixed_dims", "order_2q_subgroups"]
    assert all("crashed: RuntimeError('boom')" == c.details
               for c in report.checks if not c.passed)
    assert [c.name for c in report.checks] == CHECK_NAMES


def test_an_order_2q_element_off_the_zc_orbit_fails_check_11(monkeypatch):
    # check 11 reads the class of each generator of an order-2q subgroup
    # from the orbits: one element of the orbit of zc relabelled c must
    # fail it, and be the element it names
    import sl2q.verify as verify

    q = 7
    labels = [c.label for c in representatives(q)]
    cls = array("H", _class_indices(q))
    r = [r for r, i in enumerate(cls) if labels[i] == ZC][1]
    cls[r] = labels.index(C)
    monkeypatch.setattr(verify, "_class_indices", lambda q: cls)
    report = verify_all(q)
    check = report.checks[CHECK_NAMES.index("order_2q_subgroups")]
    assert not check.passed
    assert check.details == (f"<{enumerate_group(q)[r]!r}> not conjugate "
                             f"to <zc> or <zd>")


def test_a_moved_inverse_map_entry_fails_every_element_of_its_class(monkeypatch):
    # check 4 formats the first four failing elements and counts the rest
    # (a wrong map at q = 149 fails tens of thousands of elements)
    import sl2q.verify as verify
    from sl2q.grp import A, ONE
    from sl2q.realrep import inverse_class_map

    q = 7
    moved = {**inverse_class_map(q), A(1): ONE}
    monkeypatch.setattr(verify, "inverse_class_map", lambda q: moved)
    report = verify_all(q)
    assert [c.name for c in report.checks if not c.passed] == [
        "square_inverse_maps"]
    lookup = class_label_lookup(q)
    wrong = [g for g in enumerate_group(q) if lookup[g] == A(1)]
    assert len(wrong) == q * (q + 1)
    details = report.checks[CHECK_NAMES.index("square_inverse_maps")].details
    assert details == ("; ".join(f"inverse map wrong on {g!r}"
                                 for g in wrong[:4])
                       + f" (+{q * (q + 1) - 4} more)")


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


def _flipped_nu_table(q):
    """complex_table(q) with the sign of its first nu pool entry flipped."""
    ct = complex_table(q)
    k = next(i for i, (_, cell) in enumerate(ct.pool) if cell[0] == "nu")
    v, cell = ct.pool[k]
    pool = (*ct.pool[:k], (-v, sym_scale(cell, -1)), *ct.pool[k + 1:])
    return CharTable(ct.q, ct.epsilon, ct.conductor, ct.classes, pool,
                     ct.index)


def _table_without_a_row(q):
    """complex_table(q) less its last row: q+3 rows for q+4 classes."""
    ct = complex_table(q)
    index = dict(ct.index)
    del index[ct.chars[-1]]
    return CharTable(ct.q, ct.epsilon, ct.conductor, ct.classes, ct.pool,
                     index)


def _table_with_a_moved_size(q):
    """complex_table(q) with one element moved from class c to class d:
    (q^2+1)/2 and (q^2-3)/2 do not divide |G| at q = 11 or 13."""
    ct = complex_table(q)
    classes = list(ct.classes)
    for i, step in ((2, 1), (3, -1)):
        c = classes[i]
        classes[i] = ConjClass(c.label, c.representative, c.size + step,
                               c.element_order)
    return CharTable(ct.q, ct.epsilon, ct.conductor, tuple(classes), ct.pool,
                     ct.index)


def _table_with_a_rescaled_column(q):
    """complex_table(q) with column c halved and its class size taken four
    times: each row sum is unchanged, but 2(q^2-1) does not divide |G|,
    and the c column sums to |G|/(2(q^2-1)) = q/2, not an integer."""
    ct = complex_table(q)
    pool = list(ct.pool)
    halved = {}
    index = {}
    for ch, idx in ct.index.items():
        k = idx[2]
        if k not in halved:
            v, cell = ct.pool[k]
            halved[k] = len(pool)
            pool.append((v / 2, sym_scale(cell, Fraction(1, 2))))
        index[ch] = idx = idx[:]
        idx[2] = halved[k]
    classes = list(ct.classes)
    c = classes[2]
    classes[2] = ConjClass(c.label, c.representative, 4 * c.size,
                           c.element_order)
    return CharTable(ct.q, ct.epsilon, ct.conductor, tuple(classes),
                     tuple(pool), index)


def _check(report, name):
    return {c.name: c for c in report.checks}[name]


def test_one_nu_entry_with_its_sign_flipped_fails_orthogonality(monkeypatch):
    # check 5 weights each row term by its class size inside dot; a table
    # with one wrong pool entry must still fail it
    import sl2q.verify as verify

    broken = _flipped_nu_table(11)
    monkeypatch.setattr(verify, "complex_table", lambda q: broken)
    check = _check(verify_all(11), "orthogonality")
    assert not check.passed
    assert "!=" in check.details and "crashed" not in check.details


def _orthogonality_reference(ct, order):
    """Check 5 as it was when it summed both relations in full: every row
    pair, then every column pair, whatever the rows gave."""
    labels = ct.class_order
    sizes = [cls.size for cls in ct.classes]
    rows = dict(ct.by_row([v for v, _ in ct.pool]))
    conj_rows = dict(ct.by_row([v.conjugate() for v, _ in ct.pool]))
    bad = []
    for i, ch1 in enumerate(ct.chars):
        for ch2 in ct.chars[i:]:
            acc = dot(zip(rows[ch1], conj_rows[ch2], sizes))
            want = order if ch1 == ch2 else 0
            if acc != want:
                bad.append(f"<{ch1},{ch2}> != {want}")
    cols = list(zip(*rows.values()))
    conj_cols = list(zip(*conj_rows.values()))
    for i, l1 in enumerate(labels):
        for j in range(i, len(labels)):
            acc = dot(zip(cols[i], conj_cols[j], repeat(1)))
            want = order // sizes[i] if i == j else 0
            if acc != want:
                bad.append(f"column <{l1},{labels[j]}> != {want}")
    if bad:
        return False, _fail_list(bad)
    return True, (f"{len(ct.chars)} rows and {len(labels)} columns "
                  f"orthogonal at conductor {ct.conductor}")


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                               43, 47])
def test_orthogonality_matches_the_two_relation_reference(q):
    # a true table passes its row sums, is square and has class sizes
    # dividing |G|, so check 5 skips the column sums; its verdict and
    # words are those of summing both
    check = _check(verify_all(q), "orthogonality")
    assert check.passed
    assert (check.passed, check.details) == _orthogonality_reference(
        complex_table(q), q ** 3 - q)


@pytest.mark.parametrize("q", [11, 13])
@pytest.mark.parametrize("broken", [_flipped_nu_table, _table_without_a_row,
                                    _table_with_a_moved_size,
                                    _table_with_a_rescaled_column])
def test_orthogonality_of_a_broken_table_matches_the_reference(
        monkeypatch, broken, q):
    # a failing row sum, a missing row or a class size that does not
    # divide |G| each sends check 5 on to the column sums, and it reports
    # the same failures, rows' first, as summing both relations in full
    import sl2q.verify as verify

    table = broken(q)
    monkeypatch.setattr(verify, "complex_table", lambda q: table)
    check = _check(verify_all(q), "orthogonality")
    assert not check.passed and "crashed" not in check.details
    assert (check.passed, check.details) == _orthogonality_reference(
        table, q ** 3 - q)


def test_a_ragged_row_fails_orthogonality_by_name(monkeypatch):
    # without its last (zero) entry a chi row still passes its row sums,
    # as zip stops at the shorter operand; check 5 compares each row's
    # length with the class count before it sums anything
    import sl2q.verify as verify

    q = 13
    ct = complex_table(q)
    index = {ch: idx[:-1] if ch.kind == "chi" else idx
             for ch, idx in ct.index.items()}
    ragged = CharTable(ct.q, ct.epsilon, ct.conductor, ct.classes, ct.pool,
                       index)
    monkeypatch.setattr(verify, "complex_table", lambda q: ragged)
    check = _check(verify_all(q), "orthogonality")
    assert not check.passed
    assert check.details == ("; ".join(f"row chi_{i} has 16 entries for 17 "
                                       f"classes" for i in range(1, 5))
                             + " (+1 more)")


def _count_dot(monkeypatch) -> list:
    """A list that gains one item per exact sum check 5 makes."""
    import sl2q.verify as verify

    calls = []

    def counted(terms):
        calls.append(None)
        return dot(terms)
    monkeypatch.setattr(verify, "dot", counted)
    return calls


@pytest.mark.parametrize("q", [7, 11, 13])
def test_a_passing_table_sums_only_its_row_relations(monkeypatch, q):
    # (q+4)(q+5)/2 exact sums, one per unordered pair of rows, with
    # none for the columns, which follow from the rows on a square table
    calls = _count_dot(monkeypatch)
    assert _check(verify_all(q), "orthogonality").passed
    assert len(calls) == (q + 4) * (q + 5) // 2


@pytest.mark.parametrize("q", [11, 13])
def test_a_failing_table_sums_both_relations(monkeypatch, q):
    import sl2q.verify as verify

    table = _flipped_nu_table(q)
    monkeypatch.setattr(verify, "complex_table", lambda q: table)
    calls = _count_dot(monkeypatch)
    assert not _check(verify_all(q), "orthogonality").passed
    assert len(calls) == (q + 4) * (q + 5)


_COUNT_PRODUCTS_OF = """
from sl2q import grp
from sl2q.grp import GroupElem
from sl2q.verify import verify_all
calls = 0   # GroupElem products; grp._tuple_products counts those on tuples
product = GroupElem.__mul__
def counted(g, h):
    global calls
    calls += 1
    return product(g, h)
GroupElem.__mul__ = counted
{setup}
before = calls + grp._tuple_products[0]
{work}
print(calls + grp._tuple_products[0] - before)
"""
_COUNT_PRODUCTS = _COUNT_PRODUCTS_OF.format(
    setup="", work="assert verify_all(11).overall")


def _run_fresh(program: str) -> str:
    """stdout of ``program`` run in a fresh interpreter on this sl2q."""
    path = [str(Path(sl2q.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", program],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_group_product_budget_of_verify():
    # a count, not a timing: the group products verify_all(11) makes from
    # cold caches, in a fresh interpreter, on GroupElems and on tuples
    # (197,422 before the oracle stopped re-deriving orders and conjugate
    # subgroups; 18,423 while the cyclic subgroups were walked twice and
    # each order-2q subgroup again per element; 13,409 with one walk;
    # 12,794 once a walk numbers every subgroup of the subgroup it walks;
    # 11,474 with one squaring pass: 5,280 for the partition, 2,640 for
    # the closure of {s, t}, 1,320 for the squares check 4 and the raw
    # indicator share, 1,771 for the walk, 252 for check 11 and 211 on
    # GroupElems; 11,472 since z*c and z*d are written out and the torus
    # powers t^k are int products; 9,820 since the closure runs over the
    # cosets of <s>, one product by t per element, 1,320, and the walk
    # starts from the maximal cyclic subgroups, 1,451; 9,689 since check
    # 11 reads each generator's class from the orbits instead of walking
    # the conjugates of <zc> and <zd>, and check 10 walks <g> once per
    # (profile, class of g, order))
    # (the floor holds the count to the work: a pass that stopped
    # counting its tuple products would pass a ceiling alone)
    assert 9_040 <= int(_run_fresh(_COUNT_PRODUCTS)) <= 10_015


def test_group_product_budget_of_conjugacy_partition():
    # the orbits under conjugation by the two generators cost about
    # 4(q^3-q) = 5,280 products at q = 11, counted as two per written-out
    # conjugation (39,675 when every class was expanded by conjugating
    # with all of G)
    program = _COUNT_PRODUCTS_OF.format(
        setup="", work="assert len(grp.conjugacy_partition(11)) == 15")
    assert 5_280 <= int(_run_fresh(program)) <= 6_000


def test_group_product_budget_of_class_of_at_trace_two():
    # c against d is a Legendre symbol of one entry, and zc against zd the
    # same test on z*g, one product (the orbit of c took about 2(q^2-1))
    q = 13
    for entries, label in (((1, 1, 0, 1), "C"), ((-1, -1, 0, -1), "ZC")):
        program = _COUNT_PRODUCTS_OF.format(
            setup=f"grp.representatives({q})",
            work=f"assert grp.class_of(GroupElem({q}, *{entries})) == grp.{label}")
        assert int(_run_fresh(program)) <= 2


_S_ONLY_ORBITS = """
import json
from sl2q import grp
from sl2q.verify import verify_all
def grow(q, marks, g, mark):   # the orbit under conjugation by s alone
    size = 0
    while marks[grp._rank(q, g)] != mark:
        marks[grp._rank(q, g)] = mark
        size += 1
        a, b, c, d = g
        g = ((a + c) % q, (b + d - a - c) % q, c, (d - c) % q)
    return size
grp._grow = grow
report = verify_all(7)
print(json.dumps([[c.name, c.passed] for c in report.checks]))
"""


def test_partition_from_one_generator_fails_class_partition():
    # conjugating by s alone gives orbits too small to be the classes;
    # check 2 must catch it and the rest of the suite must still run
    got = json.loads(_run_fresh(_S_ONLY_ORBITS))
    assert [name for name, _ in got] == CHECK_NAMES
    failed = [name for name, ok in got if not ok]
    assert failed == ["class_partition", "square_inverse_maps",
                      "fs_indicators", "fixed_dims", "order_2q_subgroups"]


def test_partition_check_needs_s_and_t_to_generate_the_group(monkeypatch):
    import sl2q.verify as verify

    def z_only(q):
        marks = bytearray(q ** 3 - q)
        marks[verify._rank(q, verify.rep_z(q)[1:])] = 1
        return marks

    monkeypatch.setattr(verify, "_generated_ranks", z_only)
    report = verify_all(3)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["class_partition"]
    assert failed[0].details == "s and t do not generate the enumerated group"


_RECORD_CONDUCTORS = """
import json
from sl2q import cyclo
from sl2q.verify import verify_all
conductors, keys = set(), set()
moduli, phi_m = cyclo._moduli, cyclo.cyclotomic_polynomial
def record_conductor(N):
    conductors.add(N)
    return moduli(N)
def record_key(m):
    keys.add(m)
    return phi_m(m)
cyclo._moduli, cyclo.cyclotomic_polynomial = record_conductor, record_key
assert verify_all(13).overall
info = phi_m.cache_info()
print(json.dumps({"conductors": sorted(conductors), "keys": sorted(keys),
                  "misses": info.misses, "currsize": info.currsize}))
"""


def test_verify_works_below_the_working_conductor():
    # every value stays at its natural conductor (1, q-1, q or q+1), so
    # verify_all reduces only at the lcm of two of them, at most
    # q(q+1) = 182 at q = 13, never at N = 1092; the cyclotomic
    # polynomials those reductions divide by are built once each
    got = json.loads(_run_fresh(_RECORD_CONDUCTORS))
    assert max(got["conductors"]) <= 13 * 14
    assert max(got["keys"]) <= 13 * 14
    assert got["misses"] == got["currsize"]
