"""Fixed-point dimensions: closed forms against the averaging oracle."""
import re
from array import array
from math import gcd

import pytest

from sl2q.chars import CharTable, complex_table
from sl2q.fixdim import (AH, BH, C_H, FixedDimTable, TRIVIAL_H, Z_H, ZC_H,
                         SubgroupKey, _closed_order, _generic_column,
                         fixed_dim_average, fixed_dim_closed, full_report,
                         parse_subgroup_key, subgroup, subgroup_key_of,
                         subgroup_keys)
from sl2q.cyclo import rational
from sl2q.fq import is_odd_prime
from sl2q.grp import Z, identity, rep_a, rep_c, rep_z, rep_zd
from sl2q.realrep import (RChiEven, RPSI, RTRIV, RThetaEven, RTwoChiOdd,
                          RTwoThetaOdd, RXI1, RXI2, parse_real_char_label,
                          real_char_labels, real_table)
from sl2q.verify import VerificationReport, verify_all

PRIMES_TO_211 = [q for q in range(3, 212) if is_odd_prime(q)]


def test_subgroup_keys_listing():
    keys = subgroup_keys(5)
    assert [str(k) for k in keys] == [
        "TrivialH", "ZH", "CH", "ZCH", "AH(1)", "BH(1)", "BH(2)"]
    for s in ["TrivialH", "ZH", "AH(3)", "BH(2)"]:
        assert str(parse_subgroup_key(s)) == s
    with pytest.raises(ValueError):
        parse_subgroup_key("AH(0)")
    with pytest.raises(ValueError):
        parse_subgroup_key("DH")


def test_subgroup_construction():
    H = subgroup(7, ZC_H)
    assert H.order == 14
    assert len(set(H.elements)) == 14
    assert all((H.generator ** k) in H.elements for k in range(14))
    assert subgroup(7, "AH", 1).order == 6
    assert subgroup(13, AH(3)).order == 4
    assert subgroup(13, BH(2)).order == 7
    assert subgroup(3, BH(1)).order == 4  # degenerate small case
    with pytest.raises(ValueError):
        subgroup(7, AH(5))  # index past (q-3)/2


def test_subgroup_key_of():
    assert subgroup_key_of(identity(7)) == TRIVIAL_H
    assert subgroup_key_of(rep_z(7)) == Z_H
    assert subgroup_key_of(rep_c(7) * rep_c(7)) == C_H
    assert subgroup_key_of(rep_zd(7)) == ZC_H
    a = rep_a(13)
    assert subgroup_key_of(a ** 2) == AH(2)
    # a^10 generates the same subgroup as a^2, and is labelled by it
    assert subgroup_key_of(a ** 10) == AH(2)


def test_first_table_spot_values():
    """The small-subgroup columns, as commonly tabulated."""
    q = 7
    assert fixed_dim_closed(q, RPSI, Z_H) == q
    assert fixed_dim_closed(q, RTwoChiOdd(1), C_H) == 4
    assert fixed_dim_closed(q, parse_real_char_label("2Re(eta_1)"), Z_H) == q - 1
    assert fixed_dim_closed(q, RTRIV, TRIVIAL_H) == 1
    # the trivial subgroup fixes everything
    rt = real_table(q)
    for ch in rt.chars:
        assert fixed_dim_closed(q, ch, TRIVIAL_H) == rt.degree(ch)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_closed_equals_average_everywhere_small(q):
    rt = real_table(q)
    for key in subgroup_keys(q):
        avg = fixed_dim_average(rt, subgroup(q, key))
        assert set(avg) == set(rt.chars)
        for ch in rt.chars:
            assert fixed_dim_closed(q, ch, key) == avg[ch]


def test_resonant_entries_match_oracle():
    # subgroup order divides the character index: the generic torus
    # formulas shift by +-2 here and the oracle is the referee
    rt11 = real_table(11)
    H = subgroup(11, BH(3))          # order 4, divides j = 4
    assert fixed_dim_closed(11, RThetaEven(4), BH(3)) == 4
    assert fixed_dim_average(rt11, H)[RThetaEven(4)] == 4
    rt13 = real_table(13)
    H = subgroup(13, AH(3))          # order 4, divides i = 4
    assert fixed_dim_closed(13, RChiEven(4), AH(3)) == 8
    assert fixed_dim_average(rt13, H)[RChiEven(4)] == 8
    # doubled rows shift by 4: BH(4) at q = 11 has order 3, dividing j = 3,
    # so 2theta_3 drops from the generic 2*gcd(12,4) = 8 to 4
    H = subgroup(11, BH(4))
    closed = fixed_dim_closed(11, RTwoThetaOdd(3), BH(4))
    assert closed == fixed_dim_average(rt11, H)[RTwoThetaOdd(3)] == 4
    # and 2chi_3 on the order-3 subgroup AH(4) at q = 13 gains 4
    H = subgroup(13, AH(4))
    closed = fixed_dim_closed(13, RTwoChiOdd(3), AH(4))
    assert closed == fixed_dim_average(rt13, H)[RTwoChiOdd(3)] == 12


def test_non_resonant_torus_entries():
    # gcd structure without divisibility keeps the generic values
    assert fixed_dim_closed(13, RChiEven(2), AH(3)) == 6   # 2*gcd(12,3)
    assert fixed_dim_closed(11, RThetaEven(2), BH(3)) == 6  # 2*gcd(12,3)
    assert fixed_dim_closed(13, RPSI, AH(1)) == 3           # 2*gcd+1, even quotient


def test_closed_form_needs_no_enumeration():
    # far past any enumeration bound; closed forms are pure arithmetic
    assert fixed_dim_closed(101, RPSI, Z_H) == 101
    assert fixed_dim_closed(101, RTRIV, AH(25)) == 1
    assert fixed_dim_closed(97, RChiEven(2), C_H) == 2


def test_dimension_bounds_and_monotonicity():
    for q in [5, 7, 11, 13]:
        rt = real_table(q)
        for ch in rt.chars:
            deg = rt.degree(ch)
            dims = {str(k): fixed_dim_closed(q, ch, k) for k in subgroup_keys(q)}
            assert all(0 <= v <= deg for v in dims.values())
            # <z> sits inside <zc>, so its fixed space can only be larger
            assert dims["ZCH"] <= dims["ZH"]
            assert dims["CH"] <= deg


def test_xi_pair_balance_on_unipotent_subgroup():
    # xi_1 + xi_2 is rational on <c>, forcing the pair to split 1 + 1
    for q in [5, 13]:
        assert (fixed_dim_closed(q, RXI1, C_H)
                + fixed_dim_closed(q, RXI2, C_H)) == 2


@pytest.mark.parametrize("q", [5, 11])
def test_full_report(q):
    rep = full_report(q)
    assert rep.all_match
    ci, ki = rep.chars.index(RPSI), rep.keys.index(Z_H)
    assert rep.closed[ki][ci] == q and rep.oracle[ki][ci] == q
    assert len(rep.closed) == len(rep.oracle) == len(rep.keys)
    for column in rep.closed + rep.oracle:
        assert len(column) == len(rep.chars)


@pytest.mark.parametrize("q", [13, 53])
def test_report_entries_equal_fixed_dim_closed(q):
    rep = full_report(q)
    for k, column in zip(rep.keys, rep.closed):
        assert column == tuple(fixed_dim_closed(q, ch, k) for ch in rep.chars)
    # rows() reads the same cells row by row, in table order; past the
    # enumeration bound (q = 53) its oracle rows are all None
    rows = list(rep.rows())
    assert [ch for ch, _, _ in rows] == list(rep.chars)
    for ch, closed, oracle in rows:
        assert closed == tuple(fixed_dim_closed(q, ch, k) for k in rep.keys)
        assert oracle == (closed if q <= 50 else (None,) * len(rep.keys))
    # the column behind both is cached and shared by every key of its
    # signature, so it must be read-only
    from sl2q.fixdim import _closed_column
    values, moved = _closed_column(q, "ZH")
    with pytest.raises(TypeError):
        values[1] = 0
    with pytest.raises(TypeError):
        moved[0:0] = [1]


def test_full_report_notes_flag_resonance():
    assert any("resonant" in n for n in full_report(11).notes)
    assert any("resonant" in n for n in full_report(13).notes)
    assert not any("resonant" in n for n in full_report(5).notes)
    # the first four resonant entries are named in table order, rows first
    assert full_report(101).notes[-1].startswith(
        "resonant torus entries at (chi_4, AH(25)), (chi_8, AH(25)), "
        "(chi_10, AH(10)), (chi_10, AH(20)) and more: ")


def test_report_json_round_trip():
    # q = 101 is past the enumeration bound: the oracle is None
    for q in (5, 101):
        rep = full_report(q)
        clone = FixedDimTable.from_json(rep.to_json())
        assert clone == rep
        assert clone.all_match
        assert (clone.oracle is None) == (q > 50)


def test_from_json_rejects_an_oracle_that_mixes_null_and_integers():
    # one null entry among a row's integers, and one row filled with
    # integers past the enumeration bound
    doc = full_report(5).to_json()
    doc["rows"][1]["oracle"][1] = None
    with pytest.raises(ValueError, match="mixes"):
        FixedDimTable.from_json(doc)
    doc = full_report(5, 3).to_json()
    doc["rows"][1]["oracle"] = [5] * len(doc["subgroups"])
    with pytest.raises(ValueError, match="mixes"):
        FixedDimTable.from_json(doc)


def test_schema_2_rows_list_each_subgroup_once():
    doc = full_report(5).to_json()
    assert doc["schema"] == 2
    assert [s["key"] for s in doc["subgroups"]] == [
        "TrivialH", "ZH", "CH", "ZCH", "AH(1)", "BH(1)", "BH(2)"]
    psi = doc["rows"][1]
    assert psi == {"char": "psi", "closed": [5, 5, 1, 1, 3, 1, 1],
                   "oracle": [5, 5, 1, 1, 3, 1, 1]}
    rows = full_report(5, 3).to_json()["rows"]
    assert all(row["oracle"] is None for row in rows)


@pytest.mark.parametrize("max_enum, part", [(50, "closed"), (50, "oracle"),
                                             (3, "closed")])
def test_from_json_rejects_a_row_of_the_wrong_length(max_enum, part):
    # zip would silently drop the surplus or the missing subgroups
    for edit in (list.pop, lambda row: row.append(1)):
        doc = full_report(5, max_enum).to_json()
        edit(doc["rows"][2][part])
        with pytest.raises(ValueError, match="one entry per subgroup"):
            FixedDimTable.from_json(doc)


def test_from_json_rejects_oracle_rows_that_mix_null_and_lists():
    doc = full_report(5).to_json()
    doc["rows"][1]["oracle"] = None
    with pytest.raises(ValueError, match="mixes"):
        FixedDimTable.from_json(doc)
    doc = full_report(5, 3).to_json()
    doc["rows"][1]["oracle"] = doc["rows"][1]["closed"]
    with pytest.raises(ValueError, match="mixes"):
        FixedDimTable.from_json(doc)


_MISSING = object()   # the document has no "schema" key


@pytest.mark.parametrize("schema", [0, 1, 3, "2", None, True, 2.0,
                                    pytest.param(_MISSING, id="missing")])
def test_from_json_rejects_an_unknown_schema(schema):
    # every loader reads schema 2 alone; an absent key reads as None
    shown = None if schema is _MISSING else schema
    message = re.escape(f" schema {shown!r}; only schema 2 can be read")
    for cls, doc in [(FixedDimTable, full_report(5).to_json()),
                     (CharTable, complex_table(5).to_json()),
                     (VerificationReport, verify_all(3).to_json())]:
        if schema is _MISSING:
            del doc["schema"]
        else:
            doc["schema"] = schema
        with pytest.raises(ValueError, match="^unknown .*" + message):
            cls.from_json(doc)


def test_label_check_builds_the_labels_once(monkeypatch):
    # fixed_dim_closed checks its label on every call against a cached
    # row map; full_report(101) fills 10,815 entries and must not rebuild the
    # label list for each
    import sl2q.fixdim as fixdim
    calls = []

    def counting(q):
        calls.append(q)
        return real_char_labels(q)

    monkeypatch.setattr(fixdim, "real_char_labels", counting)
    rep = full_report(101)
    assert len(rep.chars) * len(rep.keys) == 105 * 103
    assert sum(map(len, rep.closed)) == 105 * 103
    assert len(calls) <= 2
    # the check still rejects labels that are not rows of the table
    with pytest.raises(ValueError):
        fixed_dim_closed(7, RXI1, Z_H)  # xi_1 is a real row only for q = 1 mod 4
    with pytest.raises(ValueError):
        fixed_dim_closed(7, RChiEven(4), Z_H)  # chi index past (q-3)/2


# ---------------------------------------------------------------------------
# one closed path: the column per subgroup against the per-entry path it
# replaced, and the subgroup kinds read off the generator classes

def _per_entry_closed(q, char, key, column):
    """dim V^H the per-entry way: the generic value of the row's kind,
    then the resonance correction as a chain of cases."""
    value = column[char.kind]
    if key.kind == "AH" and char.kind in ("chi_even", "two_chi_odd"):
        n = (q - 1) // gcd(q - 1, key.index)
    elif key.kind == "BH" and char.kind in ("theta_even", "two_theta_odd"):
        n = (q + 1) // gcd(q + 1, key.index)
    else:
        return value
    if char.index % n:
        return value
    per_copy = 2 if char.kind in ("chi_even", "two_chi_odd") else -2
    copies = 2 if char.kind.startswith("two_") else 1
    return value + per_copy * copies


def _key_generic_column(q, key):
    """The generic values on ``key``, from its own gcd and index parity."""
    if key.kind not in ("AH", "BH"):
        return _generic_column(q, key.kind)
    g = gcd(q - 1 if key.kind == "AH" else q + 1, key.index)
    return _generic_column(q, key.kind, g, key.index % 2)


# 1008 = 2^4 * 3^2 * 7 has 30 divisors, so many keys share a signature
@pytest.mark.parametrize("q", PRIMES_TO_211 + [1009])
def test_closed_column_equals_the_per_entry_path(q):
    chars = real_char_labels(q)
    report = full_report(q, 0)   # closed values only
    assert report.keys == tuple(subgroup_keys(q))
    for key, column in zip(report.keys, report.closed):
        generic = _key_generic_column(q, key)
        want = tuple(_per_entry_closed(q, ch, key, generic) for ch in chars)
        assert column == want, key
        assert tuple(fixed_dim_closed(q, ch, key) for ch in chars) == want, key


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("q", [211, 1009])
def test_report_holds_one_column_per_signature(q):
    # a torus key's column depends on gcd(q -+ 1, index) and, when the
    # quotient (q -+ 1)/gcd is even, on the index parity; every other key's
    # on its kind alone.  full_report builds one tuple per signature and
    # puts it under each of its keys (one per key was 213 tuples at q = 211)
    report = full_report(q, 0)
    signatures = {}
    for key, column in zip(report.keys, report.closed):
        if key.kind in ("AH", "BH"):
            order = q - 1 if key.kind == "AH" else q + 1
            g = gcd(order, key.index)
            signature = (key.kind, g, key.index % 2 if order // g % 2 == 0
                         else None)
        else:
            signature = key.kind
        signatures.setdefault(signature, set()).add(id(column))
    assert all(len(ids) == 1 for ids in signatures.values())
    distinct = len(set(map(id, report.closed)))
    assert distinct == len(signatures)
    assert distinct <= 2 * (_divisor_count(q - 1) + _divisor_count(q + 1)) + 4


@pytest.mark.parametrize("q", [q for q in PRIMES_TO_211 if q <= 101])
def test_subgroup_keys_are_the_explicit_list(q):
    assert subgroup_keys(q) == (
        [TRIVIAL_H, Z_H, C_H, ZC_H]
        + [AH(l) for l in range(1, (q - 3) // 2 + 1)]
        + [BH(m) for m in range(1, (q - 1) // 2 + 1)])


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_subgroup_order_is_its_closed_order(q):
    for key in subgroup_keys(q):
        H = subgroup(q, key)
        assert H.order == len(set(H.elements)) == _closed_order(q, key), key
        assert H.elements[0] == H.generator and H.elements[-1] == (q, 1, 0, 0, 1)


# ---------------------------------------------------------------------------
# one averaging function: fixed_dim_average, full_report and check 10 of
# verify_all all average through fixdim._averages, once per class profile

def _doctored_real_table(q):
    """real_table(q) with triv's value at z raised to 3, so the average of
    triv over <z> is (1 + 3)/2 = 2, an integer above its degree 1."""
    rt = real_table(q)
    # the real table's values, no display cells, and 3 as one more entry
    pool = tuple((v, None) for v, _ in rt.pool) + ((rational(3), None),)
    index = dict(rt.index)
    index[RTRIV] = array("I", rt.index[RTRIV])
    index[RTRIV][rt.class_order.index(Z)] = len(rt.pool)
    return CharTable(q, rt.epsilon, rt.conductor, rt.classes, pool, index,
                     rt.source)


def test_an_average_above_the_degree_is_rejected(monkeypatch):
    doctored = _doctored_real_table(5)
    with pytest.raises(ValueError, match=r"average of 1 over a subgroup of "
                                         r"order 2 is Fraction\(2, 1\)"):
        fixed_dim_average(doctored, subgroup(5, Z_H))
    # the untouched rows and subgroups still average
    assert fixed_dim_average(doctored, subgroup(5, C_H))[RPSI] == 1
    # check 10 applies the same test (the other subgroups through z now
    # average to fractions)
    import sl2q.verify as verify
    monkeypatch.setattr(verify, "real_table", lambda q: doctored)
    failed = [c for c in verify_all(5).checks if not c.passed]
    assert [c.name for c in failed] == ["fixed_dims"]
    assert ("<GroupElem(5, 4, 0, 0, 4)> under ZH: average of 1 over a "
            "subgroup of order 2 is Fraction(2, 1), not an integer in "
            "[0, deg]") in failed[0].details


@pytest.mark.parametrize("q", [q for q in PRIMES_TO_211 if q <= 47] + [101])
def test_report_oracle_is_the_per_key_average(q):
    # full_report shares one average among the keys of a class profile;
    # each key's column must still be that key's own average
    rt = real_table(q)
    want = tuple(tuple(fixed_dim_average(rt, subgroup(q, key)).values())
                 for key in subgroup_keys(q))
    assert full_report(q, q).oracle == want


def test_report_averages_once_per_class_profile(monkeypatch):
    # 103 subgroup keys at q = 101 have 17 class profiles; the 105 rows of
    # each profile are summed by one all-rows class sum (one sum per row
    # and key was 10,815)
    calls = []
    class_sums = CharTable.class_sums

    def counting(self, counts):
        calls.append(counts)
        return class_sums(self, counts)

    monkeypatch.setattr(CharTable, "class_sums", counting)
    report = full_report(101, 101)
    assert len(report.keys) == 103 and len(report.chars) == 105
    assert 0 < len(calls) <= 17
    assert report.all_match
