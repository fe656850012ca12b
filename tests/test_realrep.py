"""Square map, real classes, Frobenius-Schur indicators, real table."""
import pytest

from sl2q.chars import (CharTable, Chi, ETA1, ETA2, PSI, TRIV, Theta, XI1, XI2,
                        complex_table)
from sl2q.grp import (A, B, C, D, ONE, Z, ZC, ZD, class_label_lookup,
                      class_labels, enumerate_group)
from sl2q.realrep import (RChiEven, RTwoChiOdd, RTwoThetaOdd, RealCharLabel,
                          RealCharTable, fs_indicator_brute,
                          fs_indicator_closed, fs_indicator_raw,
                          inverse_class_map, parse_real_char_label,
                          real_char_labels, real_classes, real_table,
                          square_class_map)

Q_SMALL = [3, 5, 7, 11, 13]


@pytest.mark.parametrize("q", [5, 7, 11])
def test_square_map_matches_brute_force(q):
    lookup = class_label_lookup(q)
    sq = square_class_map(q)
    for g in enumerate_group(q):
        assert sq[lookup[g]] == lookup[g * g]


def test_square_map_spot_values():
    sq5, sq7 = square_class_map(5), square_class_map(7)
    assert sq5[ONE] == ONE and sq5[Z] == ONE
    # unipotent squares cross to the other class iff 2 is a non-residue
    assert sq5[C] == D and sq5[D] == C
    assert sq7[C] == C and sq7[D] == D
    assert sq5[ZC] == D and sq7[ZD] == D
    sq13 = square_class_map(13)
    assert sq13[A(1)] == A(2)
    assert sq13[A(5)] == A(2)    # 2*5 = 10 folds back to 12-10 = 2
    assert sq13[A(3)] == Z       # a has order 12; a^6 is the involution
    assert sq13[B(2)] == B(4)
    assert sq13[B(5)] == B(4)    # 2*5 = 10 folds back to 14-10 = 4


@pytest.mark.parametrize("q", [5, 7, 11])
def test_inverse_map_matches_brute_force(q):
    lookup = class_label_lookup(q)
    inv = inverse_class_map(q)
    for g in enumerate_group(q):
        assert inv[lookup[g]] == lookup[g.inverse()]


def test_inverse_map_shape():
    inv5 = inverse_class_map(5)
    assert all(inv5[lab] == lab for lab in class_labels(5))
    inv7 = inverse_class_map(7)
    assert inv7[C] == D and inv7[D] == C
    assert inv7[ZC] == ZD and inv7[ZD] == ZC
    assert all(inv7[lab] == lab for lab in class_labels(7)
               if lab not in (C, D, ZC, ZD))


@pytest.mark.parametrize("q,blocks", [(3, 5), (5, 9), (7, 9), (11, 13), (13, 17)])
def test_real_class_count(q, blocks):
    part = real_classes(q)
    expected = q + 4 if q % 4 == 1 else q + 2
    assert blocks == expected
    assert len(part.blocks) == blocks
    covered = [lab for block in part.blocks for lab in block]
    assert sorted(map(str, covered)) == sorted(map(str, class_labels(q)))


def test_real_class_blocks_are_inverse_closed():
    for q in [5, 7]:
        inv = inverse_class_map(q)
        for block in real_classes(q).blocks:
            assert {inv[lab] for lab in block} == set(block)


@pytest.mark.parametrize("q", [5, 7, 11])
def test_fs_indicator_three_ways(q):
    ct = complex_table(q)
    for ch in ct.chars:
        closed = fs_indicator_closed(ct, ch)
        assert closed == fs_indicator_brute(ct, ch)
        assert closed == fs_indicator_raw(ct, ch)


def test_fs_indicator_examples():
    ct5 = complex_table(5)
    assert fs_indicator_closed(ct5, TRIV) == 1
    assert fs_indicator_closed(ct5, PSI) == 1
    assert fs_indicator_closed(ct5, Chi(1)) == -1
    assert fs_indicator_closed(ct5, Theta(2)) == 1
    assert fs_indicator_closed(ct5, XI1) == 1
    assert fs_indicator_closed(ct5, ETA1) == -1
    ct7 = complex_table(7)
    for ch in (XI1, XI2, ETA1, ETA2):
        assert fs_indicator_closed(ct7, ch) == 0
    assert fs_indicator_closed(ct7, Chi(2)) == 1
    assert fs_indicator_closed(ct7, Theta(3)) == -1


def test_fs_indicator_trichotomy_counts():
    # q = 1 mod 4: no complex-type characters; q = 3 mod 4: exactly four
    ct = complex_table(13)
    vals = [fs_indicator_closed(ct, ch) for ch in ct.chars]
    assert vals.count(0) == 0
    ct = complex_table(11)
    vals = [fs_indicator_closed(ct, ch) for ch in ct.chars]
    assert vals.count(0) == 4


def test_fs_raw_respects_enumeration_bound():
    ct = complex_table(5)
    with pytest.raises(ValueError):
        fs_indicator_raw(ct, PSI, max_enum=3)


def test_real_label_validation():
    with pytest.raises(ValueError):
        RealCharLabel("chi_even", 3)
    with pytest.raises(ValueError):
        RealCharLabel("two_chi_odd", 2)
    with pytest.raises(ValueError):
        RealCharLabel("psi", 1)
    for s in ["1", "psi", "chi_2", "2chi_1", "theta_4", "2theta_3",
              "xi_1", "2eta_2", "2Re(xi_1)", "2Re(eta_1)"]:
        assert str(parse_real_char_label(s)) == s
    with pytest.raises(ValueError):
        parse_real_char_label("chi_1")   # odd index only occurs doubled
    with pytest.raises(ValueError):
        parse_real_char_label("2chi_2")


def test_real_char_labels_order():
    assert [str(ch) for ch in real_char_labels(5)] == [
        "1", "psi", "2chi_1", "theta_2", "2theta_1",
        "xi_1", "xi_2", "2eta_1", "2eta_2"]
    assert [str(ch) for ch in real_char_labels(7)] == [
        "1", "psi", "chi_2", "2chi_1", "theta_2", "2theta_1", "2theta_3",
        "2Re(xi_1)", "2Re(eta_1)"]


@pytest.mark.parametrize("q", Q_SMALL)
def test_real_row_count_matches_real_class_count(q):
    rt = real_table(q)
    assert len(rt.chars) == len(real_classes(q).blocks)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_real_rows_are_sums_of_their_sources(q):
    ct, rt = complex_table(q), real_table(q)
    for rch in rt.chars:
        for lab in rt.class_order:
            total = None
            for cch, mult in rt.source[rch]:
                term = ct.value(cch, lab) * mult
                total = term if total is None else total + term
            assert rt.value(rch, lab) == total


def test_real_table_values_are_conjugation_fixed():
    for q in [5, 7]:
        rt = real_table(q)
        for rch in rt.chars:
            for lab in rt.class_order:
                v = rt.value(rch, lab)
                assert v.conjugate() == v


def test_real_table_constant_on_merged_blocks():
    rt = real_table(7)
    for rch in rt.chars:
        assert rt.value(rch, C) == rt.value(rch, D)
        assert rt.value(rch, ZC) == rt.value(rch, ZD)


def test_real_table_spot_values():
    rt5 = real_table(5)
    assert rt5.degree(RTwoChiOdd(1)) == 12
    assert rt5.degree(parse_real_char_label("xi_1")) == 3
    assert rt5.value(parse_real_char_label("2eta_1"), B(1)) == \
        complex_table(5).value(ETA1, B(1)) * 2
    rt7 = real_table(7)
    assert rt7.degree(parse_real_char_label("2Re(xi_1)")) == 8
    # (1+g)/2 + (1-g)/2 collapses to 1
    assert rt7.value(parse_real_char_label("2Re(xi_1)"), C) == 1
    assert rt7.value(RChiEven(2), A(1)) == complex_table(7).value(Chi(2), A(1))
    assert rt7.value(RTwoThetaOdd(3), ONE) == 12


def test_real_json_round_trip():
    rt = real_table(5)
    clone = RealCharTable.from_json(rt.to_json())
    assert clone == rt
    assert clone.source == rt.source
    assert clone.cells is None
    # one loader for both tables: "source" marks the real one
    assert RealCharTable is CharTable
    assert list(rt.to_json())[-1] == "source"
    clone = CharTable.from_json(rt.to_json())
    assert clone == real_table(5)
    assert clone.source == rt.source and clone.source is not None
    ct = complex_table(5)
    assert "source" not in ct.to_json()
    complex_clone = CharTable.from_json(ct.to_json())
    assert complex_clone.source is None
    assert complex_clone == ct and complex_clone != clone


def test_indicator_class_maps_are_built_once_per_q():
    from sl2q import realrep
    ct = complex_table(23)
    realrep._closed_fs_weights.cache_clear()
    realrep._square_class_counts.cache_clear()
    for ch in ct.chars:
        fs_indicator_closed(ct, ch)
        fs_indicator_brute(ct, ch)
    assert realrep._closed_fs_weights.cache_info().misses == 1
    assert realrep._square_class_counts.cache_info().misses == 1


def _count_class_sums(monkeypatch) -> list:
    """A list that gains the table of each ``CharTable.class_sums`` call."""
    from sl2q import realrep
    calls = []
    class_sums = CharTable.class_sums

    def counting(self, counts):
        calls.append(self)
        return class_sums(self, counts)

    monkeypatch.setattr(CharTable, "class_sums", counting)
    realrep._TOTALS.clear()
    return calls


def _fs_check(q):
    from sl2q.verify import verify_all
    return {c.name: c for c in verify_all(q).checks}["fs_indicators"]


@pytest.mark.parametrize("q", [7, 11, 13])
def test_fs_check_sums_each_table_once_when_the_weights_agree(monkeypatch, q):
    # the closed, grouped and raw weight maps are equal as dicts, so check
    # 7 shares one all-rows class sum among them (three before)
    calls = _count_class_sums(monkeypatch)
    assert _fs_check(q).passed
    assert calls.count(complex_table(q)) == 1


@pytest.mark.parametrize("q", [11, 13])
def test_fs_check_sums_a_weight_map_that_differs_on_its_own(monkeypatch, q):
    # K + 2q in the closed weights: check 7 fails, and the closed map gets
    # sums of its own while the grouped and raw maps share theirs
    from sl2q import realrep
    weights = dict(realrep._closed_fs_weights(q))
    weights[Z] += 2 * q
    monkeypatch.setattr(realrep, "_closed_fs_weights", lambda q: weights)
    assert not _fs_check(q).passed
    calls = _count_class_sums(monkeypatch)
    ct = complex_table(q)
    for ch in ct.chars:
        # each closed sum is off by 2 chi(z) / (q^2 - 1), never an integer
        with pytest.raises(ValueError, match="indicator came out as"):
            fs_indicator_closed(ct, ch)
        assert fs_indicator_brute(ct, ch) == fs_indicator_raw(ct, ch)
    assert calls.count(ct) == 2
