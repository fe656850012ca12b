"""Acceptance gate.

One test per acceptance criterion, each printing a single pass/fail
line straight to the terminal (past pytest's capture).  Everything is
exact integer or cyclotomic arithmetic; the only tolerances anywhere
are the two wall-clock bounds, asserted where stated.
"""
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from sl2q.chars import complex_table
from sl2q.cyclo import CycNum, cyclotomic_polynomial, nu, rational, \
    root_of_unity, sqrt_eps_q
from sl2q.fixdim import (C_H, TRIVIAL_H, Z_H, ZC_H, fixed_dim_closed,
                         subgroup, subgroup_key_of, subgroup_keys)
from sl2q.grp import (class_label_lookup, class_labels, conjugacy_partition,
                      element_order, enumerate_group, identity, rep_a, rep_c,
                      rep_z, rep_zc, rep_zd, representatives)
from sl2q.realrep import (fs_indicator_brute, fs_indicator_closed,
                          fs_indicator_raw, inverse_class_map,
                          parse_real_char_label, real_classes, real_table,
                          square_class_map)

Q_ALL = [3, 5, 7, 11, 13]


@pytest.fixture
def criterion(capsys):
    def emit(num, name, problems, extra=""):
        status = "PASS" if not problems else "FAIL"
        tail = f"  [{extra}]" if extra else ""
        with capsys.disabled():
            print(f"\n[{status}] acceptance {num}: {name}{tail}")
        assert not problems, f"criterion {num} ({name}): " + \
            "; ".join(str(p) for p in problems[:10])
    return emit


def test_criterion_1_class_structure(criterion):
    problems, times = [], []
    enumerate_group.cache_clear()
    conjugacy_partition.cache_clear()
    for q in Q_ALL:
        t0 = time.perf_counter()
        partition = conjugacy_partition(q)
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        if elapsed >= 5.0:
            problems.append(f"q={q}: partition took {elapsed:.1f}s")
        if len(partition) != q + 4:
            problems.append(f"q={q}: {len(partition)} classes")
        sizes = sorted(len(v) for v in partition.values())
        expected = sorted([1, 1] + [(q * q - 1) // 2] * 4
                          + [q * (q + 1)] * ((q - 3) // 2)
                          + [q * (q - 1)] * ((q - 1) // 2))
        if sizes != expected:
            problems.append(f"q={q}: class sizes {sizes}")
        seen = set()
        for members in partition.values():
            if not seen.isdisjoint(members):
                problems.append(f"q={q}: classes overlap")
            seen.update(members)
        if len(seen) != q ** 3 - q:
            problems.append(f"q={q}: union covers {len(seen)} elements")
        from math import gcd
        for cls in representatives(q):
            members = partition[cls.label]
            k = cls.label.kind
            want = {"1": 1, "z": 2, "c": q, "d": q, "zc": 2 * q, "zd": 2 * q,
                    "a": (q - 1) // gcd(cls.label.index, q - 1),
                    "b": (q + 1) // gcd(cls.label.index, q + 1)}[k]
            if cls.element_order != want or cls.size != len(members):
                problems.append(f"q={q}: class {cls.label} metadata")
            orders = {element_order(g) for g in members}
            if orders != {want}:
                problems.append(f"q={q}: {cls.label} element orders {orders}")
    criterion(1, "class structure, brute force, q in 3..13", problems,
              f"slowest partition {max(times):.2f}s < 5s")


def test_criterion_2_character_table_validity(criterion):
    problems = []
    for q in Q_ALL:
        ct = complex_table(q)
        order = q ** 3 - q
        if sum(ct.degree(ch) ** 2 for ch in ct.chars) != order:
            problems.append(f"q={q}: degree sum")
        labels = ct.class_order
        sizes = {lab: ct.size(lab) for lab in labels}
        val = {(ch, lab): ct.value(ch, lab).promote(ct.conductor)
               for ch in ct.chars for lab in labels}
        conj = {key: v.conjugate() for key, v in val.items()}
        conj_sized = {(ch, lab): conj[(ch, lab)] * sizes[lab]
                      for ch in ct.chars for lab in labels}
        for i, ch1 in enumerate(ct.chars):
            for ch2 in ct.chars[i:]:
                acc = None
                for lab in labels:
                    term = val[(ch1, lab)] * conj_sized[(ch2, lab)]
                    acc = term if acc is None else acc + term
                if acc != (order if ch1 == ch2 else 0):
                    problems.append(f"q={q}: <{ch1},{ch2}>")
        for i, l1 in enumerate(labels):
            for l2 in labels[i:]:
                acc = None
                for ch in ct.chars:
                    term = val[(ch, l1)] * conj[(ch, l2)]
                    acc = term if acc is None else acc + term
                if acc != (order // sizes[l1] if l1 == l2 else 0):
                    problems.append(f"q={q}: columns <{l1},{l2}>")
    criterion(2, "degree sums and both orthogonality relations, exact",
              problems)


def test_criterion_3_frobenius_schur(criterion):
    problems = []
    for q in Q_ALL:
        ct = complex_table(q)
        got = {}
        for ch in ct.chars:
            closed = fs_indicator_closed(ct, ch)
            grouped = fs_indicator_brute(ct, ch)
            raw = fs_indicator_raw(ct, ch)
            if not closed == grouped == raw:
                problems.append(f"q={q} {ch}: {closed}/{grouped}/{raw}")
            got[str(ch)] = closed
        want = {"1": 1, "psi": 1}
        for i in range(1, (q - 3) // 2 + 1):
            want[f"chi_{i}"] = 1 if i % 2 == 0 else -1
        for j in range(1, (q - 1) // 2 + 1):
            want[f"theta_{j}"] = 1 if j % 2 == 0 else -1
        tail = (1, -1) if q % 4 == 1 else (0, 0)
        want.update({"xi_1": tail[0], "xi_2": tail[0],
                     "eta_1": tail[1], "eta_2": tail[1]})
        if got != want:
            problems.append(f"q={q}: trichotomy {got}")
    criterion(3, "FS indicators three ways plus trichotomy", problems)


def test_criterion_4_square_and_inverse_maps(criterion):
    problems = []
    for q in Q_ALL:
        lookup = class_label_lookup(q)
        sq, inv = square_class_map(q), inverse_class_map(q)
        for g in enumerate_group(q):
            if sq[lookup[g]] != lookup[g * g]:
                problems.append(f"q={q}: square map at {g}")
                break
        for g in enumerate_group(q):
            if inv[lookup[g]] != lookup[g.inverse()]:
                problems.append(f"q={q}: inverse map at {g}")
                break
    c7, c5 = rep_c(7), rep_c(5)
    if class_label_lookup(7)[c7 * c7].kind != "c":
        problems.append("c^2 should stay in (c) at q=7")
    if class_label_lookup(5)[c5 * c5].kind != "d":
        problems.append("c^2 should cross to (d) at q=5")
    criterion(4, "square and inverse class maps, elementwise", problems)


# the small-subgroup table, as printed for q = 5 and q = 7: columns
# TrivialH, ZH, CH, ZCH
FIRST_TABLE = {
    5: {
        "1": (1, 1, 1, 1),
        "psi": (5, 5, 1, 1),
        "2chi_1": (12, 0, 4, 0),
        "theta_2": (4, 4, 0, 0),
        "2theta_1": (8, 0, 0, 0),
        "xi_1": (3, 3, 1, 1),
        "xi_2": (3, 3, 1, 1),
        "2eta_1": (4, 0, 0, 0),
        "2eta_2": (4, 0, 0, 0),
    },
    7: {
        "1": (1, 1, 1, 1),
        "psi": (7, 7, 1, 1),
        "chi_2": (8, 8, 2, 2),
        "2chi_1": (16, 0, 4, 0),
        "theta_2": (6, 6, 0, 0),
        "2theta_1": (12, 0, 0, 0),
        "2theta_3": (12, 0, 0, 0),
        "2Re(xi_1)": (8, 0, 2, 0),
        "2Re(eta_1)": (6, 6, 0, 0),
    },
}


def test_criterion_5_real_table(criterion):
    problems = []
    for q in Q_ALL:
        rt = real_table(q)
        blocks = real_classes(q).blocks
        if len(rt.chars) != len(blocks):
            problems.append(f"q={q}: {len(rt.chars)} rows, "
                            f"{len(blocks)} real classes")
        for ch in rt.chars:
            for lab in rt.class_order:
                v = rt.value(ch, lab)
                if v.conjugate() != v:
                    problems.append(f"q={q}: {ch} at {lab} not real")
    for q, table in FIRST_TABLE.items():
        rt = real_table(q)
        if [str(ch) for ch in rt.chars] != list(table):
            problems.append(f"q={q}: row labels {[str(c) for c in rt.chars]}")
            continue
        for name, cells in table.items():
            ch = parse_real_char_label(name)
            got = tuple(fixed_dim_closed(q, ch, key)
                        for key in (TRIVIAL_H, Z_H, C_H, ZC_H))
            if got != cells:
                problems.append(f"q={q} {name}: {got} != {cells}")
    criterion(5, "real table rows and the q=5,7 small-subgroup table",
              problems)


def test_criterion_6_fixed_point_dimensions(criterion):
    problems = []
    elapsed_13 = None
    for q in Q_ALL:
        t0 = time.perf_counter()
        rt = real_table(q)
        lookup = class_label_lookup(q)
        degrees = {ch: rt.degree(ch) for ch in rt.chars}
        avg_cache = {}
        for g in enumerate_group(q):
            powers, h = [g], g
            while h != identity(q):
                h = h * g
                powers.append(h)
            counts = Counter(lookup[x] for x in powers)
            sig = tuple(sorted((str(lab), cnt) for lab, cnt in counts.items()))
            if sig not in avg_cache:
                n = len(powers)
                avgs = {}
                for ch in rt.chars:
                    acc = None
                    for lab, cnt in counts.items():
                        term = rt.value(ch, lab) * cnt
                        acc = term if acc is None else acc + term
                    avgs[ch] = (acc / n).as_rational()
                avg_cache[sig] = avgs
            avgs = avg_cache[sig]
            key = subgroup_key_of(g)
            for ch in rt.chars:
                avg = avgs[ch]
                if avg is None or avg.denominator != 1:
                    problems.append(f"q={q} {ch} <{key}>: average {avg}")
                    continue
                avg = int(avg)
                if fixed_dim_closed(q, ch, key) != avg:
                    problems.append(
                        f"q={q} {ch} <{key}>: closed "
                        f"{fixed_dim_closed(q, ch, key)} != {avg}")
                if not 0 <= avg <= degrees[ch]:
                    problems.append(f"q={q} {ch} <{key}>: {avg} out of range")
        if q == 13:
            elapsed_13 = time.perf_counter() - t0
            if elapsed_13 >= 60.0:
                problems.append(f"q=13 sweep took {elapsed_13:.1f}s")
    criterion(6, "closed fixed dims = averages over every cyclic subgroup",
              problems, f"q=13 sweep {elapsed_13:.1f}s < 60s")


def test_criterion_7_structural_facts(criterion):
    problems = []
    for q in Q_ALL:
        group = enumerate_group(q)
        involutions = [g for g in group if element_order(g) == 2]
        if involutions != [rep_z(q)]:
            problems.append(f"q={q}: involutions {involutions}")
        if rep_a(q) ** ((q - 1) // 2) != rep_z(q):
            problems.append(f"q={q}: a midpoint")
        from sl2q.grp import find_b
        if find_b(q) ** ((q + 1) // 2) != rep_z(q):
            problems.append(f"q={q}: b midpoint")
        # every subgroup of order 2q is some conjugate of <zc> or <zd>
        allowed = set()
        for seed in (rep_zc(q), rep_zd(q)):
            base = frozenset(seed ** k for k in range(2 * q))
            for h in group:
                allowed.add(frozenset(h * x * h.inverse() for x in base))
        for g in group:
            if element_order(g) == 2 * q:
                closure = frozenset(g ** k for k in range(2 * q))
                if closure not in allowed:
                    problems.append(f"q={q}: stray order-2q subgroup")
                    break
        # conjugation permutes the rows; its trace counts the real ones
        ct = complex_table(q)
        rows = {ch: tuple(ct.value(ch, lab) for lab in ct.class_order)
                for ch in ct.chars}
        trace = 0
        for ch, row in rows.items():
            conj_row = tuple(v.conjugate() for v in row)
            matches = [other for other, r in rows.items() if r == conj_row]
            if len(matches) != 1:
                problems.append(f"q={q}: conjugate of {ch} matches {matches}")
            elif matches[0] == ch:
                trace += 1
        if trace != (q + 4 if q % 4 == 1 else q):
            problems.append(f"q={q}: conjugation trace {trace}")
    criterion(7, "involution, order-2q subgroups, midpoints, trace", problems)


def test_criterion_8_kernel_properties(criterion):
    problems = []
    for q in [3, 5, 7, 11, 13]:
        eps = 1 if q % 4 == 1 else -1
        if sqrt_eps_q(q) * sqrt_eps_q(q) != eps * q:
            problems.append(f"gauss sum at q={q}")
    for r in range(3, 15):
        for s in range(r + 1):
            if nu(r, r - s) != nu(r, s):
                problems.append(f"nu({r},{r - s}) != nu({r},{s})")
    for n in [2, 3, 5, 7, 12]:
        for k in range(1, n):
            total = rational(0, conductor=n)
            for i in range(1, n):
                total = total + root_of_unity(n, i * k)
            if total != -1:
                problems.append(f"geometric sum n={n} k={k}")
    rng = random.Random(1729)
    conductors = [1, 3, 4, 5, 6, 8, 12]
    def draw():
        N = rng.choice(conductors)
        phi = len(cyclotomic_polynomial(N)) - 1
        return CycNum(N, [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                          for _ in range(phi)])
    for trial in range(1000):
        x, y, z = draw(), draw(), draw()
        ok = (x + y == y + x and x * y == y * x
              and (x + y) + z == x + (y + z)
              and (x * y) * z == x * (y * z)
              and x * (y + z) == x * y + x * z
              and x + 0 == x and x * 1 == x and x - x == 0)
        if not ok:
            problems.append(f"field axioms, trial {trial}")
            break
    criterion(8, "gauss sums, nu symmetry, geometric sums, field axioms",
              problems)
