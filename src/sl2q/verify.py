"""Brute-force reconciliation of every closed form in the package.

``verify_all(q)`` enumerates SL2(q) and runs eleven independent checks,
from the group order up through fixed-point dimensions.  Each check is
crash-isolated: a failure (or an exception) is recorded and the rest of
the suite still runs.  Checks 3, 10 and 11 read one walk of the cyclic
subgroups, made on first use: each element's subgroup, and each
subgroup's order, first generator, class-label counts and (at order 2q)
element set; check 10 averages once per class profile, with the function
``full_report`` uses.  If the walk raises, each check that asks for it
fails on its own; the class lookup it counts labels with is fetched in a
guarded step, so a lookup that fails fails check 10 alone.

The orbit partition takes each class as the orbit of its representative
under conjugation by the two generators s = [[1,1],[0,1]] and
t = [[1,0],[1,1]]; check 2 confirms that s and t generate the enumerated
group, and that the orbits are disjoint, cover it and have the
closed-form sizes.  The raw Frobenius-Schur sum in check 7 deliberately
walks all q^3-q elements through that partition rather than trusting the
fast classifier; it is the ground-truth layer under the two closed
computations.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .chars import ETA1, ETA2, XI1, XI2, _json_schema, complex_table
from .cyclo import dot
from .fixdim import (_SUBGROUP_OF_CLASS, SubgroupKey, _averages, _profile,
                     fixed_dim_closed)
from .grp import (
    ZC, ZD, GroupElem, _generated_group, class_label_lookup, class_labels,
    class_of, conjugacy_partition, element_order, enumerate_group, find_b,
    powers, rep_a, rep_z, representatives, DEFAULT_MAX_ENUM,
)
from .realrep import (
    _power_class, fs_indicator_brute, fs_indicator_closed, fs_indicator_raw,
    inverse_class_map, real_classes, real_table, square_class_map,
)

__all__ = ["VerificationCheck", "VerificationReport", "verify_all"]


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    details: str


@dataclass(frozen=True)
class VerificationReport:
    q: int
    checks: tuple  # tuple[VerificationCheck, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": 2,
            "q": self.q,
            "checks": [{"name": c.name, "pass": c.passed, "details": c.details}
                       for c in self.checks],
            "overall": self.overall,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VerificationReport":
        _json_schema(obj, "verification report")
        return cls(obj["q"],
                   tuple(VerificationCheck(c["name"], c["pass"], c["details"])
                         for c in obj["checks"]))

    def to_text(self) -> str:
        lines = [f"verification of SL2({self.q})"]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name}: {c.details}")
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)

    def __str__(self):
        return self.to_text()


def _fail_list(bad: list, limit: int = 4) -> str:
    shown = "; ".join(str(x) for x in bad[:limit])
    more = f" (+{len(bad) - limit} more)" if len(bad) > limit else ""
    return shown + more


def _cyclic_walks(G):
    """Yield (g, i, walk) for each g of G, in order.

    i numbers the cyclic subgroup <g> among those met so far.  When g is
    the first element of G that generates <g>, walk is g, g^2, ..., g^n = 1;
    otherwise it is None.  The power g^k generates <g> exactly when
    gcd(k, n) = 1, so those elements are not walked again; each is kept
    only until the scan reaches it.
    """
    pending = {}   # generator not yet reached -> number of its subgroup
    count = 0
    for g in G:
        i = pending.pop(g, None)
        if i is not None:
            yield g, i, None
            continue
        walk = powers(g)
        n = len(walk)
        for k in range(2, n):
            if gcd(k, n) == 1:
                pending[walk[k - 1]] = count
        yield g, count, walk
        count += 1


class _Subgroup(NamedTuple):
    order: int
    generator: GroupElem   # the first element of G that generates it
    counts: Counter        # class label (None off the lookup) -> elements
    elements: frozenset | None   # kept at order 2q only, for check 11


def _walk_subgroups(G, label, q: int) -> tuple[list, list]:
    """The number of each element's cyclic subgroup, in G's order, and the
    subgroups by number, their labels counted by ``label``."""
    number, subgroups = [], []
    for g, i, walk in _cyclic_walks(G):
        if walk is not None:
            n = len(walk)
            subgroups.append(_Subgroup(n, g, Counter(map(label, walk)),
                                       frozenset(walk) if n == 2 * q else None))
        number.append(i)
    return number, subgroups


def _generator_keys(q: int, lab, n: int) -> dict:
    """{subgroup key: k} over the generators g^k of <g>, gcd(k, n) = 1,
    for g of class ``lab`` and order n; k is the least power with the key.

    On a torus g^k lies in the class of t^(lk) (``_power_class``); the
    other generator classes give one key whatever k is.
    """
    if lab.kind not in ("a", "b"):
        return {SubgroupKey(_SUBGROUP_OF_CLASS[lab.kind], lab.index): 1}
    keys = {}
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            power = _power_class(q, lab.kind, lab.index * k)
            keys.setdefault(
                SubgroupKey(_SUBGROUP_OF_CLASS[power.kind], power.index), k)
    return keys


def _profile_key_pairs(q: int, subgroups):
    """Each distinct (class profile, subgroup key) pair once, as
    (profile, key, subgroup, k): the first subgroup with the pair, whose
    generator's k-th power has the key.  A profile is ``fixdim._profile``
    of the class-label counts; class_of runs once per subgroup.
    """
    keys_of = {}   # (class of a generator, its order) -> _generator_keys
    seen = set()
    for sub in subgroups:
        sig = _profile(sub.counts)
        lab = class_of(sub.generator)
        keys = keys_of.get((lab, sub.order))
        if keys is None:
            keys = keys_of[lab, sub.order] = _generator_keys(q, lab, sub.order)
        for key, k in keys.items():
            if (sig, key) not in seen:
                seen.add((sig, key))
                yield sig, key, sub, k


def _order_2q_conjugates(part: dict) -> set:
    """The distinct subgroups h<r>h^-1 for r in {zc, zd} and h in G.

    h<r>h^-1 = <h r h^-1>, so these are the subgroups <x> for x in the
    orbits of zc and zd in the partition ``part``.  An element of order
    2q that lies in a cyclic subgroup of order 2q generates it, so an x
    inside a subgroup already found adds nothing; only the first x of
    each subgroup is walked.
    """
    target = set()
    covered = set()
    for label in (ZC, ZD):
        for x in part[label]:
            if x not in covered:
                S = frozenset(powers(x))
                target.add(S)
                covered |= S
    return target


def verify_all(q: int, max_enum: int = DEFAULT_MAX_ENUM) -> VerificationReport:
    """Run the whole suite; q must lie within the enumeration bound."""
    if q > max_enum:
        raise ValueError(
            f"q={q} exceeds the enumeration bound {max_enum}; "
            f"verification needs the full group")
    G = enumerate_group(q, max_enum)
    order = q ** 3 - q
    checks: list[VerificationCheck] = []

    walked = None

    def subgroups() -> tuple:
        """(element -> subgroup number, subgroups, lookup error), from one
        walk on first use, kept only once complete."""
        nonlocal walked
        if walked is None:
            try:
                label, error = class_label_lookup(q, max_enum).get, None
            except Exception as exc:  # for check 10 to raise, and no other
                label, error = (lambda h: None), exc
            walked = (*_walk_subgroups(G, label, q), error)
        return walked

    def run(name, fn):
        try:
            ok, details = fn()
        except Exception as exc:  # isolate: one crash must not stop the suite
            ok, details = False, f"crashed: {exc!r}"
        checks.append(VerificationCheck(name, ok, details))

    # (1) group order
    def check_group_order():
        n, ndist = len(G), len(set(G))
        ok = n == order == ndist
        return ok, f"|SL2({q})| = {n}, expected {order}, distinct {ndist}"
    run("group_order", check_group_order)

    # (2) conjugacy partition: q+4 classes, expected sizes and orders.
    # The orbits are taken under the generators s and t only, so their
    # closure must be all of G for the orbits to be the classes.
    def check_partition():
        part = conjugacy_partition(q, max_enum)
        reps = representatives(q)
        bad = []
        if _generated_group(q) != set(G):
            bad.append("s and t do not generate the enumerated group")
        if set(part) != set(class_labels(q)):
            bad.append("label set mismatch")
        if len(part) != q + 4:
            bad.append(f"{len(part)} classes, expected {q + 4}")
        union = set()
        total = 0
        for cls in reps:
            orbit = part[cls.label]
            if len(orbit) != cls.size:
                bad.append(f"|{cls.label}| = {len(orbit)}, expected {cls.size}")
            if cls.representative not in orbit:
                bad.append(f"representative of {cls.label} not in its orbit")
            if element_order(cls.representative) != cls.element_order:
                bad.append(f"order of {cls.label} rep is "
                           f"{element_order(cls.representative)}, "
                           f"expected {cls.element_order}")
            union |= orbit
            total += len(orbit)
        if not (total == len(union) == order):
            bad.append(f"orbits cover {len(union)} of {order} elements")
        if bad:
            return False, _fail_list(bad)
        sizes = ",".join(str(c.size) for c in reps)
        return True, f"{q + 4} classes, disjoint cover; sizes {sizes}"
    run("class_partition", check_partition)

    # (3) unique involution, and where it sits in the torus chains
    def check_involution():
        z = rep_z(q)
        number, subs, _ = subgroups()
        invs = [g for g, i in zip(G, number) if subs[i].order == 2]
        ok = invs == [z]
        ok = ok and rep_a(q) ** ((q - 1) // 2) == z
        ok = ok and find_b(q) ** ((q + 1) // 2) == z
        side = ("a^((q-1)/2) = z (z lies in the split torus chain)"
                if q % 4 == 1 else
                "b^((q+1)/2) = z (z lies in the non-split torus chain)")
        return ok, f"unique involution is z; {side}; both torus midpoints checked"
    run("unique_involution", check_involution)

    # (4) square and inverse class maps, elementwise
    def check_maps():
        lookup = class_label_lookup(q, max_enum)
        sq = square_class_map(q)
        inv = inverse_class_map(q)
        bad = []
        for g in G:
            lab = lookup[g]
            if lookup[g * g] != sq[lab]:
                bad.append(f"square map wrong on {g!r}")
            if lookup[g.inverse()] != inv[lab]:
                bad.append(f"inverse map wrong on {g!r}")
        if bad:
            return False, _fail_list(bad)
        return True, f"g -> g^2 and g -> g^-1 agree classwise for all {order} elements"
    run("square_inverse_maps", check_maps)

    ct = complex_table(q)
    labels = ct.class_order
    sizes = [cls.size for cls in ct.classes]
    # each value at its natural conductor (1, q-1, q or q+1): an inner
    # product below gathers its terms at the lcm of the conductors it
    # meets, at most q(q+1), never at the working conductor N
    rows = ct.rows
    conj_rows = {ch: tuple(v.conjugate() for v in row)
                 for ch, row in rows.items()}
    conj_sized = {ch: tuple(v * n for v, n in zip(row, sizes))
                  for ch, row in conj_rows.items()}

    # (5) orthogonality, rows and columns, exact
    def check_orthogonality():
        bad = []
        for i, ch1 in enumerate(ct.chars):
            for ch2 in ct.chars[i:]:
                acc = dot(zip(rows[ch1], conj_sized[ch2]))
                want = order if ch1 == ch2 else 0
                if acc != want:
                    bad.append(f"<{ch1},{ch2}> != {want}")
        cols = list(zip(*rows.values()))
        conj_cols = list(zip(*conj_rows.values()))
        for i, l1 in enumerate(labels):
            for j in range(i, len(labels)):
                acc = dot(zip(cols[i], conj_cols[j]))
                want = order // sizes[i] if i == j else 0
                if acc != want:
                    bad.append(f"column <{l1},{labels[j]}> != {want}")
        if bad:
            return False, _fail_list(bad)
        return True, (f"{len(ct.chars)} rows and {len(labels)} columns "
                      f"orthogonal at conductor {ct.conductor}")
    run("orthogonality", check_orthogonality)

    # (6) sum of squared degrees
    def check_degree_sum():
        s = sum(ct.degree(ch) ** 2 for ch in ct.chars)
        degs = ",".join(str(ct.degree(ch)) for ch in ct.chars)
        return s == order, f"sum deg^2 = {s}, expected {order} (degrees {degs})"
    run("degree_sum", check_degree_sum)

    # (7) Frobenius-Schur indicators three ways, plus the trichotomy
    def check_fs():
        bad = []
        got = {}
        for ch in ct.chars:
            closed = fs_indicator_closed(ct, ch)
            grouped = fs_indicator_brute(ct, ch)
            raw = fs_indicator_raw(ct, ch, max_enum)
            if not (closed == grouped == raw):
                bad.append(f"{ch}: closed {closed}, grouped {grouped}, raw {raw}")
            got[ch] = closed
        # chi_i, theta_j by index parity; xi, eta complex for q = 3 mod 4
        pair = 1 if q % 4 == 1 else 0
        expect = {"1": 1, "psi": 1, "xi1": pair, "xi2": pair,
                  "eta1": -pair, "eta2": -pair}
        for ch in ct.chars:
            want = expect[ch.kind] if ch.kind in expect else (-1) ** ch.index
            if got[ch] != want:
                bad.append(f"{ch}: indicator {got[ch]}, expected {want}")
        if bad:
            return False, _fail_list(bad)
        n = Counter(got.values())
        return True, (f"closed = grouped = raw for all {len(got)} characters; "
                      f"{n[1]} orthogonal, {n[-1]} quaternionic, {n[0]} complex")
    run("fs_indicators", check_fs)

    # (8) conjugation permutation on rows: trace q+4 or q
    def check_conjugation_trace():
        perm = {}
        for ch in ct.chars:
            matches = [ch2 for ch2 in ct.chars if rows[ch2] == conj_rows[ch]]
            if len(matches) != 1:
                return False, f"conjugate of {ch} matches {len(matches)} rows"
            perm[ch] = matches[0]
        if sorted(map(str, perm.values())) != sorted(map(str, ct.chars)):
            return False, "conjugation is not a permutation of the rows"
        trace = sum(1 for ch, im in perm.items() if ch == im)
        moved = sorted(str(ch) for ch, im in perm.items() if ch != im)
        want_trace = q + 4 if q % 4 == 1 else q
        want_moved = [] if q % 4 == 1 else sorted(map(str, (XI1, XI2, ETA1, ETA2)))
        ok = trace == want_trace and moved == want_moved
        return ok, (f"trace {trace}, expected {want_trace}; "
                    f"non-real rows {moved or 'none'}")
    run("conjugation_trace", check_conjugation_trace)

    # (9) real table: conjugation-fixed rows, one per real class block
    def check_real_table():
        rt = real_table(q)
        blocks = real_classes(q)
        bad = []
        for ch in rt.chars:
            for lab in labels:
                v = rt.value(ch, lab)
                if v.conjugate() != v:
                    bad.append(f"{ch} not real at {lab}")
        for block in blocks.blocks:
            if len(block) == 1:
                continue
            l1, l2 = sorted(block, key=str)
            for ch in rt.chars:
                if rt.value(ch, l1) != rt.value(ch, l2):
                    bad.append(f"{ch} differs across merged block {l1},{l2}")
        if len(rt.chars) != blocks.count:
            bad.append(f"{len(rt.chars)} rows vs {blocks.count} real classes")
        want = q + 4 if q % 4 == 1 else q + 2
        if blocks.count != want:
            bad.append(f"{blocks.count} real classes, expected {want}")
        if bad:
            return False, _fail_list(bad)
        note = ""
        if q == 3:
            note = ("; literature-note: at q=3 the b-range is m=1 only, "
                    "so the count is q+2 = 5")
        return True, f"{len(rt.chars)} real rows = {blocks.count} real classes{note}"
    run("real_table_rows", check_real_table)

    # (10) fixed dims: closed = average for every cyclic subgroup, under
    # the key of each of its generators
    def check_fixed_dims():
        _, subs, error = subgroups()
        if error is not None:
            raise error
        rt = real_table(q)
        memo = {}   # class profile -> averages, shared by conjugate subgroups
        bad = []
        for _, skey, sub, k in _profile_key_pairs(q, subs):
            try:
                if None in sub.counts:
                    raise ValueError("meets an element outside every orbit")
                avgs = _averages(rt, sub.counts, memo)
            except ValueError as exc:
                bad.append(f"<{sub.generator!r}> under {skey}: {exc}")
                continue
            for ch, avg in zip(rt.chars, avgs):
                if (closed := fixed_dim_closed(q, ch, skey)) != avg:
                    bad.append(f"dim {ch}^{skey}: closed {closed}, average "
                               f"{avg} (generator {sub.generator ** k!r})")
        if bad:
            return False, _fail_list(bad)
        return True, (f"{len(subs)} distinct cyclic subgroups from "
                      f"{order} generators ({len(memo)} class profiles); "
                      f"every average integral, in range, and equal to the "
                      f"closed form")
    run("fixed_dims", check_fixed_dims)

    # (11) order-2q subgroups are conjugates of <zc> or <zd>
    def check_order_2q():
        target = _order_2q_conjugates(conjugacy_partition(q, max_enum))
        number, subs, _ = subgroups()
        n = 0
        bad = []
        for g, i in zip(G, number):
            if subs[i].order != 2 * q:
                continue
            n += 1
            if subs[i].elements not in target:
                bad.append(f"<{g!r}> not conjugate to <zc> or <zd>")
        if bad:
            return False, _fail_list(bad)
        return True, (f"{n} elements of order {2 * q}, {len(target)} subgroup "
                      f"conjugates, all accounted for")
    run("order_2q_subgroups", check_order_2q)

    return VerificationReport(q, tuple(checks))
