"""Brute-force reconciliation of every closed form in the package.

``verify_all(q)`` enumerates SL2(q) and runs eleven independent checks,
from the group order up through fixed-point dimensions.  Each check is
crash-isolated: a failure (or an exception) is recorded and the rest of
the suite still runs.  The group passes run on plain (a, b, c, d) tuples,
and every |G|-sized container is an array indexed by the element's rank
(``grp._rank``).  Each class is the orbit of its representative under
conjugation by s = [[1,1],[0,1]] and t = [[1,0],[1,1]] (check 2 confirms
the orbits).  Checks 3, 10 and 11 read one walk of the cyclic subgroups,
made on first use from the maximal ones (orders q-1, q+1 and 2q): each
rank's subgroup number, and each subgroup's order, a generator and class
profile.  Checks 10 and 11 read the class of each generator from the
orbits; check 10 averages once per class profile, with the function
``full_report`` uses.  If the walk raises, each check that asks for it
fails on its own; the class indices it counts with are fetched in a
guarded step, so a partition that fails still leaves check 3 its walk.
Check 5 sums the column orthogonality relations only when the row sums
cannot imply them, and check 7's raw indicator sum walks every element.
"""
from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, compress, count, repeat
from math import gcd
from typing import NamedTuple

from .chars import (ETA1, ETA2, JSON_SCHEMA, XI1, XI2, _json_schema,
                    complex_table)
from .cyclo import dot
from .fixdim import (_SUBGROUP_OF_CLASS, SubgroupKey, _averages, _degrees,
                     _key_column, _profile)
from .grp import (
    _FREE, ZC, ZD, _check_enumerable, _class_indices, _elem,
    _entries, _generated_ranks, _lex_tuples, _power_ranks, _rank,
    _square_classes, class_labels, class_of, element_order, find_b, rep_a,
    rep_z, representatives, DEFAULT_MAX_ENUM,
)
from .labels import _Record
from .realrep import (
    fs_indicator_brute, fs_indicator_closed, fs_indicator_raw,
    inverse_class_map, real_classes, real_table, square_class_map,
)

__all__ = ["VerificationCheck", "VerificationReport", "verify_all"]


class VerificationCheck(_Record):
    __slots__ = _FIELDS = ("name", "passed", "details")


class VerificationReport(_Record):
    __slots__ = _FIELDS = ("q", "checks")   # checks: VerificationChecks

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": JSON_SCHEMA,
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

    __str__ = to_text


_SHOWN = 4   # the failures a check words; a pass over G counts the rest


def _fail_list(bad: list, count: int | None = None) -> str:
    """The first _SHOWN failures in ``bad``, and how many more of ``count``
    (len(bad) by default) there are."""
    count = len(bad) if count is None else count
    shown = "; ".join(str(x) for x in bad[:_SHOWN])
    more = f" (+{count - _SHOWN} more)" if count > _SHOWN else ""
    return shown + more


_UNWALKED = 0xFFFFFFFF   # the subgroup number of a rank not yet walked


class _Subgroup(NamedTuple):
    order: int
    rank: int              # of the generator it was numbered from
    profile: frozenset     # ``fixdim._profile``; label None off the partition


def _walk_subgroups(q: int, cls) -> tuple[array, list]:
    """The number of each rank's cyclic subgroup, and the subgroups by
    number, each profile read once per distinct count from the class
    indices ``cls`` (None puts every element under None).

    A walk of g, g^2, ..., g^n = 1 numbers each subgroup <g^d>, d | n,
    not numbered before, at all of its generators.  Every element lies in
    a maximal cyclic subgroup, of order q-1, q+1 or 2q, so the walks start
    from the ranks of the classes of those orders (``representatives``;
    check 2 confirms them), then a scan of every rank numbers what is left.
    """
    label_of = {**dict(enumerate(class_labels(q))), _FREE: None}
    profiles = {}     # sorted class indices -> profile
    steps = {}        # n -> (d, the k < n/d with gcd(k, n/d) = 1) per d | n
    number = array("I", [_UNWALKED]) * (q ** 3 - q)
    subgroups = []
    first = ()
    if cls is not None:
        top = {i for i, c in enumerate(representatives(q))
               if c.element_order in (q - 1, q + 1, 2 * q)}
        first = compress(count(), map(top.__contains__, cls))
    for r in chain(first, range(len(number))):
        if number[r] != _UNWALKED:
            continue
        g = _entries(q, r)
        walk = _power_ranks(q, g)
        n = len(walk)
        if n not in steps:
            steps[n] = [(d, [k for k in range(n // d)
                             if gcd(k + 1, n // d) == 1])
                        for d in range(1, n + 1) if n % d == 0]
        classes = (list(map(cls.__getitem__, walk)) if cls is not None
                   else [_FREE] * n)
        for d, coprime in steps[n]:
            if number[walk[d - 1]] != _UNWALKED:
                continue
            ranks = walk[d - 1::d]
            i = len(subgroups)
            for k in coprime:
                number[ranks[k]] = i
            key = tuple(sorted(classes[d - 1::d]))
            if key not in profiles:
                profiles[key] = _profile(Counter(map(label_of.get, key)))
            subgroups.append(_Subgroup(len(ranks), ranks[0], profiles[key]))
    return number, subgroups


def _profile_key_pairs(q: int, subgroups, cls):
    """Each distinct (class profile, subgroup key) pair once, as
    (profile, key, subgroup, rank): the first subgroup with the pair, and
    its first generator with the key.  <g> is walked once per (profile,
    class of g, order), and each generator's class is read from the class
    indices ``cls``, or by class_of at a rank no orbit reached."""
    labels = class_labels(q)
    keys = [SubgroupKey(_SUBGROUP_OF_CLASS[lab.kind], lab.index)
            for lab in labels]

    def index(r):
        i = cls[r]
        if i == _FREE:
            i = labels.index(class_of(_elem(q, _entries(q, r))))
        return i

    done = set()
    seen = set()
    for sub in subgroups:
        sig, n = sub.profile, sub.order
        step = (sig, index(sub.rank), n)
        if step in done:
            continue
        done.add(step)
        # g^k generates <g> when gcd(k, n) = 1
        coprime = map((1).__eq__, map(gcd, range(1, n + 1), repeat(n)))
        for r in compress(_power_ranks(q, _entries(q, sub.rank)), coprime):
            key = keys[index(r)]
            if (sig, key) not in seen:
                seen.add((sig, key))
                yield sig, key, sub, r


def verify_all(q: int, max_enum: int = DEFAULT_MAX_ENUM) -> VerificationReport:
    """Run the whole suite; q must lie within the enumeration bound."""
    _check_enumerable(q, max_enum)
    order = q ** 3 - q
    checks: list[VerificationCheck] = []

    walked = None

    def subgroups() -> tuple:
        """(rank -> subgroup number, subgroups, partition error), from one
        walk on first use, kept only once complete."""
        nonlocal walked
        if walked is None:
            try:
                cls, error = _class_indices(q), None
            except Exception as exc:  # for check 10 to raise, and no other
                cls, error = None, exc
            walked = (*_walk_subgroups(q, cls), error)
        return walked

    def run(name, fn):
        try:
            ok, details = fn()
        except Exception as exc:  # isolate: one crash must not stop the suite
            ok, details = False, f"crashed: {exc!r}"
        checks.append(VerificationCheck(name, ok, details))

    # (1) group order
    def check_group_order():
        n, seen = 0, bytearray(order)
        for n, (a, b, c, d) in enumerate(_lex_tuples(q), 1):
            if (a * d - b * c) % q == 1:
                seen[(a * q + b) * q + (c if a else d) - q] = 1   # _rank
        ndist = seen.count(1)
        ok = n == order == ndist
        return ok, f"|SL2({q})| = {n}, expected {order}, distinct {ndist}"
    run("group_order", check_group_order)

    # (2) conjugacy partition: q+4 classes, expected sizes and orders.
    # The orbits are taken under the generators s and t only, so their
    # closure must be all of G for the orbits to be the classes.
    def check_partition():
        index = _class_indices(q)
        reps = representatives(q)
        bad = []
        if _generated_ranks(q) != bytearray(b"\1") * order:
            bad.append("s and t do not generate the enumerated group")
        if {cls.label for cls in reps} != set(class_labels(q)):
            bad.append("label set mismatch")
        if len(reps) != q + 4:
            bad.append(f"{len(reps)} classes, expected {q + 4}")
        sizes = Counter(index)   # disjoint: each rank holds one class
        for i, cls in enumerate(reps):
            if sizes[i] != cls.size:
                bad.append(f"|{cls.label}| = {sizes[i]}, expected {cls.size}")
            if index[_rank(q, cls.representative[1:])] != i:
                bad.append(f"representative of {cls.label} not in its orbit")
            if element_order(cls.representative) != cls.element_order:
                bad.append(f"order of {cls.label} rep is "
                           f"{element_order(cls.representative)}, "
                           f"expected {cls.element_order}")
        if sizes[_FREE]:
            bad.append(f"orbits cover {order - sizes[_FREE]} of {order} elements")
        if bad:
            return False, _fail_list(bad)
        sizes = ",".join(str(c.size) for c in reps)
        return True, f"{q + 4} classes, disjoint cover; sizes {sizes}"
    run("class_partition", check_partition)

    # (3) unique involution, and where it sits in the torus chains
    def check_involution():
        z = rep_z(q)
        number, subs, _ = subgroups()
        twos = {i for i, sub in enumerate(subs) if sub.order == 2}
        invs = list(compress(count(), map(twos.__contains__, number)))
        ok = invs == [_rank(q, z[1:])]
        ok = ok and rep_a(q) ** ((q - 1) // 2) == z
        ok = ok and find_b(q) ** ((q + 1) // 2) == z
        side = ("a^((q-1)/2) = z (z lies in the split torus chain)"
                if q % 4 == 1 else
                "b^((q+1)/2) = z (z lies in the non-split torus chain)")
        return ok, f"unique involution is z; {side}; both torus midpoints checked"
    run("unique_involution", check_involution)

    # (4) square and inverse class maps, elementwise
    def check_maps():
        index = _class_indices(q)
        square = _square_classes(q)
        labels = class_labels(q)
        at = {lab: i for i, lab in enumerate(labels)}
        sq = [at[square_class_map(q)[lab]] for lab in labels]
        inv = [at[inverse_class_map(q)[lab]] for lab in labels]
        bad, n = [], 0   # the first _SHOWN messages, and the count
        for r, g in enumerate(_lex_tuples(q)):
            i = index[r]
            if square[r] != sq[i]:
                n += 1
                if n <= _SHOWN:
                    bad.append(f"square map wrong on {_elem(q, g)!r}")
            a, b, c, d = g
            # the rank of g^-1 = (d, -b, -c, a)
            if index[(d * q + -b % q) * q + (-c % q if d else a) - q] != inv[i]:
                n += 1
                if n <= _SHOWN:
                    bad.append(f"inverse map wrong on {_elem(q, g)!r}")
        if n:
            return False, _fail_list(bad, count=n)
        return True, f"g -> g^2 and g -> g^-1 agree classwise for all {order} elements"
    run("square_inverse_maps", check_maps)

    ct = complex_table(q)
    labels = ct.class_order
    sizes = [cls.size for cls in ct.classes]
    # each value at its natural conductor (1, q-1, q or q+1): an inner
    # product below gathers its terms at the lcm of the conductors it
    # meets, at most q(q+1), never at the working conductor N
    rows = dict(ct.by_row([v for v, _ in ct.pool]))
    conj_rows = dict(ct.by_row([v.conjugate() for v, _ in ct.pool]))

    # (5) orthogonality, exact.  The row relations say X·D·X̄ᵀ = |G|·I,
    # X the table and D the class sizes; the loop sums only i <= j, as
    # conjugate is an involutive automorphism.  For a square X that makes
    # X invertible with inverse D·X̄ᵀ/|G|, so X̄ᵀ·X = |G|·D⁻¹: the column
    # relations follow (Isaacs, Character Theory of Finite Groups, ch. 2),
    # and the want order // size is |G|/size when every size divides |G|.
    # So the columns are summed only when a row sum fails, the table is
    # not square, or a class size is not a positive divisor of |G|.
    def check_orthogonality():
        n = len(labels)
        bad = [f"row {ch} has {len(rows[ch])} entries for {n} classes"
               for ch in ct.chars if len(rows[ch]) != n]
        if bad:
            return False, _fail_list(bad)
        for i, ch1 in enumerate(ct.chars):
            for ch2 in ct.chars[i:]:
                acc = dot(zip(rows[ch1], conj_rows[ch2], sizes))
                want = order if ch1 == ch2 else 0
                if acc != want:
                    bad.append(f"<{ch1},{ch2}> != {want}")
        if bad or len(ct.chars) != n or not all(
                s > 0 and order % s == 0 for s in sizes):
            cols = list(zip(*rows.values()))
            conj_cols = list(zip(*conj_rows.values()))
            for i, l1 in enumerate(labels):
                for j in range(i, n):
                    acc = dot(zip(cols[i], conj_cols[j], repeat(1)))
                    want = order // sizes[i] if i == j else 0
                    if acc != want:
                        bad.append(f"column <{l1},{labels[j]}> != {want}")
        if bad:
            return False, _fail_list(bad)
        return True, (f"{len(ct.chars)} rows and {n} columns "
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
        unreal = {i for i, (v, _) in enumerate(rt.pool) if v.conjugate() != v}
        bad = [f"{ch} not real at {lab}" for ch, idx in rt.index.items()
               for lab, i in zip(labels, idx) if i in unreal]
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
        degrees = _degrees(rt)
        memo = {}   # class profile -> averages, shared by conjugate subgroups
        bad = []
        for profile, skey, sub, r in _profile_key_pairs(q, subs,
                                                          _class_indices(q)):
            counts = dict(profile)
            try:
                if None in counts:
                    raise ValueError("meets an element outside every orbit")
                avgs = _averages(rt, degrees, counts, memo)
            except ValueError as exc:
                g = _elem(q, _entries(q, sub.rank))
                bad.append(f"<{g!r}> under {skey}: {exc}")
                continue
            for ch, closed, avg in zip(rt.chars, _key_column(q, skey), avgs):
                if closed != avg:
                    g = _elem(q, _entries(q, r))
                    bad.append(f"dim {ch}^{skey}: closed {closed}, average "
                               f"{avg} (generator {g!r})")
        if bad:
            return False, _fail_list(bad)
        return True, (f"{len(subs)} distinct cyclic subgroups from "
                      f"{order} generators ({len(memo)} class profiles); "
                      f"every average integral, in range, and equal to the "
                      f"closed form")
    run("fixed_dims", check_fixed_dims)

    # (11) order-2q subgroups are conjugates of <zc> or <zd>: a generator
    # x in the orbit of zc (zd) makes <x> = h<zc>h^-1 (h<zd>h^-1)
    def check_order_2q():
        cls = _class_indices(q)
        pair = {i for i, c in enumerate(representatives(q))
                if c.label in (ZC, ZD)}
        number, subs, _ = subgroups()
        big = {i for i, sub in enumerate(subs) if sub.order == 2 * q}
        n, bad, nbad = 0, [], 0   # the first _SHOWN messages, and the count
        for r in compress(count(), map(big.__contains__, number)):
            n += 1
            if cls[r] not in pair:
                nbad += 1
                if nbad <= _SHOWN:
                    bad.append(f"<{_elem(q, _entries(q, r))!r}> not "
                               f"conjugate to <zc> or <zd>")
        if nbad:
            return False, _fail_list(bad, count=nbad)
        return True, (f"{n} elements of order {2 * q}, {len(big)} subgroup "
                      f"conjugates, all accounted for")
    run("order_2q_subgroups", check_order_2q)

    return VerificationReport(q, tuple(checks))
