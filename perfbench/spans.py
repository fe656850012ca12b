"""Span tracing of the sl2q layers, installed from outside the package.

``install`` replaces every binding of the traced public functions (module
globals across all ``sl2q`` modules, and ``CycNum`` methods on the class)
with a wrapper that records one span per call: name, start, end and the
span that was open when the call began.  Spans are kept in flat arrays in
memory; ``Tracer.summary`` reduces them once, at the end of the op, to
per-function calls and self time (duration minus the time covered by the
function's child spans).

Alongside the spans, a few exact counts are kept at the same boundaries:
kernel products (nnz(xs) * nnz(ys) per ``mul_reduce`` call), CycNum x
CycNum products and how many had two rational operands, the largest
cyclotomic degree built, and the group elements actually enumerated
(cache misses of ``enumerate_group`` only).
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute); a "CycNum." attribute names a method
TRACED = [
    ("kernel.mul_reduce", "sl2q._kernel", "mul_reduce"),
    ("cyclo.mul", "sl2q.cyclo", "CycNum.__mul__"),
    ("cyclo.add", "sl2q.cyclo", "CycNum.__add__"),
    ("cyclo.conjugate", "sl2q.cyclo", "CycNum.conjugate"),
    ("cyclo.promote", "sl2q.cyclo", "CycNum.promote"),
    ("cyclo.cyclotomic_polynomial", "sl2q.cyclo", "cyclotomic_polynomial"),
    ("grp.enumerate_group", "sl2q.grp", "enumerate_group"),
    ("grp.conjugacy_partition", "sl2q.grp", "conjugacy_partition"),
    ("grp.class_label_lookup", "sl2q.grp", "class_label_lookup"),
    ("grp.representatives", "sl2q.grp", "representatives"),
    ("chars.complex_table", "sl2q.chars", "complex_table"),
    ("chars.sym_str", "sl2q.chars", "sym_str"),
    ("chars.sym_latex", "sl2q.chars", "sym_latex"),
    ("realrep.real_table", "sl2q.realrep", "real_table"),
    ("realrep.fs_indicator_closed", "sl2q.realrep", "fs_indicator_closed"),
    ("realrep.fs_indicator_brute", "sl2q.realrep", "fs_indicator_brute"),
    ("realrep.fs_indicator_raw", "sl2q.realrep", "fs_indicator_raw"),
    ("realrep.real_char_labels", "sl2q.realrep", "real_char_labels"),
    ("fixdim.fixed_dim_closed", "sl2q.fixdim", "fixed_dim_closed"),
    ("fixdim.fixed_dim_average", "sl2q.fixdim", "fixed_dim_average"),
    ("fixdim.full_report", "sl2q.fixdim", "full_report"),
    ("verify.verify_all", "sl2q.verify", "verify_all"),
    ("cli.main", "sl2q.cli", "main"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self.originals: dict = {}
        self.counts = {"kernel.mul_reduce.products": 0, "cyclo.mul.cyc_pairs": 0,
                       "cyclo.mul.rational_pairs": 0, "cyclo.phi_max": 0,
                       "grp.elements": 0}

    def wrap(self, name: str, fn, after=None):
        """A function that records a span around ``fn``; ``after(args,
        result)`` runs outside the span to update the counts."""
        nid = len(self.names)
        self.names.append(name)
        start, end, name_id, parent, stack = (
            self.start, self.end, self.name_id, self.parent, self.stack)

        def traced(*args, **kwargs):
            i = len(start)
            start.append(0.0)
            end.append(0.0)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            stack.append(i)
            start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per traced function: calls and self time in seconds."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - covered[i]
        return {name: {"calls": calls[k], "self_s": self_s[k]}
                for k, name in enumerate(self.names)}

    def layers(self) -> dict:
        """Flat per-layer figures of this process: calls and self time of
        every traced function, the counts, and the table cache sizes."""
        out = {f"{name}.{k}": v for name, row in self.summary().items()
               for k, v in row.items()}
        out.update(self.counts)
        for name in ("chars.complex_table", "realrep.real_table"):
            out[f"{name}.cache_size"] = self.originals[name].cache_info().currsize
        return out


def _count_hook(tracer: Tracer, name: str, orig):
    counts = tracer.counts
    if name == "kernel.mul_reduce":
        def after(args, result):
            xs, ys = args[0], args[1]
            counts["kernel.mul_reduce.products"] += (
                (len(xs) - xs.count(0)) * (len(ys) - ys.count(0)))
        return after
    if name == "cyclo.mul":
        cycnum = sys.modules["sl2q.cyclo"].CycNum

        def after(args, result):
            a, b = args
            if isinstance(b, cycnum):
                counts["cyclo.mul.cyc_pairs"] += 1
                if not any(a.coeffs[1:]) and not any(b.coeffs[1:]):
                    counts["cyclo.mul.rational_pairs"] += 1
        return after
    if name == "cyclo.cyclotomic_polynomial":
        def after(args, result):
            counts["cyclo.phi_max"] = max(counts["cyclo.phi_max"], len(result) - 1)
        return after
    if name == "grp.enumerate_group":
        seen = [orig.cache_info().misses]

        def after(args, result):
            misses = orig.cache_info().misses
            if misses > seen[0]:
                counts["grp.elements"] += len(result)
                seen[0] = misses
        return after
    return None


def install(tracer: Tracer) -> None:
    """Route every binding of the TRACED functions through the tracer."""
    modules = [m for k, m in sys.modules.items()
               if (k == "sl2q" or k.startswith("sl2q.")) and m is not None]
    for name, module, attr in TRACED:
        owner = sys.modules[module]
        if attr.startswith("CycNum."):
            cls, method = owner.CycNum, attr.partition(".")[2]
            orig = cls.__dict__[method]
            wrapped = tracer.wrap(name, orig, _count_hook(tracer, name, orig))
            for k, v in list(cls.__dict__.items()):
                if v is orig:
                    setattr(cls, k, wrapped)
            continue
        orig = tracer.originals[name] = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, _count_hook(tracer, name, orig))
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapped)
