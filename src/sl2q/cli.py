"""Command-line front end: exact SL2(q) tables in four output formats.

Subcommands: classes, char-table, real-table, fs, fixed-points, verify.
Formats: text (symbolic cells plus an advisory decimal legend), json
(exact coefficient vectors, round-trippable), csv (long form, quoted),
latex (tabular in the classical layout).

Text and csv modes render cells in a small stable grammar:

    rational      "3", "-1/2"
    nu terms      "nu(r,s)"  = zeta_r^s + zeta_r^-s, with coefficient
                  as in "2*nu(14,3)", "-nu(6,1)"
    square roots  "(1+sqrt(5))/2", "-1+sqrt(-7)"  where the radicand
                  is eps*q = (-1)^((q-1)/2) * q

Exit codes: 0 success (verify: all checks passed), 1 usage error (or,
as a last resort, running out of memory), 2 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from json.encoder import encode_basestring_ascii
from math import isfinite

from .chars import complex_table, sym_latex, sym_str
from .cyclo import CycNum
from .fixdim import full_report
from .grp import DEFAULT_MAX_ENUM, representatives
from .realrep import fs_indicator_closed, fs_indicator_raw, real_table
from .verify import verify_all

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; reserve 2 for
    # verification failures and report usage problems as 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="sl2q",
        description="Exact conjugacy classes, character tables, "
                    "Frobenius-Schur indicators and fixed-point dimensions "
                    "for SL2(q), q an odd prime.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    specs = [
        ("classes", "conjugacy classes: label, representative, order, size"),
        ("char-table", "complex irreducible character table"),
        ("real-table", "real irreducible character table"),
        ("fs", "Frobenius-Schur indicators"),
        ("fixed-points", "fixed-point dimensions for cyclic subgroups"),
        ("verify", "run the brute-force verification suite"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("q", type=int, help="an odd prime")
        p.add_argument("--format", dest="fmt", default="text",
                       choices=["text", "json", "csv", "latex"],
                       help="output format (default: text)")
        p.add_argument("--max-enum", dest="max_enum", type=int,
                       default=DEFAULT_MAX_ENUM,
                       help="largest q for which the group is enumerated "
                            f"(default: {DEFAULT_MAX_ENUM})")
    return parser


# ---------------------------------------------------------------------------
# shared renderers

_ADVISORY = "# decimal approximations are advisory; exact values live in json mode"


def _text_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _print_csv(headers: list[str], rows, comment: str | None = None) -> None:
    if comment:
        print(comment)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)


def _latex_table(headers: list[str], rows: list[list[str]]) -> str:
    colspec = "l" + "r" * (len(headers) - 1)
    lines = [f"\\begin{{tabular}}{{{colspec}}}", "\\hline"]
    lines.append(" & ".join(headers) + " \\\\")
    lines.append("\\hline")
    for row in rows:
        lines.append(" & ".join(row) + " \\\\")
    lines.append("\\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < 1e-9:
        return f"{z.real:.6f}"
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _class_latex(s: str) -> str:
    if "^" in s:
        base, _, exp = s.partition("^")
        return f"${base}^{{{exp}}}$"
    if s == "1":
        return "$1$"
    return f"${s}$"


def _char_latex(s: str) -> str:
    greek = {"psi": "\\psi", "chi": "\\chi", "theta": "\\theta",
             "xi": "\\xi", "eta": "\\eta"}
    if s == "1":
        return "$\\mathbf{1}$"
    for plain, tex in greek.items():
        if s == plain:
            return f"${tex}$"
        if s.startswith(plain + "_"):
            return f"${tex}_{{{s[len(plain) + 1:]}}}$"
        if s.startswith("2" + plain + "_"):
            return f"$2{tex}_{{{s[len(plain) + 2:]}}}$"
        if s.startswith("2Re(" + plain):
            inner = s[4:-1]
            return f"$2\\mathrm{{Re}}\\,{greek[plain]}_{{{inner.partition('_')[2]}}}$"
    return f"${s}$"


def _matrix_str(g) -> str:
    a, b, c, d = g.to_tuple()
    return f"[[{a},{b}],[{c},{d}]]"


def _matrix_latex(g) -> str:
    a, b, c, d = g.to_tuple()
    return (f"$\\left(\\begin{{smallmatrix}}{a}&{b}\\\\{c}&{d}"
            f"\\end{{smallmatrix}}\\right)$")


# ---------------------------------------------------------------------------
# json output

_CONTAINERS = (dict, list, tuple)


def _json_scalar(o) -> str:
    """json.dumps(o) for a str, None, bool, int or float."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return float.__repr__(o) if isfinite(o) else json.dumps(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _shared_containers(obj) -> set:
    """ids of the containers that occur more than once in obj."""
    seen, shared = set(), set()
    stack = [obj] if isinstance(obj, _CONTAINERS) else []
    while stack:
        o = stack.pop()
        if id(o) in seen:
            shared.add(id(o))
            continue
        seen.add(id(o))
        stack.extend(m for m in (o.values() if isinstance(o, dict) else o)
                     if isinstance(m, _CONTAINERS))
    return shared


def _print_json(obj) -> None:
    """Write json.dumps(obj, indent=2) and a newline to stdout, piece by piece.

    The document and each of its members are written one member at a
    time; anything nested deeper is encoded as one string per member, so
    the whole document is never held at once.  A container that occurs
    more than once (by identity) is encoded once per nesting level, as
    the shared cells of ``CharTable.to_json`` are.  Keys must be str.
    """
    shared = _shared_containers(obj)
    memo = {}   # (id, level) -> text of a shared container

    def text(o, level: int) -> str:
        """o nested ``level`` deep, as one string."""
        if not isinstance(o, _CONTAINERS):
            return _json_scalar(o)
        key = (id(o), level)
        out = memo.get(key)
        if out is None:
            out = "".join(pieces(o, level, 0))
            if id(o) in shared:
                memo[key] = out
        return out

    def pieces(o, level: int, split: int):
        """o's text in pieces; members ``split`` levels down get their own."""
        if not isinstance(o, _CONTAINERS):
            yield _json_scalar(o)
            return
        if not o:
            yield "{}" if isinstance(o, dict) else "[]"
            return
        inner = "\n" + "  " * (level + 1)
        close = "\n" + "  " * level + ("}" if isinstance(o, dict) else "]")
        if isinstance(o, dict):
            head = "{" + inner
            members = ((encode_basestring_ascii(k) + ": ", v)
                       for k, v in o.items())
        else:
            if isinstance(o[0], str):
                try:
                    body = ("," + inner).join(map(encode_basestring_ascii, o))
                except TypeError:   # not all of them are str
                    pass
                else:
                    yield "[" + inner + body + close
                    return
            head = "[" + inner
            members = (("", v) for v in o)
        for prefix, v in members:
            if split and isinstance(v, _CONTAINERS) and v and id(v) not in shared:
                yield head + prefix
                yield from pieces(v, level + 1, split - 1)
            else:
                yield head + prefix + text(v, level + 1)
            head = "," + inner
        yield close

    write = sys.stdout.write
    for piece in pieces(obj, 0, 2):
        write(piece)
    write("\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classes(args) -> int:
    reps = representatives(args.q)
    if args.fmt == "json":
        _print_json({
            "q": args.q,
            "classes": [{"label": str(c.label),
                         "representative": list(c.representative.to_tuple()),
                         "order": c.element_order,
                         "size": c.size} for c in reps],
        })
        return 0
    headers = ["label", "representative", "order", "size"]
    rows = [[str(c.label), _matrix_str(c.representative),
             str(c.element_order), str(c.size)] for c in reps]
    if args.fmt == "csv":
        _print_csv(headers, rows)
    elif args.fmt == "latex":
        tex_rows = [[_class_latex(str(c.label)), _matrix_latex(c.representative),
                     str(c.element_order), str(c.size)] for c in reps]
        print(_latex_table(headers, tex_rows))
    else:
        print(_text_table(headers, rows))
    return 0


def _cmd_table(table, fmt: str) -> int:
    """Both character tables, in all four formats."""
    if fmt == "json":
        _print_json(table.to_json())
        return 0
    labels = table.class_order
    if fmt == "csv":
        approx = table.serial_map(CycNum.approx)
        rows = []
        for ch in table.chars:
            for lab in labels:
                v = approx[(ch, lab)]
                rows.append([str(ch), str(lab),
                             sym_str(table.symbolic[(ch, lab)]),
                             f"{v.real:.9g}", f"{v.imag:.9g}"])
        _print_csv(["char", "class", "value", "approx_re", "approx_im"],
                   rows, comment=_ADVISORY)
        return 0
    if fmt == "latex":
        headers = [""] + [_class_latex(str(lab)) for lab in labels]
        rows = [[_char_latex(str(ch))]
                + [f"${sym_latex(table.symbolic[(ch, lab)])}$" for lab in labels]
                for ch in table.chars]
        print(_latex_table(headers, rows))
        return 0
    headers = ["char"] + [str(lab) for lab in labels]
    rows = []
    legend = {}
    for ch in table.chars:
        cells = [str(ch)]
        for lab in labels:
            s = sym_str(table.symbolic[(ch, lab)])
            cells.append(s)
            if table.symbolic[(ch, lab)][0] != "rat" and s not in legend:
                legend[s] = table.value(ch, lab).approx()
        rows.append(cells)
    print(_text_table(headers, rows))
    if legend:
        print()
        print("decimal approximations (advisory):")
        for s, z in legend.items():
            print(f"  {s} = {_fmt_complex(z)}")
    return 0


def _cmd_fs(args) -> int:
    ct = complex_table(args.q)
    within = args.q <= args.max_enum
    rows = []
    for ch in ct.chars:
        closed = fs_indicator_closed(ct, ch)
        brute = fs_indicator_raw(ct, ch, args.max_enum) if within else None
        rows.append((str(ch), closed, brute,
                     None if brute is None else closed == brute))
    if args.fmt == "json":
        _print_json({
            "q": args.q,
            "indicators": [{"char": c, "closed": cl, "brute": br, "match": m}
                           for c, cl, br, m in rows],
        })
        return 0
    headers = ["char", "closed", "brute", "match"]
    disp = [[c, str(cl), "-" if br is None else str(br),
             "-" if m is None else str(m).lower()] for c, cl, br, m in rows]
    if args.fmt == "csv":
        _print_csv(headers, disp)
    elif args.fmt == "latex":
        tex = [[_char_latex(r[0])] + r[1:] for r in disp]
        print(_latex_table(headers, tex))
    else:
        print(_text_table(headers, disp))
        if not within:
            print(f"\n(q={args.q} exceeds the enumeration bound "
                  f"{args.max_enum}; brute column skipped, raise --max-enum "
                  f"to fill it)")
    return 0


def _cmd_fixed_points(args) -> int:
    report = full_report(args.q, args.max_enum)
    if args.fmt == "json":
        _print_json(report.to_json())
        return 0 if report.all_match else 2
    keys = [str(k) for k in report.keys]
    rows = [(str(ch), closed, oracle) for ch, closed, oracle in report.rows()]
    if args.fmt == "csv":
        _print_csv(["char", "subgroup", "closed", "oracle", "match"],
                   ((ch, key, c, o, None if o is None else c == o)
                    for ch, closed, oracle in rows
                    for key, c, o in zip(keys, closed, oracle)))
        return 0 if report.all_match else 2
    headers = ["char"] + keys
    cells = [[ch] + [str(c) if o is None or c == o else f"{c}!={o}"
                     for c, o in zip(closed, oracle)]
             for ch, closed, oracle in rows]
    if args.fmt == "latex":
        tex_rows = [[_char_latex(r[0])] + r[1:] for r in cells]
        print(_latex_table(headers, tex_rows))
    else:
        print(_text_table(headers, cells))
        extras = []
        if args.q > args.max_enum:
            extras.append(f"oracle skipped: q={args.q} exceeds the "
                          f"enumeration bound {args.max_enum} "
                          f"(raise --max-enum to verify)")
        elif report.all_match:
            extras.append("every entry confirmed by character averaging")
        extras.extend(report.notes)
        if extras:
            print()
            for line in extras:
                print(f"note: {line}")
    return 0 if report.all_match else 2


def _cmd_verify(args) -> int:
    if args.q > args.max_enum:
        print(f"sl2q: error: q={args.q} exceeds the enumeration bound "
              f"{args.max_enum}; verification enumerates the whole group. "
              f"Raise it with --max-enum if you mean it "
              f"({args.q ** 3 - args.q} elements).", file=sys.stderr)
        return 1
    report = verify_all(args.q, args.max_enum)
    if args.fmt == "json":
        _print_json(report.to_json())
    elif args.fmt == "csv":
        rows = [[c.name, str(c.passed).lower(), c.details]
                for c in report.checks]
        _print_csv(["check", "pass", "details"], rows)
    elif args.fmt == "latex":
        rows = [[c.name.replace("_", "\\_"),
                 "PASS" if c.passed else "FAIL"] for c in report.checks]
        print(_latex_table(["check", "status"], rows))
    else:
        print(report.to_text())
    return 0 if report.overall else 2


_DISPATCH = {
    "classes": _cmd_classes,
    "char-table": lambda args: _cmd_table(complex_table(args.q), args.fmt),
    "real-table": lambda args: _cmd_table(real_table(args.q), args.fmt),
    "fs": _cmd_fs,
    "fixed-points": _cmd_fixed_points,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"sl2q: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # last resort: the stack is unwound by now, so printing fits
        print(f"sl2q: error: out of memory in {args.command} {args.q}; "
              f"try a smaller q", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
