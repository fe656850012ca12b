"""Command-line front end: exact SL2(q) tables in four output formats.

Usage: sl2q <command> q [--format F] [--max-enum N], the commands being
classes, char-table, real-table, fs, fixed-points and verify; -h prints
help, and _parse lists the spellings it accepts.
Formats: text (symbolic cells plus an advisory decimal legend), json
(one compact line of ``json.dumps``, schema 2: each exact value as a
coefficient vector at its natural conductor, round-trippable through
the library loaders), csv (long form, quoted), latex (tabular in the
classical layout).

Text and csv modes render cells in a small stable grammar:

    rational      "3", "-1/2"
    nu terms      "nu(r,s)"  = zeta_r^s + zeta_r^-s, with coefficient
                  as in "2*nu(14,3)", "-nu(6,1)"
    square roots  "(1+sqrt(5))/2", "-1+sqrt(-7)"  where the radicand
                  is eps*q = (-1)^((q-1)/2) * q

Exit codes: 0 success (verify: all checks passed) or help, 1 usage error
(or, as a last resort, running out of memory; or a reader that closed
the output pipe early), 2 verification failure.
"""
from __future__ import annotations

import csv
import io
import json
import os
import sys
from itertools import chain, repeat
from operator import methodcaller
from types import GeneratorType, SimpleNamespace

from .chars import complex_table, sym_latex, sym_str
from .fixdim import full_report
from .grp import (DEFAULT_MAX_ENUM, ClassLabel, _class_rows, _class_size,
                  torus_indices)
from .realrep import fs_indicator_closed, fs_indicator_raw, real_table
from .verify import verify_all

__all__ = ["main"]


# ---------------------------------------------------------------------------
# shared renderers

# characters handed to stdout in one write: unbuffered, each write is a
# system call.  A bound by characters, not lines, keeps a block of long
# lines (thousands of columns) small.
_BLOCK = 1 << 16

_ADVISORY = "# decimal approximations are advisory; exact values live in json mode"


def _write_lines(lines, end: str = "\n") -> None:
    """Write each string of ``lines`` and ``end`` to stdout, in writes of
    about _BLOCK characters."""
    write = sys.stdout.write
    block, size = [], 0
    for line in lines:
        block.append(line)
        size += len(line) + 1
        if size >= _BLOCK:
            block.append("")
            write(end.join(block))
            block, size = [], 0
    if block:
        block.append("")
        write(end.join(block))


def _json_chunks(doc: dict):
    """json.dumps(doc) in pieces, so the document is never one string: each
    item of a top-level list or generator is encoded on its own, and a
    top-level map of maps (a table's values) row by row, each distinct
    object among its keys and leaves encoded once.  That memo is keyed by
    id, which is sound because doc keeps every leaf alive while it runs."""
    encode = json.JSONEncoder().encode
    memo = {}   # id of a key or leaf -> its encoding, which is never ""
    get = memo.get

    def once(obj):
        memo[id(obj)] = out = encode(obj)
        return out

    for i, (key, value) in enumerate(doc.items()):
        yield f"{', ' if i else '{'}{encode(key)}: "
        if isinstance(value, (list, GeneratorType)):
            yield "["
            for j, item in enumerate(value):
                yield f"{', ' if j else ''}{encode(item)}"
            yield "]"
        elif (isinstance(value, dict) and value
              and all(type(row) is dict for row in value.values())):
            yield "{"
            for j, (name, row) in enumerate(value.items()):
                cells = ", ".join([f"{get(id(k)) or once(k)}: "
                                   f"{get(id(v)) or once(v)}"
                                   for k, v in row.items()])
                yield f"{', ' if j else ''}{encode(name)}: {{{cells}}}"
            yield "}"
        else:
            yield encode(value)
    yield "}"


def _print_json(doc: dict) -> None:
    """Write doc as one line of json.dumps, streamed (``_json_chunks``)."""
    _write_lines(chain(_json_chunks(doc), ["\n"]), end="")


def _text_line(cells, widths: list[int]) -> str:
    return "  ".join(map(str.ljust, cells, widths)).rstrip()


def _text_layout(headers: list[str], widths: list[int]):
    """The header line and its rule of dashes, and the column widths
    widened to the headers."""
    widths = [max(w, len(h)) for w, h in zip(widths, headers)]
    return ([_text_line(headers, widths),
             _text_line(["-" * w for w in widths], widths)], widths)


def _print_text_table(headers: list[str], rows: list) -> None:
    """Print rows under headers in left-aligned columns, each as wide as
    its widest cell."""
    head, widths = _text_layout(
        headers, [max(map(len, column)) for column in zip(headers, *rows)])
    _write_lines(chain(head, (_text_line(row, widths) for row in rows)))


def _print_csv(headers: list[str], rows, comment: str | None = None) -> None:
    """Write rows as csv, handing stdout about _BLOCK characters at a
    time."""
    buf = io.StringIO()
    if comment:
        buf.write(comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
        if buf.tell() >= _BLOCK:
            sys.stdout.write(buf.getvalue())
            buf.seek(0)
            buf.truncate()
    if buf.tell():
        sys.stdout.write(buf.getvalue())


def _print_latex_table(headers: list[str], rows) -> None:
    colspec = "l" + "r" * (len(headers) - 1)
    _write_lines(chain(
        (f"\\begin{{tabular}}{{{colspec}}}", "\\hline",
         " & ".join(headers) + " \\\\", "\\hline"),
        (" & ".join(row) + " \\\\" for row in rows),
        ("\\hline", "\\end{tabular}")))


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < 1e-9:
        return f"{z.real:.6f}"
    return f"{z.real:.6f}{z.imag:+.6f}i"


# a representative (a, b, c, d), spelled from its four ints
_matrix_str = "[[{},{}],[{},{}]]".format
_matrix_latex = ("$\\left(\\begin{{smallmatrix}}{}&{}\\\\{}&{}"
                 "\\end{{smallmatrix}}\\right)$").format


# ---------------------------------------------------------------------------
# subcommands

def _class_widths(q: int) -> list[int]:
    """The widest text cell of the label, order and size columns, from the
    closed forms: the longest label of a kind has its largest index, the
    largest order is 2q (zc and zd), and each kind has one size."""
    kinds = [(kind, 0) for kind in ("1", "z", "c", "d", "zc", "zd")]
    kinds += [(kind, ks[-1]) for kind in "ab" if (ks := torus_indices(q, kind))]
    return [max(len(ClassLabel.spell(*kind)) for kind in kinds),
            len(str(2 * q)),
            max(len(str(_class_size(q, kind))) for kind, _ in kinds)]


def _cmd_classes(args) -> int:
    """The class list, streamed from ``grp._class_rows``; no row is kept."""
    q = args.q
    rows = _class_rows(q)   # checks q before anything is written
    if args.fmt == "json":
        classes = ({"label": ClassLabel.spell(kind, k), "representative": list(g),
                    "order": order, "size": size}
                   for kind, k, g, order, size in rows)
        _print_json({"schema": 2, "q": q, "classes": classes})
        return 0
    headers = ["label", "representative", "order", "size"]
    latex = args.fmt == "latex"
    matrix = _matrix_latex if latex else _matrix_str
    cells = ([ClassLabel.spell(kind, k, latex), matrix(*g), str(order), str(size)]
             for kind, k, g, order, size in rows)
    if args.fmt == "csv":
        _print_csv(headers, cells)
    elif latex:
        _print_latex_table(headers, cells)
    else:
        label_w, order_w, size_w = _class_widths(q)
        matrix_w = max(len(_matrix_str(*g)) for _, _, g, _, _ in _class_rows(q))
        head, widths = _text_layout(headers, [label_w, matrix_w, order_w, size_w])
        _write_lines(chain(head, (_text_line(row, widths) for row in cells)))
    return 0


def _cmd_table(table, fmt: str) -> int:
    """Both character tables, in all four formats, each distinct entry
    (``table.pool``) rendered once."""
    if fmt == "json":
        _print_json(table.to_json())
        return 0
    names = [str(lab) for lab in table.class_order]
    if fmt == "latex":
        shown = [f"${sym_latex(cell)}$" for _, cell in table.pool]
        headers = [""] + [lab.latex() for lab in table.class_order]
        rows = ([ch.latex(), *row] for ch, row in table.by_row(shown))
        _print_latex_table(headers, rows)
        return 0
    shown = [sym_str(cell) for _, cell in table.pool]
    if fmt == "csv":
        # each entry's value, embedded at the table's conductor, and its
        # approx columns, formatted once
        entries = []
        for s, (v, _) in zip(shown, table.pool):
            z = v.promote(table.conductor).approx()
            entries.append((s, f"{z.real:.9g}", f"{z.imag:.9g}"))
        rows = ([char, name, *entry]
                for ch, row in table.by_row(entries) for char in [str(ch)]
                for name, entry in zip(names, row))
        _print_csv(["char", "class", "value", "approx_re", "approx_im"],
                   rows, comment=_ADVISORY)
        return 0
    # a display cell is exact, so equal strings hold equal values
    legend = {shown[i]: v for i, (v, cell) in enumerate(table.pool)
              if cell[0] != "rat"}
    lengths = list(map(len, shown))
    head, widths = _text_layout(["char", *names], [
        max(len(str(ch)) for ch in table.chars),
        *(max(map(lengths.__getitem__, column))
          for column in zip(*table.index.values()))])
    _write_lines(chain(head, (
        _text_line([str(ch), *row], widths) for ch, row in table.by_row(shown)),
        ["", "decimal approximations (advisory):"] if legend else [],
        (f"  {s} = {_fmt_complex(v.approx())}" for s, v in legend.items())))
    return 0


def _cmd_fs(args) -> int:
    ct = complex_table(args.q)
    within = args.q <= args.max_enum
    rows = []
    for ch in ct.chars:
        closed = fs_indicator_closed(ct, ch)
        brute = fs_indicator_raw(ct, ch, args.max_enum) if within else None
        rows.append((ch, closed, brute,
                     None if brute is None else closed == brute))
    if args.fmt == "json":
        _print_json({
            "schema": 2,
            "q": args.q,
            "indicators": [{"char": str(c), "closed": cl, "brute": br, "match": m}
                           for c, cl, br, m in rows],
        })
        return 0
    headers = ["char", "closed", "brute", "match"]
    name = methodcaller("latex") if args.fmt == "latex" else str
    disp = [[name(c), str(cl), "-" if br is None else str(br),
             "-" if m is None else str(m).lower()] for c, cl, br, m in rows]
    if args.fmt == "csv":
        _print_csv(headers, disp)
    elif args.fmt == "latex":
        _print_latex_table(headers, disp)
    else:
        _print_text_table(headers, disp)
        if not within:
            print(f"\n(q={args.q} exceeds the enumeration bound "
                  f"{args.max_enum}; brute column skipped, raise --max-enum "
                  f"to fill it)")
    return 0


def _fixed_point_widths(report) -> list[int]:
    """The widest text cell of each column, read off the int columns once
    per distinct pair of (closed, oracle) column objects: the keys of one
    closed-form signature share their closed column."""
    widths = [max(len(str(ch)) for ch in report.chars)]
    seen = {}   # (id of closed, id of oracle) -> width
    for closed, oracle in zip(report.closed, report.oracle or repeat(None)):
        pair = id(closed), id(oracle)
        if pair not in seen:
            width = len(str(max(closed)))   # full_report's values are >= 0
            if oracle is not None:
                width = max([width] + [len(f"{c}!={o}")
                                       for c, o in zip(closed, oracle) if c != o])
            seen[pair] = width
        widths.append(seen[pair])
    return widths


def _fixed_point_csv(report):
    """The report as csv, joined by hand: labels, keys and ints never need
    csv quoting.  After the header, one string per character, its rows
    joined; past the enumeration bound the closed values come as text,
    each distinct column rendered once (``_closed_rows``)."""
    yield "char,subgroup,closed,oracle,match"
    keys = [str(k) for k in report.keys]
    if report.oracle is None:
        for name, *closed in _closed_rows(report, str, [0] * len(keys)):
            yield "\n".join([f"{name},{key},{c},,"
                              for key, c in zip(keys, closed)])
        return
    for ch, closed, oracle in report.rows():
        name = str(ch)
        yield "\n".join([f"{name},{key},{c},{o},{c == o}"
                          for key, c, o in zip(keys, closed, oracle)])


def _checked_rows(report, name):
    """Rows next to the oracle: each character's name, then its cells,
    a mismatch shown as closed!=oracle."""
    return ([name(ch)] + [str(c) if c == o else f"{c}!={o}"
                          for c, o in zip(closed, oracle)]
            for ch, closed, oracle in report.rows())


def _closed_rows(report, name, widths: list[int]):
    """Rows past the enumeration bound, as tuples: each character's name,
    then its cells left-justified to ``widths``.  Each distinct pair of a
    column object and a width is rendered once, as a column of cells read
    from a dict of padded values per width; the keys of one closed-form
    signature share their column, so the rows zip a few dozen distinct
    string columns."""
    distinct = {}   # (id of a column, width) -> the column
    for column, w in zip(report.closed, widths):
        distinct[id(column), w] = column
    values = {}   # width -> every value shown at that width
    for (_, w), column in distinct.items():
        values.setdefault(w, set()).update(column)
    cells = {w: {v: str(v).ljust(w) for v in vs} for w, vs in values.items()}
    shown = {pair: tuple(map(cells[pair[1]].__getitem__, column))
             for pair, column in distinct.items()}
    return zip([name(ch) for ch in report.chars],
               *(shown[id(column), w] for column, w in zip(report.closed, widths)))


def _print_fixed_point_text(report) -> None:
    # the key strings (2,007 at q = 2003) are freed before the rows stream
    head, widths = _text_layout(["char", *map(str, report.keys)],
                                _fixed_point_widths(report))
    if report.oracle is None:
        # the last column is left unpadded, so no line ends in blanks
        rows = map("  ".join, _closed_rows(
            report, lambda ch: str(ch).ljust(widths[0]), widths[1:-1] + [0]))
    else:
        rows = (_text_line(row, widths) for row in _checked_rows(report, str))
    _write_lines(chain(head, rows))


def _cmd_fixed_points(args) -> int:
    report = full_report(args.q, args.max_enum)
    if args.fmt == "json":
        # streamed row by row: the document or its rows held whole add MBs
        _print_json(report.to_json(lazy=True))
        return 0 if report.all_match else 2
    if args.fmt == "csv":
        _write_lines(_fixed_point_csv(report))
        return 0 if report.all_match else 2
    if args.fmt == "latex":
        latex = methodcaller("latex")
        _print_latex_table(["char", *map(str, report.keys)], (
            _closed_rows(report, latex, [0] * len(report.keys))
            if report.oracle is None else _checked_rows(report, latex)))
        return 0 if report.all_match else 2
    _print_fixed_point_text(report)
    extras = []
    if args.q > args.max_enum:
        extras.append(f"oracle skipped: q={args.q} exceeds the "
                      f"enumeration bound {args.max_enum} "
                      f"(raise --max-enum to verify)")
    elif report.all_match:
        extras.append("every entry confirmed by character averaging")
    extras.extend(report.notes)
    if extras:
        _write_lines(["", *(f"note: {line}" for line in extras)])
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
        _print_latex_table(["check", "status"], rows)
    else:
        print(report.to_text())
    return 0 if report.overall else 2


# command -> (help line, handler); the help text is generated from it
_COMMANDS = {
    "classes": ("conjugacy classes: label, representative, order, size",
                _cmd_classes),
    "char-table": ("complex irreducible character table",
                   lambda args: _cmd_table(complex_table(args.q), args.fmt)),
    "real-table": ("real irreducible character table",
                   lambda args: _cmd_table(real_table(args.q), args.fmt)),
    "fs": ("Frobenius-Schur indicators", _cmd_fs),
    "fixed-points": ("fixed-point dimensions for cyclic subgroups",
                     _cmd_fixed_points),
    "verify": ("run the brute-force verification suite", _cmd_verify),
}
_FORMATS = ("text", "json", "csv", "latex")
_OPTIONS = ("--format", "--max-enum", "--help")
_USAGE = "usage: sl2q {} q [--format F] [--max-enum N]"


def _exit(command: str, error: str | None = None):
    """Exit 1 after writing the usage line of ``command`` and ``error`` to
    stderr, or, with no error, 0 after printing its help."""
    if error:
        print(_USAGE.format(command), f"sl2q: error: {error}", sep="\n",
              file=sys.stderr)
        raise SystemExit(1)
    about = (["commands:", *(f"  {name:<14}{text}"
                             for name, (text, _) in _COMMANDS.items())]
             if command == "<command>" else [_COMMANDS[command][0]])
    print(_USAGE.format(command), "", *about, "", "options:",
          f"  --format F    {', '.join(_FORMATS)} (default: text)",
          "  --max-enum N  largest q for which the group is enumerated "
          f"(default: {DEFAULT_MAX_ENUM})", "  -h, --help    show this help",
          sep="\n")
    raise SystemExit(0)


def _parse(argv) -> SimpleNamespace:
    """``argv`` read as ``<command> q [--format F] [--max-enum N]``.  An
    option may be abbreviated, written --format=F, and come before or after
    q; a repeated option keeps its last value, and every argument after
    "--" is positional."""
    command, positional, rest = "<command>", [], iter(argv)
    opts = {"--format": "text", "--max-enum": str(DEFAULT_MAX_ENUM)}
    for arg in rest:
        name, eq, text = arg.partition("=")
        found = [o for o in _OPTIONS if len(name) > 2 and o.startswith(name)]
        if arg == "-h" or found == ["--help"]:
            _exit(command)
        elif len(found) == 1:
            opts[found[0]] = text if eq else next(rest, None)
            if opts[found[0]] is None:
                _exit(command, f"{found[0]} expects a value")
        elif arg == "--" and command in _COMMANDS:
            positional += rest
        elif arg.startswith("-") and not arg[1:].isdigit():
            _exit(command, f"unrecognized option {arg!r}")
        elif command in _COMMANDS:
            positional.append(arg)
        elif arg in _COMMANDS:
            command = arg
        else:
            _exit(command, f"expected a command ({', '.join(_COMMANDS)}), "
                           f"got {arg!r}")
    if len(positional) != 1:
        _exit(command, f"expected a command and one q, got {argv}")
    if opts["--format"] not in _FORMATS:
        _exit(command, f"--format takes one of {', '.join(_FORMATS)}, "
                       f"not {opts['--format']!r}")
    try:
        q, max_enum = int(positional[0]), int(opts["--max-enum"])
    except ValueError as exc:
        _exit(command, f"q and --max-enum take integers: {exc}")
    return SimpleNamespace(command=command, q=q, fmt=opts["--format"],
                           max_enum=max_enum)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code = _COMMANDS[args.command][1](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (``sl2q ... | head``); point stdout at devnull
        # so that the flush at exit has nowhere to fail, as the "Note on
        # SIGPIPE" in the signal module's documentation advises
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
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
