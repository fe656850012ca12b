"""Command-line front end: exact SL2(q) tables in four output formats.

Usage: sl2q <command> q [--format F] [--max-enum N], the commands being
classes, char-table, real-table, fs, fixed-points and verify; -h prints
help, and _parse lists the spellings it accepts.
Formats: text (symbolic cells plus an advisory decimal legend), json
(one compact line of ``json.dumps``, marked with ``chars.JSON_SCHEMA``:
each exact value as a coefficient vector at its natural conductor,
round-trippable through the library loaders), csv (long form, quoted),
latex (tabular in the classical layout).

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

from .chars import JSON_SCHEMA, complex_table, sym_latex, sym_str
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


def _latex_lines(headers: list[str], lines):
    """A latex tabular of ``headers`` around ``lines``, each a whole row."""
    colspec = "l" + "r" * (len(headers) - 1)
    return chain((f"\\begin{{tabular}}{{{colspec}}}", "\\hline",
                  " & ".join(headers) + " \\\\", "\\hline"),
                 lines, ("\\hline", "\\end{tabular}"))


def _print_latex_table(headers: list[str], rows) -> None:
    _write_lines(_latex_lines(
        headers, (" & ".join(row) + " \\\\" for row in rows)))


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < 1e-9:
        return f"{z.real:.6f}"
    return f"{z.real:.6f}{z.imag:+.6f}i"


# a representative, spelled from its tuple (a, b, c, d) of ints
_matrix_str = "[[%d,%d],[%d,%d]]".__mod__


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
    """The class list, streamed from ``grp._class_rows``; no row is kept.
    Each class kind has one row template per format, of the index, the
    representative (in text spelled first, to pad it; elsewhere its four
    ints), the order and the size, so a row is one ``%`` format, which
    takes about 60% of the time of ``str.format`` on these ints."""
    q, fmt = args.q, args.fmt
    rows = _class_rows(q)   # checks q before anything is written
    if fmt == "json":
        classes = ({"label": ClassLabel.spell(kind, k), "representative": list(g),
                    "order": order, "size": size}
                   for kind, k, g, order, size in rows)
        _print_json({"schema": JSON_SCHEMA, "q": q, "classes": classes})
        return 0
    headers = ["label", "representative", "order", "size"]
    label_w = 0
    if fmt == "text":
        label_w, order_w, size_w = _class_widths(q)
        matrix_w = max(len(_matrix_str(g)) for _, _, g, _, _ in _class_rows(q))
        head, (label_w, matrix_w, order_w, _) = _text_layout(
            headers, [label_w, matrix_w, order_w, size_w])
        tail = f"  %-{matrix_w}s  %-{order_w}d  %d"
    elif fmt == "csv":
        head = [",".join(headers)]
        tail = ',"[[%d,%d],[%d,%d]]",%d,%d'   # csv quotes the commas
    else:
        tail = (" & $\\left(\\begin{smallmatrix}%d&%d\\\\%d&%d"
                "\\end{smallmatrix}\\right)$ & %d & %d \\\\")
    template = {}   # class kind -> its row template
    for kind in ClassLabel._NAMES:
        label = ClassLabel.spell(kind, "%d", fmt == "latex")
        if "%" not in label:   # no index: "%.0s" takes it and prints nothing
            label = "%.0s" + label.ljust(label_w)
        elif label_w:   # an indexed text name ends in its index
            label = label.replace("%d", f"%-{label_w + 2 - len(label)}d")
        template[kind] = label + tail
    if fmt == "text":
        lines = (template[kind] % (k, _matrix_str(g), order, size)
                 for kind, k, g, order, size in rows)
    else:
        lines = (template[kind] % (k, *g, order, size)
                 for kind, k, g, order, size in rows)
    _write_lines(_latex_lines(headers, lines) if fmt == "latex"
                 else chain(head, lines))
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
            "schema": JSON_SCHEMA,
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


def _shown(c: int, o) -> str:
    """A text or latex cell: the closed value, or closed!=oracle."""
    return str(c) if o is None or c == o else f"{c}!={o}"


def _csv_cell(c: int, o) -> str:
    """A csv row's closed, oracle and match fields."""
    return f"{c},," if o is None else f"{c},{o},{c == o}"


def _cell_columns(report, cell):
    """(cells, width of the widest, the distinct cells) for each subgroup
    key, ``cell(c, o)`` made once per distinct entry of each distinct
    (closed column, oracle column), o None past the enumeration bound: the
    keys of one closed-form signature share their column, so a row is a
    join over a few dozen distinct columns."""
    made = {}   # (id of closed, id of oracle) -> (cells, width, distinct)
    for closed, oracle in zip(report.closed, report.oracle or repeat(None)):
        pair = id(closed), id(oracle)
        if pair not in made:
            # past the bound the entry is c alone, a cheaper key
            entries = closed if oracle is None else list(zip(closed, oracle))
            shown = {e: cell(e, None) if oracle is None else cell(*e)
                     for e in set(entries)}
            made[pair] = (tuple(map(shown.__getitem__, entries)),
                          max(map(len, shown.values())), shown.values())
        yield made[pair]


def _fixed_point_csv(report):
    """The report as csv, joined by hand: labels, keys and ints never need
    csv quoting.  After the header, one string per character: one join of
    a list of each key's name, key and cell, where only the keys stay."""
    yield "char,subgroup,closed,oracle,match"
    n = len(report.keys)
    parts = [""] * (3 * n)
    parts[1::3] = [f"{key}," for key in report.keys]
    columns = [cells for cells, *_ in _cell_columns(report, _csv_cell)]
    for ch, cells in zip(report.chars, zip(*columns)):
        name = str(ch)
        parts[::3] = [f"\n{name},"] * n
        parts[0] = f"{name},"
        parts[2::3] = cells
        yield "".join(parts)


def _print_fixed_point_text(report, args) -> None:
    """The table, each key's column as wide as its widest cell or header,
    padded once per distinct (column, width), and its notes."""
    names = [str(ch) for ch in report.chars]
    columns = list(_cell_columns(report, _shown))
    # the key strings (2,007 at q = 2003) are freed before the rows stream
    head, widths = _text_layout(
        ["char", *map(str, report.keys)],
        [max(map(len, names)), *(w for _, w, _ in columns)])
    # the last column is left unpadded, so no line ends in blanks
    widths[-1] = 0
    padded = {}   # (id of cells, width) -> the cells padded to it
    for j, ((cells, _, distinct), w) in enumerate(zip(columns, widths[1:])):
        key = id(cells), w
        if key not in padded:
            pad = {s: s.ljust(w) for s in distinct}
            padded[key] = tuple(map(pad.__getitem__, cells))
        columns[j] = padded[key]
    names = [name.ljust(widths[0]) for name in names]
    _write_lines(chain(head, map("  ".join, zip(names, *columns))))
    notes = []
    if args.q > args.max_enum:
        notes.append(f"oracle skipped: q={args.q} exceeds the "
                     f"enumeration bound {args.max_enum} "
                     f"(raise --max-enum to verify)")
    elif report.all_match:
        notes.append("every entry confirmed by character averaging")
    notes.extend(report.notes)
    if notes:
        _write_lines(["", *(f"note: {line}" for line in notes)])


def _cmd_fixed_points(args) -> int:
    report = full_report(args.q, args.max_enum)
    if args.fmt == "json":
        # streamed row by row: the document or its rows held whole add MBs
        _print_json(report.to_json(lazy=True))
    elif args.fmt == "csv":
        _write_lines(_fixed_point_csv(report))
    elif args.fmt == "latex":
        _print_latex_table(["char", *map(str, report.keys)], zip(
            [ch.latex() for ch in report.chars],
            *(cells for cells, *_ in _cell_columns(report, _shown))))
    else:
        _print_fixed_point_text(report, args)
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
