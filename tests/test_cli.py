"""Command-line interface: formats, exit codes, JSON round-trips."""
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from itertools import repeat
from pathlib import Path

import pytest

import sl2q
from sl2q import chars, cli
from sl2q.chars import CharTable, complex_table
from sl2q.cli import main
from sl2q.cyclo import CycNum
from sl2q.fixdim import Z_H, FixedDimTable, full_report
from sl2q.realrep import RPSI, real_table
from sl2q.verify import VerificationReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classes_text(capsys):
    code, out, _ = run_cli(capsys, "classes", "5")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == 2 + 9  # header, separator, q+4 classes
    assert lines[0].split() == ["label", "representative", "order", "size"]
    assert any(line.startswith("a^1") for line in lines)
    assert any(line.startswith("zc") and line.rstrip().endswith("12")
               for line in lines)


def test_classes_json(capsys):
    code, out, _ = run_cli(capsys, "classes", "7", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 7
    assert len(obj["classes"]) == 11
    by_label = {c["label"]: c for c in obj["classes"]}
    assert by_label["z"]["representative"] == [6, 0, 0, 6]
    assert by_label["zd"]["order"] == 14
    assert sum(c["size"] for c in obj["classes"]) == 336


def test_classes_rejects_composite_q(capsys):
    code, out, err = run_cli(capsys, "classes", "4")
    assert code == 1
    assert "odd prime" in err


def test_classes_csv_and_latex(capsys):
    code, out, _ = run_cli(capsys, "classes", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["label", "representative", "order", "size"]
    assert len(rows) == 10
    code, out, _ = run_cli(capsys, "classes", "5", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert "\\begin{smallmatrix}" in out


def test_char_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "char-table", "5", "--format", "json")
    assert code == 0
    assert CharTable.from_json(json.loads(out)) == complex_table(5)


def test_char_table_text_legend(capsys):
    code, out, _ = run_cli(capsys, "char-table", "5")
    assert code == 0
    assert "(1+sqrt(5))/2" in out
    assert "decimal approximations (advisory):" in out
    assert "1.618" in out  # the golden ratio, as it happens


def test_char_table_csv_quotes_commas(capsys):
    code, out, _ = run_cli(capsys, "char-table", "11", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("#")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["char", "class", "value", "approx_re", "approx_im"]
    cells = {r[2] for r in rows[2:]}
    assert "nu(10,1)" in cells  # comma inside one csv field
    by_key = {(r[0], r[1]): r for r in rows[2:]}
    assert float(by_key[("psi", "1")][3]) == 11.0


def test_real_table_text(capsys):
    code, out, _ = run_cli(capsys, "real-table", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["char", "1", "z"]
    assert sum(1 for l in lines if l and not l.startswith(("char", "-", " ",
                                                           "decimal"))) == 9
    assert any(l.startswith("2Re(xi_1)") for l in lines)


def test_real_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "real-table", "7", "--format", "json")
    assert code == 0
    assert CharTable.from_json(json.loads(out)) == real_table(7)


def test_fs_text_and_bound(capsys):
    code, out, _ = run_cli(capsys, "fs", "7")
    assert code == 0
    assert "true" in out and "false" not in out
    code, out, _ = run_cli(capsys, "fs", "7", "--max-enum", "5")
    assert code == 0
    assert "brute column skipped" in out


def test_fs_json(capsys):
    code, out, _ = run_cli(capsys, "fs", "5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    ind = {e["char"]: e for e in obj["indicators"]}
    assert ind["eta_1"]["closed"] == -1
    assert ind["psi"]["brute"] == 1
    assert all(e["match"] for e in obj["indicators"])


def test_fixed_points_text(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["char", "TrivialH", "ZH", "CH", "ZCH",
                                "AH(1)", "BH(1)", "BH(2)"]
    assert "every entry confirmed by character averaging" in out
    assert "!=" not in out


def test_fixed_points_closed_only_past_bound(capsys):
    # closed forms carry no enumeration bound; the oracle column is
    # skipped and the command still succeeds
    code, out, _ = run_cli(capsys, "fixed-points", "101")
    assert code == 0
    assert "oracle skipped" in out


def test_fixed_points_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "5", "--format", "json")
    assert code == 0
    clone = FixedDimTable.from_json(json.loads(out))
    assert clone.all_match and clone.q == 5


def _forged_report(q):
    """full_report(q) with the oracle one off on (psi, ZH)."""
    rep = full_report(q)
    ci, ki = rep.chars.index(RPSI), rep.keys.index(Z_H)
    oracle = [list(column) for column in rep.oracle]
    oracle[ki][ci] += 1
    return FixedDimTable(q, rep.chars, rep.keys, rep.closed, oracle, rep.notes)


@pytest.mark.parametrize("fmt", ["text", "csv", "json", "latex"])
def test_fixed_points_mismatch(monkeypatch, capsys, fmt):
    forged = _forged_report(5)
    assert not forged.all_match
    monkeypatch.setattr(cli, "full_report", lambda q, max_enum: forged)
    code, out, _ = run_cli(capsys, "fixed-points", "5", "--format", fmt)
    assert code == 2
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["char", "subgroup", "closed", "oracle", "match"]
        assert {(r[0], r[1]) for r in rows[1:] if r[4] == "False"} == {
            ("psi", "ZH")}
        assert ["psi", "ZH", "5", "6", "False"] in rows
    elif fmt == "json":
        obj = json.loads(out)
        keys = [s["key"] for s in obj["subgroups"]]
        mismatches = [(row["char"], key, c, o) for row in obj["rows"]
                      for key, c, o in zip(keys, row["closed"], row["oracle"])
                      if c != o]
        assert mismatches == [("psi", "ZH", 5, 6)]
        assert FixedDimTable.from_json(obj) == forged
    else:
        assert out.count("!=") == 1 and "5!=6" in out
        assert "every entry confirmed" not in out
    if fmt == "text":
        # the mismatched cell widens its column, header included
        header, psi = out.splitlines()[0], out.splitlines()[3]
        start, end = header.index("ZH"), header.index("CH")
        assert psi.startswith("psi") and psi[start:end] == "5!=6  "


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


def test_fixed_points_csv_writes_blocks_of_rows(monkeypatch):
    # 105 real rows x 103 subgroup keys, about 206K characters, handed
    # to stdout in a few large writes, not one per row
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["fixed-points", "101", "--format", "csv"]) == 0
    report = full_report(101)
    rows = [(str(ch), str(key), c, o, None if o is None else c == o)
            for ch, closed, oracle in report.rows()
            for key, c, o in zip(report.keys, closed, oracle)]
    assert len(rows) == 10815
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["char", "subgroup", "closed", "oracle", "match"])
    writer.writerows(rows)
    assert out.getvalue() == expected.getvalue()
    assert out.writes <= -(-len(rows) // 4096) + 2


@pytest.mark.parametrize("argv", [
    ["fixed-points", "3"], ["fixed-points", "13"], ["fixed-points", "53"],
    ["fixed-points", "13", "--max-enum", "11"], None,
    ["classes", "5"], ["classes", "7"]])
def test_fixed_point_csv_is_what_the_csv_module_writes(monkeypatch, capsys,
                                                       argv):
    # the rows are joined by hand, with no quoting; csv.writer must give
    # the same bytes back (None: the forged report of a mismatch).  The
    # class list quotes its matrix itself, at q = 1 and 3 mod 4
    if argv is None:
        forged = _forged_report(5)
        monkeypatch.setattr(cli, "full_report", lambda q, max_enum: forged)
        argv = ["fixed-points", "5"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code in (0, 2) and out.count("\n") > 1
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(
        csv.reader(io.StringIO(out)))
    assert again.getvalue() == out


@pytest.mark.parametrize("fmt", ["text", "latex", "csv"])
@pytest.mark.parametrize("q, max_enum", [(13, 50), (53, 50), (13, 11)])
def test_fixed_point_cells_are_made_once_per_distinct_column(
        monkeypatch, capsys, q, max_enum, fmt):
    # the keys of one closed-form signature share their closed column, and
    # the keys of one class profile their oracle column: each distinct
    # entry of each distinct (closed, oracle) column is formatted once, on
    # both sides of the enumeration bound, whatever width the text gives
    # its key
    report, calls = full_report(q, max_enum), Counter()
    monkeypatch.setattr(cli, "full_report", lambda q, max_enum: report)
    name = "_csv_cell" if fmt == "csv" else "_shown"
    cell = getattr(cli, name)

    def counted(c, o):
        calls[c, o] += 1
        return cell(c, o)
    monkeypatch.setattr(cli, name, counted)
    code, _, _ = run_cli(capsys, "fixed-points", str(q), "--max-enum",
                         str(max_enum), "--format", fmt)
    assert code == 0
    columns = {(id(c), id(o)): (c, o) for c, o in
               zip(report.closed, report.oracle or repeat(None))}
    expected = Counter()
    for closed, oracle in columns.values():
        expected.update(set(zip(closed, oracle or repeat(None))))
    assert calls == expected
    assert len(columns) < len(report.keys)


def test_fixed_point_text_columns_are_as_wide_as_their_cells(monkeypatch,
                                                            capsys):
    # a mismatch spelled longer than c!=o still lines up under its header:
    # the widths are measured from the cells made, not from the ints
    forged = _forged_report(5)
    monkeypatch.setattr(cli, "full_report", lambda q, max_enum: forged)
    shown = cli._shown
    monkeypatch.setattr(cli, "_shown", lambda c, o: shown(c, o).replace(
        "!=", "!=oracle:"))
    code, out, _ = run_cli(capsys, "fixed-points", "5")
    assert code == 2 and "5!=oracle:6" in out
    header, rule, *rows = out.split("\n\n")[0].splitlines()
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    assert len(rows) == len(forged.chars)
    for line in [rule, *rows]:
        assert [m.start() for m in re.finditer(r"\S+", line)] == starts


@pytest.mark.parametrize("argv", [["classes", "1009", "--format", "latex"],
                                  ["fixed-points", "211"]])
def test_tables_are_written_in_blocks(monkeypatch, argv):
    # unbuffered, each write is a system call; printing made two per line
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    assert out.writes <= -(-len(out.getvalue()) // cli._BLOCK) + 4


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_pipe_exits_one_without_a_traceback(unbuffered):
    # ``sl2q fixed-points 211 | head -1``: the output is several pipe
    # buffers long, so the writer meets the closed pipe mid-table
    path = [str(Path(sl2q.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-c",
                             "import sys; from sl2q.cli import main; "
                             "sys.exit(main(sys.argv[1:]))",
                             "fixed-points", "211"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.readline().startswith(b"char")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "3")
    assert code == 0
    assert out.count("[PASS]") == 11 and "[FAIL]" not in out
    code, _, err = run_cli(capsys, "verify", "97")
    assert code == 1
    assert "--max-enum" in err
    code, _, err = run_cli(capsys, "verify", "9")
    assert code == 1
    assert "sl2q: error" in err


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "3", "--format", "json")
    assert code == 0
    report = VerificationReport.from_json(json.loads(out))
    assert report.overall and report.q == 3


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "pass", "details"]
    assert all(r[1] == "true" for r in rows[1:])


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classes"])  # missing q
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "5"])
    assert exc.value.code == 1


# each spelling next to its long form: the same parsed arguments and stdout
SPELLINGS = [
    (["classes", "5", "--format=json"], ["classes", "5", "--format", "json"]),
    (["classes", "5", "--form", "json"], ["classes", "5", "--format", "json"]),
    (["classes", "5", "--f=csv"], ["classes", "5", "--format", "csv"]),
    (["fs", "7", "--max", "5"], ["fs", "7", "--max-enum", "5"]),
    (["fs", "7", "--max-enum=5"], ["fs", "7", "--max-enum", "5"]),
    (["fs", "--max-enum", "5", "7"], ["fs", "7", "--max-enum", "5"]),
    (["fs", "--format", "latex", "7", "--m", "5"],
     ["fs", "7", "--format", "latex", "--max-enum", "5"]),
    (["fs", "7", "--max-enum=-1"], ["fs", "7", "--max-enum", "-1"]),
    (["classes", " 5"], ["classes", "5"]),
    (["classes", "+5"], ["classes", "5"]),
    (["fs", "7", "--max-enum", "0_5"], ["fs", "7", "--max-enum", "5"]),
    (["classes", "5", "--format", "json", "--format", "csv"],
     ["classes", "5", "--format", "csv"]),
    (["fs", "7", "--max-enum", "3", "--max", "11"],
     ["fs", "7", "--max-enum", "11"]),
    (["classes", "--", "3"], ["classes", "3"]),
    (["classes", "3", "--"], ["classes", "3"]),
    (["classes", "--format", "csv", "--", "5"],
     ["classes", "5", "--format", "csv"]),
]


@pytest.mark.parametrize("argv, long_form", SPELLINGS,
                         ids=[" ".join(argv) for argv, _ in SPELLINGS])
def test_every_spelling_reads_as_its_long_form(capsys, argv, long_form):
    assert vars(cli._parse(argv)) == vars(cli._parse(long_form))
    assert run_cli(capsys, *argv) == run_cli(capsys, *long_form)


def test_parsed_arguments_and_defaults():
    args = cli._parse(["fs", "7", "--max-enum", "-1"])
    assert vars(args) == {"command": "fs", "q": 7, "fmt": "text",
                          "max_enum": -1}
    assert cli._parse(["classes", "3"]).max_enum == sl2q.DEFAULT_MAX_ENUM


def test_a_negative_q_reaches_the_prime_check(capsys):
    code, out, err = run_cli(capsys, "classes", "-5")
    assert (code, out) == (1, "")
    assert err == "sl2q: error: q must be an odd prime, got -5\n"


@pytest.mark.parametrize("argv", [
    [],                                        # no command
    ["bogus", "3"],                            # unknown command
    ["--", "classes", "3"],                    # no command before "--"
    ["classes"],                               # missing q
    ["classes", "x"],                          # q not an int
    ["classes", "3.0"],
    ["classes", "3", "--format", "yaml"],      # bad --format
    ["classes", "3", "--format=", "json"],
    ["classes", "3", "--format"],              # option without a value
    ["classes", "3", "--max-enum"],
    ["classes", "3", "--max-enum", "x"],
    ["classes", "3", "--bogus"],               # unknown option
    ["classes", "3", "-x"],
    ["classes", "3", "4"],                     # extra positional
    ["classes", "3", "--", "4"],
])
def test_usage_errors_print_usage_and_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: sl2q ")
    assert error.startswith("sl2q: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"],
    *([command, "-h"] for command in cli._COMMANDS),
    *([command, "3", "--help"] for command in cli._COMMANDS),
])
def test_help_exits_zero_and_lists_what_can_be_asked(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    command = argv[0] if argv[0] in cli._COMMANDS else "<command>"
    assert out.startswith(f"usage: sl2q {command} q ")
    assert "--format F    text, json, csv, latex (default: text)" in out
    assert f"(default: {sl2q.DEFAULT_MAX_ENUM})" in out
    if command == "<command>":
        for name, (text, _) in cli._COMMANDS.items():
            assert f"  {name:<14}{text}\n" in out
        assert len(cli._COMMANDS) == 6
    else:
        assert cli._COMMANDS[command][0] in out


def test_the_cli_imports_no_argparse():
    # argparse's set-up (gettext lookups, importing locale, compiling its
    # regexes) cost more than the whole of a small command
    proc = run_fresh("import contextlib, io, sys\n"
                     "import sl2q.cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    assert sl2q.cli.main(['classes', '3']) == 0\n"
                     "print(sorted({'argparse', 'gettext'}"
                     " & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_script_wiring():
    # the child imports the same sl2q as this process, installed or not
    path = [str(Path(sl2q.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from sl2q.cli import main; "
                           "sys.exit(main(['classes', '3']))"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "b^1" in proc.stdout


_CAPPED = """
import resource, sys
cap = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from sl2q.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_fresh(program: str, *argv, stdout=subprocess.PIPE):
    """``program`` in a fresh interpreter on this sl2q, stdout to ``stdout``."""
    path = [str(Path(sl2q.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", program, *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=120)


def run_capped(cap_mb: int, *argv, stdout=subprocess.PIPE):
    """The CLI in a fresh interpreter whose address space is capped."""
    return run_fresh(_CAPPED, str(cap_mb), *argv, stdout=stdout)


def test_out_of_memory_is_a_message_not_a_traceback():
    # find_b's inverse table alone is 10^11 entries for this prime
    proc = run_capped(256, "classes", "100000000003")
    assert proc.returncode == 1
    assert proc.stderr.startswith("sl2q: error: out of memory")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


class _Discard(io.TextIOBase):
    """A text stream that drops what it is given."""
    def write(self, s):
        return len(s)


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "latex"])
def test_classes_stream_in_little_memory(fmt, monkeypatch):
    # the class list is rendered row by row from ints, in well under 1 MB
    # here (find_b's table of 20,011 inverses included).  One ConjClass,
    # GroupElem and label per class, kept until the list was printed, made
    # the peak 7-15 MB; at q = 100003 it was 72-74 MB.  A smaller q keeps
    # the test fast: tracing makes each allocation about 15 times dearer
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        assert main(["classes", "20011", "--format", fmt]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("argv", [("char-table", "47"), ("fs", "53")])
def test_tables_past_the_enumeration_bound_fit_in_500_mb(argv):
    # neither command promotes a value to N = lcm(q, q-1, q+1) = 74,412
    # at q = 53, where phi(N) = 22,464
    proc = run_capped(500, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("char")


def test_csv_table_at_the_working_conductor_fits_in_256_mb():
    # csv promotes every cell to N = 14,880 for its approx columns, which
    # must not cost memory in proportion to N * phi(N) (57 M ints); the
    # digest was written by the code that kept such a table
    proc = run_capped(256, "char-table", "31", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "0599c1a43db3f4fd6819434ab8ee866d9ab9906e139d991cd9a4008fef77bbd2")


def test_json_table_at_q_47_fits_in_64_mb():
    # JSON writes each value at its natural conductor, not at
    # N = 51,888 (phi(N) = 16,192 coefficients a cell), where the document
    # was 632 MB and its writer peaked at about 100 MB
    with tempfile.TemporaryFile() as out:
        proc = run_capped(64, "char-table", "47", "--format", "json",
                          stdout=out)
        assert proc.returncode == 0, proc.stderr
        out.seek(0)
        # hashlib.file_digest is new in Python 3.11
        digest = hashlib.sha256(out.read()).hexdigest()
        assert out.tell() < 1 << 20
    assert digest == (
        "9ddcd025e217e0256f1a351fdd3497f37a84ecba1246dcbe4bb3bec5d1ca137b")


_COUNT_PROMOTIONS = """
import contextlib, io, sys
from sl2q.chars import complex_table
from sl2q.cli import main
from sl2q.cyclo import CycNum
promote, calls = CycNum.promote, []
def counted(self, M):
    calls.append(M)
    return promote(self, M)
CycNum.promote = counted
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["char-table", "17", "--format", sys.argv[1]]) == 0
print(len(calls), len({v.key() for row in complex_table(17).rows.values()
                        for v in row}))
"""


def test_csv_promotes_each_distinct_value_once_and_json_none():
    # csv takes its approx columns at N, once per distinct value: 29 of
    # the 441 cells; JSON writes every value at its natural conductor
    counts = {}
    for fmt in ("csv", "json"):
        proc = run_fresh(_COUNT_PROMOTIONS, fmt)
        assert proc.returncode == 0, proc.stderr
        counts[fmt] = tuple(map(int, proc.stdout.split()))
    promotions, distinct = counts["csv"]
    assert promotions <= distinct < 441
    assert counts["json"] == (0, distinct)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("command", ["classes", "char-table", "real-table",
                                     "fs", "fixed-points", "verify"])
def test_json_output_is_json_dumps_of_its_document(capsys, command, q):
    # one compact line, schema 2, as json.dumps writes the document
    code, out, _ = run_cli(capsys, command, str(q), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 2
    assert out == json.dumps(doc) + "\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "latex", "json"])
@pytest.mark.parametrize("command, build", [("char-table", complex_table),
                                            ("real-table", real_table)])
def test_table_renders_each_distinct_cell_once(monkeypatch, capsys, command,
                                               build, fmt):
    # a table of (q+4)^2 cells holds far fewer distinct display cells, and
    # JSON encodes each entry's value document once, not once per cell
    table = build(13)
    distinct = {cell for cells in table.cells.values() for cell in cells}
    calls, encoded = [], []
    name = "sym_latex" if fmt == "latex" else "sym_str"
    module = chars if fmt == "json" else cli
    render = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda cell: calls.append(cell) or render(cell))

    class Counted(dict):
        def items(self):   # what json's encoder reads a dict subclass by
            encoded.append(self)
            return super().items()
    to_json = CycNum.to_json
    monkeypatch.setattr(CycNum, "to_json", lambda v: Counted(to_json(v)))
    code, _, _ = run_cli(capsys, command, "13", "--format", fmt)
    assert code == 0
    assert sorted(map(repr, calls)) == sorted(map(repr, distinct))
    assert len(encoded) == (len(table.pool) if fmt == "json" else 0)
    assert len(distinct) < 17 * 17
