"""North-star scale rows: the large CLI commands that perfbench does not run.

Usage (from the repository root):
  python3 benchmarks/bench_scale.py --label change --out BENCH_<n>.json
         [--src src] [--parent <parent checkout>/src]

Each command runs REPEATS times, each in a fresh child interpreter that
imports sl2q from --src, with a wall-clock budget (BUDGET_S; the child is
killed past it) and an address-space cap (CAP_MB, RLIMIT_AS in the child;
the cap of a perfbench op).  A command whose first REPEATS runs all
finish under SHORT_S runs SHORT_REPEATS times instead: whole-process
wall time under a second spreads too widely for three runs to tell two
trees apart.  Commands run one at a time.  A row is the run of median
wall time, and records:

  argv         the CLI arguments
  status       "ok" (exit 0), "timeout" (killed at the budget), "oom"
               (exit 1 and MemoryError or "out of memory" on stderr),
               "refused" (exit 1 with an "sl2q: error:" message),
               "error" (anything else) or "unstable" (the runs differ
               in status or stdout)
  exit         the child's exit code (null after a timeout)
  wall_s       spawn to exit, interpreter start-up included: the median
               of the runs
  wall_runs_s  the wall time of each run, in the order they ran
  peak_rss_mb  the child's ru_maxrss, from wait4 (of the median run)
  stdout_bytes, stdout_sha256   so two trees' outputs can be compared
               (the child writes to a temporary file, hashed after it
               exits: an output may be hundreds of MB, and a
               pipe would make the child wait on its reader)
  stderr_tail  the last stderr line, when there is one

The rows go into --out under the key --label, next to the rows of other
labels already there.  With --parent, every command also runs on that
second tree, whose rows go under the key "parent"; the two sides take
turns, one run each, and which side goes first alternates from turn to
turn, so a drift in host speed does not read as a change.  Only the
standard library is used; the script is not a test and pytest does not
collect it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUDGET_S = 120.0
CAP_MB = 2048
REPEATS = 3        # runs of each command per side; single runs drift ±40%
SHORT_S = 1.0      # a command whose first runs all finish under this ...
SHORT_REPEATS = 9  # ... runs this many times per side

COMMANDS = [
    ["classes", "3"],   # interpreter start-up and argument parsing alone
    ["verify", "7"],    # the perfbench verify sizes
    ["verify", "11"],
    ["verify", "13"],
    ["verify", "23"],
    ["verify", "31"],
    ["verify", "47"],
    ["verify", "71", "--max-enum", "71"],
    ["verify", "101", "--max-enum", "101"],
    ["verify", "149", "--max-enum", "149"],
    ["char-table", "47"],
    ["real-table", "47"],
    ["fs", "23"],
    ["fs", "37"],
    ["fs", "53"],
    ["char-table", "31", "--format", "csv"],
    ["char-table", "47", "--format", "csv"],
    ["char-table", "101", "--format", "csv"],
    ["real-table", "47", "--format", "csv"],
    ["real-table", "47", "--format", "json"],
    ["char-table", "23"],               # the perfbench tables sizes
    ["real-table", "23", "--format", "csv"],
    ["real-table", "23", "--format", "json"],
    ["char-table", "31", "--format", "json"],
    ["char-table", "47", "--format", "json"],
    ["fixed-points", "1009"],
    ["fixed-points", "1009", "--format", "json"],
    ["fixed-points", "1009", "--format", "csv"],
    ["fixed-points", "1009", "--format", "latex"],
    ["fixed-points", "2003"],
    ["fixed-points", "2003", "--format", "csv"],
    ["fixed-points", "5003"],
    ["fixed-points", "10007"],
    ["fixed-points", "47", "--max-enum", "47"],
    ["fixed-points", "101", "--max-enum", "101"],
    ["fixed-points", "211", "--max-enum", "211"],
    ["fixed-points", "1009", "--max-enum", "1009"],
    ["classes", "1009", "--format", "latex"],   # the perfbench closed op
    ["classes", "100003"],
    ["classes", "100003", "--format", "latex"],
    ["classes", "1000003"],
    ["classes", "1000003", "--format", "latex"],
    ["char-table", "499"],
    ["real-table", "499"],
    ["fs", "499"],
    ["fs", "1009"],
    ["fs", "2003"],
    ["char-table", "1009"],
    ["char-table", "2003"],
    ["real-table", "1009"],
    ["real-table", "2003"],
]

_CHILD = "import sys; from sl2q.cli import main; sys.exit(main(sys.argv[1:]))"


def _cap(mb: int):
    def limit():
        cap = mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    return limit


def run(argv: list[str], src: Path, budget: float, cap_mb: int) -> dict:
    """One command in a capped child; its row.  The child's stdout goes
    to a temporary file, hashed after the child has exited, so the timed
    run never waits on a reader."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _CHILD, *argv],
                                stdout=out, stderr=err, env=env,
                                preexec_fn=_cap(cap_mb))
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t0 > budget:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.01)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        out.seek(0)
        digest = hashlib.file_digest(out, "sha256")
        stdout_bytes = out.tell()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    code = None if timed_out else proc.returncode
    if timed_out:
        state = "timeout"
    elif code == 0:
        state = "ok"
    elif code == 1 and ("MemoryError" in stderr or "out of memory" in stderr):
        state = "oom"
    elif code == 1 and "sl2q: error:" in stderr:
        state = "refused"
    else:
        state = "error"
    lines = stderr.strip().splitlines()
    return {
        "argv": argv,
        "status": state,
        "exit": code,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "stdout_bytes": stdout_bytes,
        "stdout_sha256": digest.hexdigest(),
        "stderr_tail": lines[-1] if lines else None,
    }


def median_row(runs: list[dict]) -> dict:
    """The run of median wall time, with the wall time of every run."""
    row = dict(sorted(runs, key=lambda r: r["wall_s"])[len(runs) // 2])
    row["wall_runs_s"] = [r["wall_s"] for r in runs]
    if any((r["status"], r["stdout_sha256"])
           != (row["status"], row["stdout_sha256"]) for r in runs):
        row["status"] = "unstable"
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="key of this run's rows in the output file")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the sl2q package to run")
    ap.add_argument("--out", type=Path, required=True,
                    help="JSON file that receives the rows, e.g. BENCH_9.json")
    ap.add_argument("--parent", type=Path,
                    help="sl2q package directory of the parent commit: run "
                         "every command on it too, under the label parent")
    args = ap.parse_args()

    sides = [("parent", args.parent.resolve())] if args.parent else []
    sides.append((args.label, args.src.resolve()))
    rows = {label: [] for label, _ in sides}
    for i, argv in enumerate(COMMANDS):
        runs = {label: [] for label, _ in sides}
        turn, turns = 0, REPEATS
        while turn < turns:
            for label, src in sides[::-1] if (i + turn) % 2 else sides:
                row = run(argv, src, BUDGET_S, CAP_MB)
                print(json.dumps({"label": label, **row}), flush=True)
                runs[label].append(row)
            turn += 1
            if turn == REPEATS and all(r["wall_s"] < SHORT_S
                                       for side in runs.values() for r in side):
                turns = SHORT_REPEATS
        for label, side_runs in runs.items():
            rows[label].append(median_row(side_runs))

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label, side_rows in rows.items():
        doc.setdefault("runs", {})[label] = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "budget_s": BUDGET_S,
            "cap_mb": CAP_MB,
            "repeats": REPEATS,
            "short_repeats": SHORT_REPEATS,
            "short_s": SHORT_S,
            "rows": side_rows,
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
