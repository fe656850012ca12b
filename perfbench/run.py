"""End-to-end and per-layer benchmark of the sl2q command line.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --write-reference

Run it from the repository root: the package is imported from ./src, and
scratch files go to perfbench/.work.  Only the standard library is used.

Load model
----------
Closed loop with one client: ops run one at a time, and each op is one
``sl2q.cli.main(argv)`` call in a fresh child interpreter (child.py), so
every op starts with cold per-process caches, as a CLI user's command does.
Nothing runs in parallel.  Each workload is a fixed list of (command, q,
format) ops, so every seed does the same numeric work.  The seed permutes
the op order of every pass and, inside each group of ops marked as
interchangeable, which op gets which output format.  Formats are only
interchanged where their rendering costs about the same: a JSON table at
q=23 writes 19 MB and doubles peak RSS, so letting the seed put JSON
anywhere would make the figures depend on the seed.

A run measures whole passes over the workload's ops for about --seconds:
it starts another pass only while the previous pass's duration still fits
in what is left.  Each end-to-end metric is the median over the run's
passes.  A pass of any workload takes about 20 s on a 2-vCPU x86 VM, so
at run_seconds=20 a run makes one pass; code that halves a pass gets two.  With --trace 1 the run makes one untraced pass, then two traced
passes with the same op order; the per-layer figures come from the traced
passes, and their exact counts must repeat between the two (determinism
self-check) or the run is reported incorrect.

Each op has a time budget (OP_TIMEOUT_S, cut short by the run's own
deadline) and an address-space cap (MEM_CAP_MB, RLIMIT_AS in the child).
An op that exceeds either is recorded as "timeout" or "oom" and counted as
failed, never dropped.

Output checks, on every op: text, csv and latex stdout must match the
SHA-256 digests in perfbench/reference.json byte for byte (captured from
the unmodified package with --write-reference).  JSON stdout must load
through CharTable / RealCharTable / FixedDimTable / VerificationReport
.from_json and equal the library object (child.py); verify must report
overall true.  A nonzero exit, a wrong output, a timeout or an OOM fails
the op.  Wrong output, a crash or a failed self-check sets "correct" false.

The last stdout line is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it holds the run metadata: Python version, the kernel
each child reported (sl2q._kernel.IMPLEMENTATION; runs on the pure and the
compiled kernel must not be compared), nproc, seed and the expanded op list
of every pass with each op's figures.

Workloads (the why of each is also in BENCHMARK.json)
-----------------------------------------------------
verify  ``verify q``, q in {7, 11, 13}; 7 runs twice so that all four
        formats appear, and JSON stays on q=7 because its check runs
        verify_all again.  Brute-force enumeration (grp) plus dense CycNum products
        and sums at the working conductor N = lcm(q, q-1, q+1): the
        workload where kernel and CycNum arithmetic work shows.
tables  ``char-table q`` and ``real-table q``, q in {17, 19, 23}.  Table
        construction at large conductors (promote, CycNum/Fraction
        construction, cyclotomic_polynomial), no kernel products (the
        tables multiply only by rationals) and no enumeration;
        representation size and memory show here.
closed  ``fixed-points q``, q in {101, 149, 211}, past the enumeration
        bound, plus ``classes 1009``.  Pure closed forms: no CycNum, no
        kernel, no enumeration; fixdim/realrep label handling and cli
        rendering of large outputs.  A cyclo or kernel change should move
        nothing here.

End-to-end metrics (--trace 0), each the median over the run's passes
---------------------------------------------------------------------
wall_s        s      sum over a pass's ops of command time (after import,
                     until main returns and stdout is flushed)
slowest_op_s  s      command time of the slowest op of a pass (verify 13,
                     real-table 23, fixed-points 211)
peak_rss_mb   MB     largest child ru_maxrss of a pass
setup_s       s      interpreter start plus ``import sl2q`` and kernel
                     selection, measured from the parent's spawn to the
                     child's ready mark, summed over a pass's ops.  Each
                     op's share is the median of the run's samples: every
                     op's own set-up plus SETUP_SAMPLES import-only
                     children, so one stalled start does not swing it
ok_ratio      1      ops that passed / ops attempted over the run's
                     untraced passes, i.e. 1 - fail_ratio (the metrics
                     must never read 0, so the complement is reported;
                     "failed" and "attempted" carry the raw counts)

Per-layer metrics (--trace 1), summed over the ops of a traced pass, times
the median of the two traced passes.  Spans are recorded by spans.py from
the benchmark's own code around each public function, on every binding of
it; "self_s" is a span's duration minus the time covered by its child spans.
Layer ``kernel`` is the package's ``_kernel`` module.
  kernel.mul_reduce.{calls, self_s, products}  products = nnz(xs)*nnz(ys)
      per call, an exact op count.  Feeds wall_s on verify.
  cyclo.{mul, add, conjugate}.{calls, self_s}; cyclo.mul.
      rational_operands_share = CycNum x CycNum products whose operands
      are both rational / all CycNum x CycNum products (0 when there are
      none).  Feed wall_s on verify.
  cyclo.promote.{calls, self_s}, cyclo.cyclotomic_polynomial.self_s,
      cyclo.phi_max (largest cyclotomic degree built).  Feed wall_s and
      peak_rss_mb on tables.
  grp.{enumerate_group, conjugacy_partition, class_label_lookup,
      representatives}.self_s, grp.elements (elements enumerated, cache
      misses only).  Feed wall_s on verify.
  chars.complex_table.{calls, self_s, cache_size}, realrep.real_table.
      {calls, self_s, cache_size} (lru cache entries when the op ends).
      Feed wall_s and peak_rss_mb on tables.
  realrep.fs_indicator_{closed, brute, raw}.self_s.  Feed wall_s on verify.
  realrep.real_char_labels.{calls, self_s}, fixdim.fixed_dim_closed.{calls,
      self_s}, fixdim.{fixed_dim_average, full_report}.self_s.  Feed
      wall_s and slowest_op_s on closed (and the fixed_dims check of verify).
  verify.verify_all.self_s.  Feeds wall_s on verify; stands in for the
      per-check timings until the report carries them.
  cli.main.self_s, chars.{sym_str, sym_latex}.{calls, self_s},
      cli.stdout_bytes (bytes written to stdout).  Feed wall_s on closed
      and tables.
  trace.overhead_ratio  traced / untraced wall_s of the same run.
Every count (calls, products, elements, phi_max, cache sizes, stdout
bytes) must repeat exactly between the two traced passes; later changes
can then cite them as counts.  The child runs with PYTHONHASHSEED=0, since
str hashes decide set iteration order and with it the counts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 8
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 165.0
MEM_CAP_MB = 2048

# ops: (command, q, format); groups: indices of ops whose formats the seed
# permutes among themselves (equal rendering cost, see the module docstring)
WORKLOADS = {
    "verify": {
        "ops": [("verify", 7, "json"), ("verify", 7, "csv"),
                ("verify", 11, "latex"), ("verify", 13, "text")],
        "groups": [[1, 2, 3]],
    },
    "tables": {
        "ops": [("char-table", 17, "json"), ("real-table", 17, "csv"),
                ("char-table", 19, "latex"), ("real-table", 19, "json"),
                ("char-table", 23, "text"), ("real-table", 23, "text")],
        "groups": [[0, 1], [2, 3], [4, 5]],
    },
    "closed": {
        "ops": [("fixed-points", 101, "json"), ("fixed-points", 149, "csv"),
                ("fixed-points", 211, "text"), ("classes", 1009, "latex")],
        "groups": [],
    },
}

def expand(workload: str, rng: random.Random) -> list[tuple]:
    """The workload's ops with the seed's format assignment."""
    spec = WORKLOADS[workload]
    ops = list(spec["ops"])
    for group in spec["groups"]:
        formats = [ops[i][2] for i in group]
        rng.shuffle(formats)
        for i, fmt in zip(group, formats):
            ops[i] = ops[i][:2] + (fmt,)
    return ops


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # str hashes decide set order; fixing them makes the counts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def run_op(op: tuple, trace: bool, deadline: float, reference: dict | None,
           env: dict) -> dict:
    """Run one op in a child interpreter and check its output."""
    cmd, q, fmt = op
    rec = {"op": f"{cmd} {q} {fmt}", "status": "ok", "cmd_s": None,
           "setup_s": None, "rss_mb": None, "bytes": None}
    timeout = min(OP_TIMEOUT_S, deadline - perf_counter())
    if timeout <= 0:
        rec["status"] = "timeout"
        rec["why"] = "run budget spent before the op could start"
        return rec
    out_path, err_path, res_path = (WORK / "stdout", WORK / "stderr",
                                    WORK / "result.json")
    res_path.unlink(missing_ok=True)
    spec = {"argv": [cmd, str(q), "--format", fmt], "out": str(out_path),
            "mem_mb": MEM_CAP_MB, "trace": trace}
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(spec),
            str(res_path)]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rec["status"] = "timeout"
        elapsed = perf_counter() - t0
    rec["bytes"] = out_path.stat().st_size
    if rec["status"] == "timeout":
        rec["cmd_s"] = elapsed
        return rec
    if proc.returncode != 0 or not res_path.exists():
        killed = proc.returncode == -signal.SIGKILL
        rec["status"] = "oom" if killed else "error"
        rec["cmd_s"] = elapsed
        rec["why"] = err_path.read_text(errors="replace")[-2000:]
        return rec

    res = json.loads(res_path.read_text())
    rec.update(cmd_s=res["cmd_s"], setup_s=res["ready"] - t0,
               rss_mb=res["maxrss_kb"] / 1024, kernel=res["kernel"],
               status=res["status"])
    if "layers" in res:
        rec["layers"] = res["layers"]
    if rec["status"] != "ok":
        rec["why"] = res.get("why", err_path.read_text(errors="replace")[-2000:])
    elif res["exit"] != 0:
        rec["status"] = "error"
        rec["why"] = (f"exit code {res['exit']}: "
                      + err_path.read_text(errors="replace")[-2000:])
    elif fmt != "json" and reference is not None:
        key = rec["op"]
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        if reference.get(key) != digest:
            rec["status"] = "wrong"
            rec["why"] = (f"stdout digest {digest} differs from the reference "
                          f"{reference.get(key)}")
    return rec


def sample_setup(env: dict) -> float:
    """Set-up time of one import-only child."""
    res_path = WORK / "result.json"
    res_path.unlink(missing_ok=True)
    spec = {"argv": None, "mem_mb": MEM_CAP_MB, "trace": False}
    t0 = perf_counter()
    subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec),
                    str(res_path)], env=env, cwd=ROOT, check=True,
                   timeout=OP_TIMEOUT_S)
    return json.loads(res_path.read_text())["ready"] - t0


def run_pass(ops: list[tuple], trace: bool, deadline: float,
             reference: dict, env: dict) -> list[dict]:
    recs = []
    for op in ops:
        rec = run_op(op, trace, deadline, reference, env)
        if rec["status"] != "ok":
            print(f"perfbench: {rec['op']}: {rec['status']}: "
                  f"{rec.get('why', '')}", file=sys.stderr)
        recs.append(rec)
    return recs


def end_to_end(passes: list[list[dict]], setup_samples: list[float]) -> dict:
    def med(per_pass):
        return statistics.median(per_pass(p) for p in passes)

    recs = [r for p in passes for r in p]
    ok = sum(r["status"] == "ok" for r in recs)
    samples = setup_samples + [r["setup_s"] for r in recs
                               if r["setup_s"] is not None]
    return {
        "wall_s": med(lambda p: sum(r["cmd_s"] or 0.0 for r in p)),
        "slowest_op_s": med(lambda p: max(r["cmd_s"] or 0.0 for r in p)),
        "peak_rss_mb": med(lambda p: max(r["rss_mb"] or 0.0 for r in p)),
        "setup_s": len(passes[0]) * statistics.median(samples),
        "ok_ratio": ok / len(recs),
    }


def per_layer(p: list[dict]) -> dict:
    """One traced pass's layer figures, summed over its ops."""
    total: dict = {}
    for r in p:
        for k, v in r.get("layers", {}).items():
            if k == "cyclo.phi_max":
                total[k] = max(total.get(k, 0), v)
            else:
                total[k] = total.get(k, 0) + v
    pairs = total.pop("cyclo.mul.cyc_pairs", 0)
    rational = total.pop("cyclo.mul.rational_pairs", 0)
    total["cyclo.mul.rational_operands_share"] = rational / pairs if pairs else 0.0
    total["cli.stdout_bytes"] = sum(r["bytes"] or 0 for r in p)
    return total


def write_reference(env: dict) -> int:
    """Record the SHA-256 of text, csv and latex stdout of every command
    the workloads can run; the package must be the one to compare against."""
    deadline = perf_counter() + 3600
    keys = sorted({(cmd, q) for spec in WORKLOADS.values()
                   for cmd, q, _ in spec["ops"]})
    digests = {}
    for cmd, q in keys:
        for fmt in ("text", "csv", "latex"):
            rec = run_op((cmd, q, fmt), False, deadline, None, env)
            if rec["status"] != "ok":
                print(f"perfbench: {rec['op']}: {rec['status']}: "
                      f"{rec.get('why', '')}", file=sys.stderr)
                return 1
            digests[rec["op"]] = hashlib.sha256(
                (WORK / "stdout").read_bytes()).hexdigest()
            print(f"{rec['op']}: {digests[rec['op']]}", flush=True)
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record reference digests of the current package")
    args = ap.parse_args()

    if not (ROOT / "src" / "sl2q" / "cli.py").is_file():
        print(f"perfbench: no sl2q package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = child_env()
    # the first child compiles the package's bytecode; no op pays for that
    sample_setup(env)
    if args.write_reference:
        return write_reference(env)
    if args.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    reference = json.loads(REFERENCE.read_text())
    rng = random.Random(args.seed)
    ops = expand(args.workload, rng)
    deadline = perf_counter() + RUN_BUDGET_S
    setup_samples = [sample_setup(env) for _ in range(SETUP_SAMPLES)]
    passes, traced = [], []
    start = perf_counter()
    while True:
        order = rng.sample(ops, len(ops))
        t0 = perf_counter()
        passes.append(run_pass(order, False, deadline, reference, env))
        took = perf_counter() - t0
        if args.trace or perf_counter() - start + took > seconds:
            break
    if args.trace:
        for _ in range(2):
            traced.append(run_pass(order, True, deadline, reference, env))

    recs = [r for p in passes + traced for r in p]
    failed = sum(r["status"] != "ok" for r in recs)
    correct = not any(r["status"] in ("wrong", "error") for r in recs)
    if args.trace:
        layers = [per_layer(p) for p in traced]
        values = {}
        for k, v in layers[0].items():
            if isinstance(v, int) and v != layers[1][k]:
                correct = False
                print(f"perfbench: determinism self-check: {k} is {v} then "
                      f"{layers[1][k]}", file=sys.stderr)
            values[k] = v if v == layers[1][k] else (v + layers[1][k]) / 2
        untraced = end_to_end(passes, setup_samples)["wall_s"]
        values["trace.overhead_ratio"] = (
            statistics.median(sum(r["cmd_s"] or 0.0 for r in p) for p in traced)
            / untraced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(passes, setup_samples)
        wanted = spec["end_to_end"]

    meta = {
        "python": platform.python_version(),
        "kernel": sorted({r["kernel"] for r in recs if "kernel" in r}),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed,
        "seconds": seconds, "trace": args.trace,
        "setup_samples": setup_samples,
        "passes": [[{k: r[k] for k in ("op", "status", "cmd_s", "setup_s",
                                        "rss_mb", "bytes")} for r in p]
                   for p in passes + traced],
    }
    print(json.dumps({"meta": meta}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": len(recs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
