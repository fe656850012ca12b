"""One benchmark op: a single ``sl2q.cli.main(argv)`` call in this fresh
interpreter, as a CLI user pays for it.

Usage: child.py SPEC_JSON RESULT_PATH

SPEC_JSON holds ``argv`` (the CLI arguments; null to import and stop,
which samples set-up time alone), ``out`` (the file the parent
redirected stdout to), ``mem_mb`` (the address-space cap for this process)
and ``trace`` (record layer spans).  stdout is the command's own output;
the parent checks text, csv and latex output against reference digests.
The op's measurements go to RESULT_PATH as JSON:

  ready      perf_counter() once ``sl2q`` is imported and its kernel
             chosen (the parent subtracts its spawn time to get set-up)
  import_s   time of the ``import sl2q`` statement alone
  cmd_s      command time: from just before ``main`` until it returned and
             stdout was flushed
  maxrss_kb  this process's ru_maxrss when the command returned
  exit       ``main``'s return value
  status     "ok", "oom" (MemoryError, or a verify check that crashed with
             one) or "wrong" (the JSON check below failed)
  kernel     sl2q._kernel.IMPLEMENTATION
  layers     traced runs only: per-function calls and self time, the counts
             kept beside the spans, and the table cache sizes

JSON output is loaded back through the library's loader and compared with
the library object, after the timed region and after the spans were
reduced, so the check costs neither the command nor the trace anything.
"""
import json
import resource
import sys
import time


def _json_check(cmd: str, q: int, text: str) -> str | None:
    """None when the JSON output equals the library object, else why not."""
    import sl2q
    obj = json.loads(text)
    if cmd == "char-table":
        ok = sl2q.CharTable.from_json(obj) == sl2q.complex_table(q)
    elif cmd == "real-table":
        ok = sl2q.RealCharTable.from_json(obj) == sl2q.real_table(q)
    elif cmd == "fixed-points":
        ok = sl2q.FixedDimTable.from_json(obj) == sl2q.full_report(q)
    elif cmd == "verify":
        report = sl2q.VerificationReport.from_json(obj)
        if obj.get("overall") is not True or not report.overall:
            return "verify report is not overall true"
        ok = report == sl2q.verify_all(q)
    else:
        return f"no JSON loader for {cmd}"
    return None if ok else f"{cmd} {q}: JSON does not equal the library object"


def main() -> int:
    spec = json.loads(sys.argv[1])
    result_path = sys.argv[2]
    cap = spec["mem_mb"] * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    t0 = time.perf_counter()
    import sl2q
    import sl2q.cli
    ready = time.perf_counter()
    result = {"ready": ready, "import_s": ready - t0,
              "kernel": sl2q._kernel.IMPLEMENTATION}

    argv = spec["argv"]
    if argv is None:
        _write(result_path, result)
        return 0
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    status = "ok"
    code = None
    t1 = time.perf_counter()
    try:
        code = sl2q.cli.main(argv)
        sys.stdout.flush()
    except MemoryError:
        status = "oom"
    t2 = time.perf_counter()
    result["cmd_s"] = t2 - t1
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["exit"] = code

    if tracer is not None:
        result["layers"] = tracer.layers()

    cmd, q, fmt = argv[0], int(argv[1]), argv[argv.index("--format") + 1]
    if status == "ok" and code == 2 and cmd == "verify":
        # verify_all isolates each check, so a MemoryError inside one
        # surfaces as a crashed check and exit code 2, not as an exception
        with open(spec["out"], encoding="utf-8") as fh:
            if "MemoryError" in fh.read():
                status = "oom"
    if status == "ok" and code == 0 and fmt == "json":
        with open(spec["out"], encoding="utf-8") as fh:
            why = _json_check(cmd, q, fh.read())
        if why is not None:
            status = "wrong"
            result["why"] = why
    result["status"] = status
    _write(result_path, result)
    return 0


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
