"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py SRC_DIR SPEC_JSON

SPEC_JSON is {"setup_only": true} or {"suites": [[arg, ...], ...],
"trace": null | {"run_id": ..., "out": path}}.  The worker imports
`qch.cli` from SRC_DIR first, so the monotonic time at which the import
finished (`t_ready`) marks the end of set-up.  It then calls
`qch.cli.main(argv)` for each suite with stdout captured, and prints one
JSON object: timings, CPU time, peak RSS and each suite's wall time, CPU
time and output lines.
"""
import sys
import time

sys.path.insert(0, sys.argv[1])
import qch.cli  # noqa: E402  (set-up ends when this import is done)

T_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_suite(argv):
    buf = io.StringIO()
    error = None
    cpu0 = _cpu_seconds()
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        with contextlib.redirect_stdout(buf):
            qch.cli.main(argv)
    except SystemExit as exc:
        error = f"SystemExit({exc.code})"
    except Exception:  # report and go on with the next suite
        error = traceback.format_exc(limit=8)
    return {"argv": argv, "error": error,
            "wall_s": time.clock_gettime(time.CLOCK_MONOTONIC) - t0,
            "cpu_s": _cpu_seconds() - cpu0,
            "lines": buf.getvalue().splitlines()}


def main():
    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(qch.cli.__file__).startswith(src + os.sep):
        print(f"qch imported from {qch.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    spec = json.loads(sys.argv[2])
    out = {"t_ready": T_READY}
    if spec.get("setup_only"):
        print(json.dumps(out))
        return 0
    log = None
    if spec.get("trace"):
        from tracer import install  # the benchmark's own module
        log = install(spec["trace"]["run_id"])
    cpu0 = _cpu_seconds()
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    suites = [run_suite(argv) for argv in spec["suites"]]
    t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out.update(wall_s=t1 - t0, cpu_s=_cpu_seconds() - cpu0,
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               suites=suites)
    if log is not None:
        out["layers"] = log.metrics()
        log.dump(spec["trace"]["out"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
