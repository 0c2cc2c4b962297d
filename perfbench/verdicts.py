"""Verdict checker behind the benchmark's failed-check count.

A check fails if it is missing, its suite raised or ran past the run's
time budget, its status is not `pass`/`probable-pass`, it is a
`probable-pass` whose `failure_bound` is absent or >= 1e-12, or its exact
verdict differs from the reference.  The exact verdicts are the
`ideal.rank` statistics, the `rmatrix.height` value and each `appendix`
line.  A report the reference does not expect also counts as failed.

The reference (`reference.json`) was recorded from the code it
benchmarks; re-record it only when a verdict is meant to change:

    python3 perfbench/verdicts.py --record
"""
from __future__ import annotations

import json
import os
import re
import sys

FAILURE_TARGET = 1e-12
OK_STATUSES = ("pass", "probable-pass")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
_HEIGHT = re.compile(r"height=(\d+)")


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def exact_verdict(report):
    """The seed-independent verdict of a report, or None if it has none."""
    if report["check"] == "ideal.rank":
        return json.loads(report.get("witness", "null"))
    if report["check"] == "rmatrix.height":
        found = _HEIGHT.match(report.get("witness", ""))
        return int(found.group(1)) if found else None
    return None


def _judge_report(report, expected_exact):
    status = report.get("status")
    if status not in OK_STATUSES:
        return f"status {status!r}"
    if status == "probable-pass":
        bound = report.get("failure_bound")
        if not isinstance(bound, (int, float)) or bound >= FAILURE_TARGET:
            return f"failure_bound {bound!r}"
    if expected_exact is not None:
        got = exact_verdict(report)
        if got != expected_exact:
            return f"verdict {got!r} != reference {expected_exact!r}"
    return None


def judge_suite(ref, result):
    """[(check id, failure reason or None)] for one suite's result.

    `result` is the worker's record of the suite, or None when the suite
    never ran (timeout or crash)."""
    if "lines" in ref:
        return _judge_appendix(ref["lines"], result)
    checks = ref["checks"]
    exact = ref.get("exact", {})
    if result is None or result["error"] is not None:
        why = "not run" if result is None else result["error"].splitlines()[-1]
        return [(name, why) for name in checks]
    reports = {}
    extra = []
    for line in result["lines"]:
        try:
            report = json.loads(line)
            name = report["check"]
        except (ValueError, KeyError, TypeError):
            extra.append((f"unparsed:{line[:60]}", "not a report"))
            continue
        if name in reports or name not in checks:
            extra.append((name, "unexpected report"))
        else:
            reports[name] = report
    out = []
    for name in checks:
        report = reports.get(name)
        why = "missing" if report is None else _judge_report(
            report, exact.get(name))
        out.append((name, why))
    return out + extra


def _judge_appendix(lines, result):
    if result is None or result["error"] is not None:
        why = "not run" if result is None else result["error"].splitlines()[-1]
        return [(f"appendix:{label}", why) for label in lines]
    got = {}
    extra = []
    for line in result["lines"]:
        try:
            item = json.loads(line)
            label, poly = item["label"], item["poly"]
        except (ValueError, KeyError, TypeError):
            extra.append((f"appendix:unparsed:{line[:60]}", "not a relation"))
            continue
        if label in got or label not in lines:
            extra.append((f"appendix:{label}", "unexpected relation"))
        else:
            got[label] = poly
    out = []
    for label, poly in lines.items():
        if label not in got:
            why = "missing"
        elif got[label] != poly:
            why = "relation differs from reference"
        else:
            why = None
        out.append((f"appendix:{label}", why))
    return out + extra


def record():
    """Run every suite of every workload once (seed 0) and write the
    reference."""
    from run import run_worker
    from workloads import WORKLOADS, suite_argv, suite_key

    suites = {}
    for workload in WORKLOADS.values():
        for suite in workload:
            suites.setdefault(suite_key(suite), suite)
    spec = {"suites": [suite_argv(s, 0) for s in suites.values()]}
    _, result, error = run_worker(os.getcwd(), spec, 600.0)
    if result is None:
        raise SystemExit(error)
    results = result["suites"]
    ref = {}
    for key, result in zip(suites, results):
        if result["error"] is not None:
            raise SystemExit(f"{key}: {result['error']}")
        rows = [json.loads(line) for line in result["lines"]]
        if key == "appendix":
            ref[key] = {"lines": {r["label"]: r["poly"] for r in rows}}
            continue
        entry = {"checks": sorted(r["check"] for r in rows)}
        exact = {r["check"]: exact_verdict(r) for r in rows
                 if exact_verdict(r) is not None}
        if exact:
            entry["exact"] = exact
        ref[key] = entry
    for (key, entry), result in zip(ref.items(), results):
        bad = [c for c, why in judge_suite(entry, result) if why]
        if bad:
            raise SystemExit(f"{key}: reference run fails {bad}")
    with open(REFERENCE, "w") as fh:
        json.dump({"suites": ref}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record()
