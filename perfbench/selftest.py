"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py                      # verdict checker only
    python3 perfbench/selftest.py --determinism all    # plus qch runs

Run from the root of a checkout.  The verdict part doctors a report that
passes (flips a status, raises a failure bound to 1e-6, changes the
`ideal.rank` statistics, ...) and requires each doctored copy to count as
failed.  The determinism part, per workload, runs two traced passes with
one seed and requires identical counters, then measures the workload
(as run.py does) under that seed and another one and requires their
wall_rel to agree within the wall_rel bound of BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import TRACE_DIR, Run, run_worker  # noqa: E402
from tracer import PER_LAYER_METRICS  # noqa: E402
from verdicts import judge_suite, load_reference  # noqa: E402
from workloads import WORKLOADS, suite_argv  # noqa: E402

SEED = 1
OTHER_SEED = 1000   # a seed no measurement of the benchmark used


def passing_result(ref):
    """A worker record of the suite that matches the reference."""
    if "lines" in ref:
        lines = [json.dumps({"label": label, "poly": poly})
                 for label, poly in ref["lines"].items()]
        return {"error": None, "lines": lines}
    lines = []
    for name in ref["checks"]:
        report = {"check": name, "status": "pass", "residual": "0"}
        exact = ref.get("exact", {}).get(name)
        if name == "ideal.rank":
            report["witness"] = json.dumps(exact, sort_keys=True)
        elif name == "rmatrix.height":
            report.update(status="probable-pass", failure_bound=1e-20,
                          witness=f"height={exact} (Sp({2 * exact}))")
        lines.append(json.dumps(report))
    return {"error": None, "lines": lines}


def _edit_report(result, name, edit):
    out = copy.deepcopy(result)
    for i, line in enumerate(out["lines"]):
        report = json.loads(line)
        if report.get("check") == name:
            edit(report)
            out["lines"][i] = json.dumps(report)
    return out


def doctored(ref_suites):
    """(description, suite key, doctored result, failures expected)."""
    height = ref_suites["rmatrix --k 3"]
    qma = ref_suites["qma --k 2 --pair rtt --verify ch,parent,cutting"]
    appendix = ref_suites["appendix"]
    good = {key: passing_result(ref) for key, ref in ref_suites.items()}
    cases = []

    def case(text, key, result, expected=1):
        cases.append((text, key, result, expected))

    def stats(report):
        s = json.loads(report["witness"])
        s["rank"] += 1
        report["witness"] = json.dumps(s, sort_keys=True)
    case("status flipped to fail", "rmatrix --k 3", _edit_report(
        good["rmatrix --k 3"], "rmatrix.ybe",
        lambda r: r.update(status="fail")))
    case("failure bound raised to 1e-6", "rmatrix --k 3", _edit_report(
        good["rmatrix --k 3"], "rmatrix.height",
        lambda r: r.update(failure_bound=1e-6)))
    case("probable-pass without a bound", "rmatrix --k 3", _edit_report(
        good["rmatrix --k 3"], "rmatrix.height",
        lambda r: r.pop("failure_bound")))
    case("ideal.rank statistics changed", "ideal --k 2 --degree 2",
         _edit_report(good["ideal --k 2 --degree 2"], "ideal.rank", stats))
    case("height value changed", "rmatrix --k 3", _edit_report(
        good["rmatrix --k 3"], "rmatrix.height",
        lambda r: r.update(witness="height=2 (Sp(6))")))
    dropped = copy.deepcopy(good[
        "qma --k 2 --pair rtt --verify ch,parent,cutting"])
    dropped["lines"].pop()
    case("report missing", "qma --k 2 --pair rtt --verify ch,parent,cutting",
         dropped)
    extra = copy.deepcopy(good["ideal --k 2 --degree 2"])
    extra["lines"].append(json.dumps({"check": "ideal.other",
                                      "status": "pass"}))
    case("unexpected report", "ideal --k 2 --degree 2", extra)
    raised = dict(good["qma --k 2 --pair rtt --verify ch,parent,cutting"],
                  error="Traceback ...\nValueError: boom")
    case("suite raised", "qma --k 2 --pair rtt --verify ch,parent,cutting",
         raised, len(qma["checks"]))
    case("suite never ran", "rmatrix --k 3", None, len(height["checks"]))
    changed = copy.deepcopy(good["appendix"])
    item = json.loads(changed["lines"][0])
    item["poly"] += " + M^0_0"
    changed["lines"][0] = json.dumps(item)
    case("appendix line changed", "appendix", changed)
    case("appendix not run", "appendix", None, len(appendix["lines"]))
    return good, cases


def check_verdicts():
    ref_suites = load_reference()["suites"]
    good, cases = doctored(ref_suites)
    ok = True
    for key, result in good.items():
        bad = [c for c, why in judge_suite(ref_suites[key], result) if why]
        if bad:
            ok = False
            print(f"FAIL passing {key!r} judged failed: {bad}")
    for text, key, result, expected in cases:
        failed = sum(1 for _, why in judge_suite(ref_suites[key], result)
                     if why)
        verdict = "ok  " if failed == expected else "FAIL"
        ok &= failed == expected
        print(f"{verdict} {text}: {failed} failed, expected {expected}")
    return ok


def counters(layers):
    return {k: layers[k] for k in PER_LAYER_METRICS if not k.endswith("_s")}


def check_determinism(root, workload, seed, other_seed, seconds, bound):
    spec = {"suites": [suite_argv(s, seed) for s in WORKLOADS[workload]]}
    os.makedirs(os.path.join(root, TRACE_DIR), exist_ok=True)
    seen = []
    for i in range(2):
        spec["trace"] = {"run_id": f"{workload}/selftest/{i}", "out":
                         os.path.join(root, TRACE_DIR,
                                      f"{workload}-selftest-{i}.spans")}
        _, result, error = run_worker(root, spec, 170.0)
        if result is None:
            print(f"FAIL {workload}: traced pass failed: {error}")
            return False
        seen.append(counters(result["layers"]))
    ok = seen[0] == seen[1]
    print(f"{'ok  ' if ok else 'FAIL'} {workload}: two traced passes with "
          f"seed {seed} give {'identical' if ok else 'different'} counters")
    if not ok:
        for k in seen[0]:
            if seen[0][k] != seen[1][k]:
                print(f"     {k}: {seen[0][k]} vs {seen[1][k]}")
    walls = {}
    for s in (seed, other_seed):
        run = Run(root, workload, s, seconds, trace=False)
        run.measure()
        if run.failed:
            print(f"FAIL {workload} seed {s}: {run.failed} checks failed")
            return False
        walls[s] = run.metrics()["wall_rel"][0]
    ratio = walls[other_seed] / walls[seed]
    within = abs(ratio - 1) <= bound
    print(f"{'ok  ' if within else 'FAIL'} {workload}: wall_rel "
          f"{walls[seed]:.3f} (seed {seed}) vs {walls[other_seed]:.3f} "
          f"(seed {other_seed}), ratio {ratio:.3f}, bound {bound}")
    return ok and within


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--determinism", default="",
                        help="comma list of workloads, or 'all'")
    args = parser.parse_args()
    ok = check_verdicts()
    if args.determinism:
        with open("BENCHMARK.json") as fh:
            bench = json.load(fh)
        bound = next(m["bound"] for m in bench["end_to_end"]
                     if m["name"] == "wall_rel")
        names = (list(WORKLOADS) if args.determinism == "all"
                 else args.determinism.split(","))
        for workload in names:
            ok &= check_determinism(os.getcwd(), workload, SEED, OTHER_SEED,
                                    bench["run_seconds"], bound)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
