"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--out FILE]

Run from the root of a checkout.  Uses the command, run length and bounds
of BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), took


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            result, took = run_once(bench, workload, seed)
            ok &= result["correct"]
            runs.append((seed, result, took))
            print(f"{workload} seed {seed}: {took:.1f} s, correct "
                  f"{result['correct']}, failed {result['failed']}/"
                  f"{result['attempted']}", file=sys.stderr, flush=True)
        entry = {"seeds": [s for s, _, _ in runs],
                 "run_s": [round(t, 1) for _, _, t in runs],
                 "correct": all(r["correct"] for _, r, _ in runs),
                 "metrics": {}}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for _, r, _ in runs]
            if len(values) < 2:
                entry["metrics"][metric["name"]] = {"values": values}
                continue
            stats = spread(values)
            stats["bound"] = metric["bound"]
            entry["metrics"][metric["name"]] = stats
            print(f"{workload:14} {metric['name']:12} median "
                  f"{stats['median']:10.4f}  q1 {stats['q1']:10.4f}  q3 "
                  f"{stats['q3']:10.4f}  spread {stats['spread']:.3f}  "
                  f"bound {stats['bound']:.2f}")
        report[workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
