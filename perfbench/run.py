"""The qch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `qch` is imported from its `src/`.  The
workload's suites (see workloads.py) run in fresh interpreters, and every
verdict of src/qch is checked against the reference (see verdicts.py).
Rounds repeat while another one fits in S seconds; there is always at
least one.

The host this was tuned on slows memory-heavy Python by up to 1.7x, in
bursts of seconds and in spells of minutes, whatever runs.  Two things
take that out of the figures:

* With --trace 0 a round runs each suite twice at the same time, each in a
  process of its own on one of two processors: once from `src/qch` and
  once from `perfbench/ref/qch`, a frozen copy of qch as it was when the
  benchmark was added.  Which copy gets which processor alternates.  Both
  see the same spell and the same bursts, so their ratio does not move
  with them.  Nothing else runs meanwhile.
* A time is the best of the run's rounds, suite by suite: for each suite
  the fastest of its runs, summed over the suites.  A suite that was fast
  in any round counts as fast, which a median does not give.

With --trace 0 the last line of stdout reports:
  wall_rel     best wall time of src/qch over that of the frozen copy
               (about 1.0 while the two are the same code; lower is faster)
  cpu_rel      the same for user+sys CPU time
  setup_s      process launch until `qch.cli` of src/ is imported: the
               median over set-up-only launches, run alone, five before
               the first round and three after each round
  peak_rss_mb  ru_maxrss of the src/qch process of a suite, median over
               the suite's runs, largest over the suites
With --trace 1, untraced and traced passes of src/qch alternate, one
process at a time, each running all suites, and the last line reports the
per-layer metrics of tracer.py from the traced passes (times are the best
over passes, counters must repeat exactly) plus trace.overhead_s, the
traced minus the untraced best wall time, and src.lines, the line count
of src/qch.  `attempted`/`failed` count the checks of src/qch.
"""
from __future__ import annotations

import argparse
import glob
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import PER_LAYER_METRICS  # noqa: E402
from verdicts import judge_suite, load_reference  # noqa: E402
from workloads import WORKLOADS, suite_argv, suite_key  # noqa: E402

REF_SRC = os.path.join(HERE, "ref")   # holds the frozen copy, ref/qch
SETUP_LAUNCHES = 5      # set-up-only launches before the first round
SETUP_PER_ROUND = 3     # and after each round
HARD_LIMIT_S = 165.0    # the whole run stays below 180 s
TRACE_DIR = ".perfbench"


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    """The caller's environment without variables that steer qch or
    Python's import path, and with a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("QCH_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(root, spec, src=None, cpu=None):
    """Launch one worker that imports qch from `src` (default: the
    checkout's src/), on processor `cpu` if given."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           src or os.path.join(root, "src"), json.dumps(spec)]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=root, preexec_fn=pin)


def finish_worker(proc, timeout):
    """Wait for a worker; returns (result dict or None, error).  A worker
    that runs past `timeout` seconds is killed."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = (err.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    return json.loads(out.splitlines()[-1]), None


def run_worker(root, spec, timeout, src=None):
    """Run one worker; returns (launch time, result dict or None, error)."""
    t_launch = clock()
    proc = start_worker(root, spec, src)
    return (t_launch,) + finish_worker(proc, timeout)


def best(samples, key):
    """Sum over suites of the suite's smallest `key` over its runs;
    `samples[i]` holds the records of suite i."""
    return sum(min(r[key] for r in runs) for runs in samples)


def src_lines(root):
    total = 0
    for path in glob.glob(os.path.join(root, "src", "qch", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


class Run:
    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.suites = WORKLOADS[workload]
        self.reference = load_reference()["suites"]
        self.t_start = clock()
        self.setups = []
        # suite records by suite: untraced and traced src/qch, frozen copy
        self.plain = [[] for _ in self.suites]
        self.traced = [[] for _ in self.suites]
        self.ref = [[] for _ in self.suites]
        self.layers = []     # tracer metrics of each traced pass
        self.passes = 0      # processes that ran src/qch suites
        self.attempted = 0
        self.failed = 0
        self.problems = []   # failed checks and anything else that went wrong

    def remaining(self):
        return HARD_LIMIT_S - (clock() - self.t_start)

    def spec(self, suites):
        return {"suites": [suite_argv(s, self.seed) for s in suites],
                "trace": None}

    def setup_sample(self):
        t_launch, result, error = run_worker(
            self.root, {"setup_only": True}, max(1.0, self.remaining()))
        if result is None:
            raise SystemExit(f"perfbench: qch does not start: {error}")
        self.setups.append(result["t_ready"] - t_launch)

    def src_run(self, suites, trace=None):
        """Run `suites` of src/qch in one process and judge the verdicts;
        returns the worker's result, or None if it did not finish."""
        index = self.passes
        spec = self.spec(suites)
        if trace:
            os.makedirs(os.path.join(self.root, TRACE_DIR), exist_ok=True)
            spec["trace"] = {
                "run_id": f"{self.workload}/seed{self.seed}/pass{index}",
                "out": os.path.join(self.root, TRACE_DIR,
                                    f"{self.workload}-pass{index}.spans")}
        t_launch, result, error = run_worker(self.root, spec,
                                             max(1.0, self.remaining()))
        if result is not None:
            self.setups.append(result["t_ready"] - t_launch)
        return self.judged(suites, result, error)

    def judged(self, suites, result, error):
        """Count the verdicts of one src/qch process; returns `result`."""
        index = self.passes
        self.passes += 1
        results = result["suites"] if result else [None] * len(suites)
        for suite, got in zip(suites, results):
            for check, why in judge_suite(self.reference[suite_key(suite)],
                                          got):
                self.attempted += 1
                if why is not None:
                    self.failed += 1
                    self.problems.append(
                        f"pass {index}: {suite_key(suite)}: {check}: {why}")
        if result is None:
            self.problems.append(f"pass {index}: {error}")
        return result

    def traced_round(self):
        """An untraced and a traced pass, each running every suite."""
        for trace, into in ((False, self.plain), (True, self.traced)):
            result = self.src_run(self.suites, trace)
            if result is not None:
                for runs, got in zip(into, result["suites"]):
                    runs.append(got)
                if trace:
                    self.layers.append(result["layers"])

    def paired(self, i):
        """Suite i from both copies at once, one on each of two processors,
        which copy gets which alternating from pair to pair (see the module
        docstring).  The frozen copy's verdicts are not counted, but it
        must run without error, or the ratio means nothing."""
        suite = self.suites[i]
        cpus = sorted(os.sched_getaffinity(0))[:2]
        if len(cpus) < 2:
            cpus = [None, None]
        if (len(self.plain[i]) + i) % 2 == 1:
            cpus.reverse()
        procs = [start_worker(self.root, self.spec([suite]), None, cpus[0]),
                 start_worker(self.root, self.spec([suite]), REF_SRC,
                              cpus[1])]
        try:
            (result, error), (ref, ref_error) = [
                finish_worker(p, max(1.0, self.remaining())) for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        if ref is not None and ref["suites"][0]["error"]:
            ref_error = ref["suites"][0]["error"].splitlines()[-1]
        if ref_error is not None:
            raise SystemExit(f"perfbench: the frozen copy failed: {ref_error}")
        self.ref[i].append(ref["suites"][0])
        if self.judged([suite], result, error) is not None:
            self.plain[i].append(dict(result["suites"][0],
                                      peak_rss_mb=result["peak_rss_mb"]))

    def measure(self):
        # first launches write bytecode caches; they are not timed
        run_worker(self.root, {"setup_only": True}, 60.0)
        if not self.trace:
            run_worker(self.root, {"setup_only": True}, 60.0, REF_SRC)
        for _ in range(SETUP_LAUNCHES):
            self.setup_sample()
        if self.trace:
            steps = [self.traced_round]
        else:
            steps = [lambda i=i: self.paired(i)
                     for i in range(len(self.suites))]
        took = [[] for _ in steps]
        # cycle through the steps, the first cycle whole, then while the
        # next step is likely to fit (its median time) and surely ends
        # before the hard limit (the longest time of any step)
        for n in itertools.count():
            k = n % len(steps)
            elapsed = clock() - self.t_start
            if n >= len(steps) and (
                    elapsed + statistics.median(took[k]) > self.seconds
                    or elapsed + max(max(t) for t in took) > HARD_LIMIT_S):
                break
            t0 = clock()
            steps[k]()
            if k == len(steps) - 1:
                for _ in range(SETUP_PER_ROUND):
                    self.setup_sample()
            took[k].append(clock() - t0)

    def metrics(self):
        if not all(self.plain) or (self.trace and not self.layers):
            return None
        wall = best(self.plain, "wall_s")
        if not self.trace:
            return {
                "wall_rel": (wall / best(self.ref, "wall_s"), "x"),
                "cpu_rel": (best(self.plain, "cpu_s")
                            / best(self.ref, "cpu_s"), "x"),
                "setup_s": (statistics.median(self.setups), "s"),
                "peak_rss_mb": (max(
                    statistics.median(r["peak_rss_mb"] for r in runs)
                    for runs in self.plain), "MB"),
            }
        out = {}
        for name in PER_LAYER_METRICS:
            values = [layers[name] for layers in self.layers]
            if name.endswith("_s"):
                out[name] = (min(values), "s")
            else:
                if len(set(values)) != 1:
                    self.problems.append(f"counter {name} varies: {values}")
                out[name] = (values[0], "count")
        out["trace.overhead_s"] = (best(self.traced, "wall_s") - wall, "s")
        out["src.lines"] = (src_lines(self.root), "count")
        return out

    def summary(self):
        lines = [f"workload {self.workload} seed {self.seed}: "
                 f"{self.passes} src/qch processes, "
                 f"{len(self.setups)} set-up samples, "
                 f"src/qch {src_lines(self.root)} lines"]
        for label, samples in (("src", self.plain), ("traced", self.traced),
                               ("frozen", self.ref)):
            if all(samples):
                lines.append(f"  best, {label}: wall_s "
                             f"{best(samples, 'wall_s'):.4f} cpu_s "
                             f"{best(samples, 'cpu_s'):.4f}")
            for suite, runs in zip(self.suites, samples):
                values = sorted(r["wall_s"] for r in runs)
                if values:
                    lines.append(f"    {suite_key(suite)}: min "
                                 f"{values[0]:.4f} median "
                                 f"{statistics.median(values):.4f} s "
                                 f"n={len(values)}")
        if self.setups:
            lines.append(f"  setup_s: median "
                         f"{statistics.median(self.setups):.4f}"
                         f" n={len(self.setups)}")
        lines.append(f"  checks: {self.attempted} attempted, "
                     f"{self.failed} failed")
        lines += [f"  PROBLEM {why}" for why in self.problems[:20]]
        return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qch", "cli.py")):
        print("perfbench: run from the root of a qch checkout "
              "(src/qch/cli.py not found)", file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    run.measure()
    metrics = run.metrics()
    print(run.summary())
    if metrics is None:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.problems, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
