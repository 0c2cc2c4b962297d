"""Command-line driver: runs the verification suites and emits
deterministic check reports (human table or JSON Lines)."""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import classical, rmatrix, sp4_relations, spectral
from .domains import QQ
from .ideal import MAX_PRIME_COUNT, MIN_PRIME_COUNT, QuadraticIdeal
from .qma import AlgebraContext
from .rmatrix import build_standard_sp, flip_context

# qma verify targets; recursions run by default only at k = 1
QMA_TARGETS = ("ch", "parent", "cutting", "recursions")
RMATRIX_CHECKS = ("ybe", "cubic", "bmw", "height")


def default_verify(k):
    return QMA_TARGETS if k == 1 else QMA_TARGETS[:3]


class CheckReport:
    """One verification outcome; "pass" only for exact-zero residuals."""

    __slots__ = ("name", "parameters", "status", "residual", "witness",
                 "bound", "elapsed")

    def __init__(self, name, parameters, status, residual=None,
                 witness=None, bound=None, elapsed=0.0):
        self.name = name
        self.parameters = parameters
        self.status = status
        self.residual = residual
        self.witness = witness
        self.bound = bound
        self.elapsed = elapsed

    @property
    def ok(self):
        return self.status in ("pass", "probable-pass")

    def to_dict(self):
        out = {"check": self.name, "parameters": self.parameters,
               "status": self.status, "elapsed": round(self.elapsed, 3)}
        if self.residual is not None:
            out["residual"] = self.residual
        if self.witness is not None:
            out["witness"] = self.witness
        if self.bound is not None:
            out["failure_bound"] = self.bound
        return out

    def json_line(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    def table_row(self):
        tag = ",".join(f"{key}={self.parameters[key]}"
                       for key in sorted(self.parameters))
        bits = [f"{self.name + '[' + tag + ']':<58}", f"{self.status:<14}"]
        if self.residual is not None:
            bits.append(f"residual={self.residual}")
        if self.bound is not None:
            bits.append(f"bound={self.bound:.3g}")
        bits.append(f"{self.elapsed:.3f}s")
        return "  ".join(bits)


def _timed(name, parameters, fn):
    t0 = time.perf_counter()
    status, residual, witness, bound = fn()
    return CheckReport(name, parameters, status, residual=residual,
                       witness=witness, bound=bound,
                       elapsed=time.perf_counter() - t0)


def _from_certificate(name, parameters, cert_fn):
    def run():
        cert = cert_fn()
        if cert.ok:
            return "pass", "0", None, None
        residual = "; ".join(f"{label}: {detail}" if detail else label
                             for label, detail in cert.failures())
        return "fail", residual, None, None
    return _timed(name, parameters, run)


# -- subcommand suites -------------------------------------------------------

def run_rmatrix(k, checks, seed=0):
    ctx = build_standard_sp(k)
    reports = []
    params = {"k": k}
    if "ybe" in checks:
        reports.append(_from_certificate(
            "rmatrix.ybe", params, lambda: rmatrix.check_ybe(ctx.r)))
    if "cubic" in checks:
        reports.append(_from_certificate(
            "rmatrix.cubic", params, lambda: rmatrix.check_cubic(ctx)))
    if "bmw" in checks:
        reports.append(_from_certificate(
            "rmatrix.bmw", params, lambda: rmatrix.check_bmw(ctx)))
    if "height" in checks:
        def run():
            try:
                got, tag, bound = rmatrix.height(ctx, seed=seed)
            except rmatrix.GuardError as exc:
                return "fail", str(exc), None, None
            detail = f"height={got} ({tag})"
            if got != k:
                return "fail", detail, None, None
            if bound is None:
                return "pass", "0", detail, None
            return "probable-pass", "0", detail, bound
        reports.append(_timed(
            "rmatrix.height",
            {"k": k, "seed": seed, "primes": MIN_PRIME_COUNT}, run))
    return reports


def _algebra(k, pair):
    r = build_standard_sp(k)
    f = r if pair == "re" else flip_context(QQ, 2 * k)
    return AlgebraContext(r, f, label=f"sp{2 * k}-{pair}")


def _identity_check(ideal, ctx, build, degree, seed, primes, suffix=""):
    """The report of a matrix identity check (qma.parent, qma.ch,
    qma.recursions): build(ctx) yields the identity's entries, of maximal
    degree `degree`; suffix follows the witness size of an exact pass."""
    def run():
        cert = ideal.identity_membership(ctx, build, degree, seed=seed,
                                         min_points=primes)
        if cert is None:
            return "pass", "0 (free algebra)", None, None
        if not cert.is_member:
            return "fail", cert.detail or cert.status, None, cert.bound
        if cert.kind == "exact":
            return ("pass", "0",
                    f"witness:{len(cert.witness or [])}{suffix}", None)
        return ("probable-pass", "0", f"points:{len(cert.points)}",
                cert.bound)
    return run


def run_qma(k, pair, verify, primes, seed):
    ctx = _algebra(k, pair)
    ideal = QuadraticIdeal(QQ, 2 * k, ctx.defining_relations(),
                           label=ctx.label)
    params = {"k": k, "pair": pair, "primes": primes, "seed": seed}
    reports = []
    if "parent" in verify:
        reports.append(_timed("qma.parent", params, _identity_check(
            ideal, ctx, lambda c: c.parent_entries(k), k, seed, primes)))
    if "ch" in verify:
        reports.append(_timed("qma.ch", params, _identity_check(
            ideal, ctx, lambda c: c.ch_entries(k), 2 * k, seed, primes,
            suffix=" terms")))
    if "cutting" in verify:
        def run_cutting():
            # the cutting identities hold because a^(k+1) = 0; the exact
            # scan returns the first i <= k with a^(i+1) = 0, or None
            if rmatrix._height_scan(ctx.r_ctx, k) is None:
                return "fail", "a^(k+1) nonzero", None, None
            return "pass", "0", None, None
        reports.append(_timed("qma.cutting", params, run_cutting))
    if "recursions" in verify:
        # 5: the largest residual degree (`recursion_entries`)
        reports.append(_timed("qma.recursions", params, _identity_check(
            ideal, ctx, lambda c: c.recursion_entries(), 5, seed, primes)))
    return reports


RANK_ORACLE = {
    (1, "rtt", 2): {"rank": 6, "blocks": 5, "spanning": 12},
    (1, "rtt", 3): {"rank": 44, "blocks": 12, "spanning": 96},
    (1, "re", 2): {"rank": 6, "blocks": 1, "spanning": 12},
    (1, "re", 3): {"rank": 44, "blocks": 1, "spanning": 96},
    (2, "rtt", 2): {"rank": 130, "blocks": 65, "spanning": 240},
    (2, "rtt", 3): {"rank": 3424, "blocks": 165, "spanning": 7680},
    (2, "re", 2): {"rank": 130, "blocks": 1, "spanning": 240},
}


def run_ideal(k, pair, degree):
    ctx = _algebra(k, pair)
    ideal = QuadraticIdeal(QQ, 2 * k, ctx.defining_relations(),
                           label=ctx.label)
    params = {"k": k, "pair": pair, "degree": degree}

    def run():
        stats = ideal.rank_of_degree(degree)
        expected = RANK_ORACLE.get((k, pair, degree))
        detail = json.dumps(stats, sort_keys=True)
        if expected is not None:
            got = {key: stats[key] for key in expected}
            if got != expected:
                return "fail", f"{detail} != {expected}", None, None
        return "pass", "0", detail, None
    return [_timed("ideal.rank", params, run)]


def _sampled_verdict(r):
    """(status, residual, witness, bound) of a passed spectral result: a
    sampled one is a probable pass with the bound it carries."""
    if "bound" not in r:
        return "pass", "0", None, None
    return "probable-pass", "0", f"points:{r['points']}", r["bound"]


def run_spectral(k, max_n, seed=0):
    params = {"k": k, "max_n": max_n, "seed": seed}
    reports = []

    def run_eps():
        for i in range(2 * k + 1):
            if not (spectral.pi_hom(k, "eps", i) - spectral.elementary(k, i)
                    ).is_zero():
                return "fail", f"eps_{i} image differs", None, None
        for i in range(0, 2 * k + 3):
            if not spectral.sym_identities(k, i):
                return "fail", f"symmetric identity i={i}", None, None
        return "pass", "0", None, None
    reports.append(_timed("spectral.images", params, run_eps))

    def run_factor():
        r = spectral.factor_check(k)
        if not r["ok"]:
            return "fail", f"coefficient i={r['i']}", None, None
        return "pass", "0", None, None
    reports.append(_timed("spectral.factor", params, run_factor))

    poly_data = None

    def run_newton():
        nonlocal poly_data
        # built once for the largest degree; each check reads its prefix
        data = spectral.chart_data(k, max(max_n, k), seed=seed)
        if k <= 2:
            # kept only where polynomiality, below, reads it too
            poly_data = data
        r = spectral.newton_check(k, max_n, data)
        if not r["ok"]:
            return ("fail", f"{r['relation']} n={r['n']}: {r['residual']}",
                    None, None)
        r2 = spectral.wronski_modified(k, max_n, data)
        if not r2["ok"]:
            return ("fail", f"{r2['relation']} n={r2['n']}", None, None)
        r3 = spectral.newton_closure(k, data)
        if not r3["ok"]:
            return "fail", f"closure n={r3['n']}", None, None
        # union bound of the two sampled relations; closure re-checks
        # newton's on a prefix of its charts
        return ("probable-pass", "0",
                f"points:{r['points']}+{r2['points']}+{r3['points']}",
                r["bound"] + r2["bound"])
    reports.append(_timed("spectral.newton", params, run_newton))

    def run_param():
        r = spectral.parameterization_checks(k, seed=seed)
        if not r["ok"]:
            bad = [key for key, v in r.items() if v is False]
            return "fail", f"failed: {','.join(bad)}", None, None
        return _sampled_verdict(r)
    reports.append(_timed("spectral.param", params, run_param))

    if k <= 2:
        def run_poly():
            r = spectral.polynomiality_check(k, max_n, poly_data)
            if not r["ok"]:
                return "fail", f"n={r['n']}", None, None
            return _sampled_verdict(r)
        reports.append(_timed("spectral.polynomiality", params, run_poly))
    return reports


def run_classical(k, samples, g, seed):
    params = {"k": k, "samples": samples, "seed": seed}
    if g is not None:
        params["g"] = str(g)

    def run():
        g_values = [Fraction(g)] if g is not None else None
        r = classical.check_samples(k, samples, seed, g_values=g_values)
        if r["ok"]:
            return "pass", "0", None, None
        return "fail", json.dumps(r.get("failed_at"), sort_keys=True), \
            None, None
    return [_timed("classical.battery", params, run)]


def run_all(k, seed):
    reports = []
    reports += run_rmatrix(k, RMATRIX_CHECKS, seed=seed)
    reports += run_qma(k, "rtt", default_verify(k), MIN_PRIME_COUNT, seed)
    reports += run_qma(k, "re", ("ch", "parent"), MIN_PRIME_COUNT, seed)
    reports += run_ideal(k, "rtt", 2)
    reports += run_spectral(k, 4, seed=seed)
    reports += run_classical(k, 20, None, seed)
    return reports


# -- argument parsing and dispatch --------------------------------------------

def build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="qch",
        description="Exact verification suites for symplectic quantum "
                    "matrix algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rmatrix", help="R-matrix relations and height")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--checks", default=",".join(RMATRIX_CHECKS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("qma", help="quantum matrix algebra identities")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--pair", choices=("rtt", "re"), default="rtt")
    p.add_argument("--verify", default=None,
                   help=f"comma list from {','.join(QMA_TARGETS)}")
    p.add_argument("--primes", type=int, default=MIN_PRIME_COUNT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ideal", help="relation-span statistics")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--pair", choices=("rtt", "re"), default="rtt")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("spectral", help="spectral parameterization suite")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classical", help="classical-limit sample battery")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--g", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("appendix", help="dump the catalogued relation set")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("all", help="run every suite for one k")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    return parser, sub.choices


def _validate(args, parser):
    if getattr(args, "k", 1) < 1:
        parser.error("--k must be >= 1")
    if getattr(args, "samples", 1) < 1:
        parser.error("--samples must be >= 1")
    if getattr(args, "degree", 2) < 2:
        parser.error("--degree must be >= 2")
    if getattr(args, "max_n", 2) < 2:
        parser.error("--max-n must be >= 2")
    primes = getattr(args, "primes", MIN_PRIME_COUNT)
    if not MIN_PRIME_COUNT <= primes <= MAX_PRIME_COUNT:
        parser.error(f"--primes must be >= {MIN_PRIME_COUNT} and "
                     f"<= {MAX_PRIME_COUNT}")
    if getattr(args, "g", None) is not None:
        try:
            Fraction(args.g)
        except (ValueError, ZeroDivisionError):
            parser.error(f"--g must be a rational, got {args.g!r}")


def _names(parser, text, known, what):
    """The comma list text as a tuple; exits 2 naming, with repr, each
    name not in known, and listing the known ones."""
    names = tuple(text.split(","))
    bad = [name for name in names if name not in known]
    if bad:
        parser.error(f"unknown {what}: {', '.join(map(repr, bad))} "
                     f"(known: {','.join(known)})")
    return names


def main(argv=None):
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    # errors found after parsing print the subcommand's usage line
    parser = commands[args.command]
    _validate(args, parser)

    if args.command == "appendix":
        for label, poly in sp4_relations.all_relations(QQ):
            text = poly.to_text(name="M")
            print(json.dumps({"label": label, "poly": text}, sort_keys=True)
                  if args.json else f"{label}: {text}")
        return 0

    if args.command == "rmatrix":
        checks = _names(parser, args.checks, RMATRIX_CHECKS, "checks")
        reports = run_rmatrix(args.k, checks, seed=args.seed)
    elif args.command == "qma":
        if args.verify is None:
            verify = default_verify(args.k)
        else:
            verify = _names(parser, args.verify, QMA_TARGETS,
                            "verify targets")
        reports = run_qma(args.k, args.pair, verify, args.primes, args.seed)
    elif args.command == "ideal":
        reports = run_ideal(args.k, args.pair, args.degree)
    elif args.command == "spectral":
        reports = run_spectral(args.k, args.max_n, seed=args.seed)
    elif args.command == "classical":
        reports = run_classical(args.k, args.samples, args.g, args.seed)
    else:
        reports = run_all(args.k, args.seed)

    reports.sort(key=lambda r: (r.name, json.dumps(r.parameters,
                                                   sort_keys=True)))
    if args.json:
        for rep in reports:
            print(rep.json_line())
    else:
        for rep in reports:
            print(rep.table_row())
        passed = sum(1 for r in reports if r.ok)
        print(f"{passed}/{len(reports)} checks passed")

    if all(r.ok for r in reports):
        return 0
    for rep in reports:
        if not rep.ok:
            print(json.dumps(rep.to_dict(), sort_keys=True), file=sys.stderr)
    return 1


def console_entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `qch appendix | head`); park
        # stdout on devnull so the shutdown flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
