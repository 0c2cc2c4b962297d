"""Command-line driver: report format, determinism, exit codes."""
from __future__ import annotations

import json

import pytest

from qch import classical, cli, ideal, qma, rmatrix
from qch.domains import SpanDomain
from qch.ideal import FAILURE_TARGET, QuadraticIdeal
from qch.scalar import Q, InadmissiblePointError, JointPoint, sample_points


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    reports = [json.loads(line) for line in out.out.splitlines() if line]
    return code, reports, out.err


def test_rmatrix_reports(capsys):
    code, reports, _ = run_json(capsys, ["rmatrix", "--k", "1", "--json"])
    assert code == 0
    assert [r["check"] for r in reports] == [
        "rmatrix.bmw", "rmatrix.cubic", "rmatrix.height", "rmatrix.ybe"]
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["residual"] == "0" for r in reports)


def test_reports_sorted_by_name(capsys):
    code, reports, _ = run_json(capsys, ["all", "--k", "1", "--seed", "7",
                                         "--json"])
    assert code == 0
    names = [r["check"] for r in reports]
    assert names == sorted(names)


def test_all_k1_deterministic(capsys):
    def snapshot():
        code, reports, _ = run_json(capsys, ["all", "--k", "1", "--seed",
                                             "7", "--json"])
        assert code == 0
        for r in reports:
            r.pop("elapsed", None)
        return reports
    assert snapshot() == snapshot()


def test_status_semantics(capsys):
    _, reports, _ = run_json(capsys, ["all", "--k", "1", "--seed", "7",
                                      "--json"])
    for r in reports:
        assert r["status"] in ("pass", "probable-pass")
        if r["status"] == "probable-pass":
            assert r["failure_bound"] < 1e-12
        else:
            assert "failure_bound" not in r
            assert r["residual"].startswith("0")


def test_qma_pair_and_verify_flags(capsys):
    code, reports, _ = run_json(capsys, [
        "qma", "--k", "1", "--pair", "re", "--verify", "parent,ch",
        "--json"])
    assert code == 0
    assert {r["check"] for r in reports} == {"qma.parent", "qma.ch"}
    assert all(r["parameters"]["pair"] == "re" for r in reports)
    parent = next(r for r in reports if r["check"] == "qma.parent")
    assert parent["residual"] == "0 (free algebra)"


def test_ideal_stats_oracle(capsys):
    code, reports, _ = run_json(capsys, ["ideal", "--k", "1", "--degree",
                                         "2", "--json"])
    assert code == 0
    stats = json.loads(reports[0]["witness"])
    assert stats == {"degree": 2, "rank": 6, "blocks": 5, "spanning": 12}


@pytest.mark.parametrize("k,pair,degree", [(1, "re", 3), (2, "re", 2)])
def test_ideal_rank_oracle_entries(capsys, k, pair, degree):
    # the RE ideals are one block per degree; (2, rtt, 3), which takes
    # seconds, runs in CI
    code, reports, _ = run_json(capsys, [
        "ideal", "--k", str(k), "--pair", pair, "--degree", str(degree),
        "--json"])
    assert code == 0 and reports[0]["status"] == "pass"
    stats = json.loads(reports[0]["witness"])
    assert {key: stats[key] for key in cli.RANK_ORACLE[k, pair, degree]} \
        == cli.RANK_ORACLE[k, pair, degree]


def test_classical_flags(capsys):
    code, reports, _ = run_json(capsys, [
        "classical", "--k", "1", "--samples", "5", "--g=-7/3",
        "--seed", "2", "--json"])
    assert code == 0
    assert reports[0]["parameters"]["g"] == "-7/3"
    assert reports[0]["status"] == "pass"


def test_appendix_dump(capsys):
    code = cli.main(["appendix"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 130
    assert out[0] == "A:row1: (-1) * M[1,1] M[1,2] + (q) * M[1,2] M[1,1]"
    assert sum(1 for line in out if line.startswith("inv:")) == 10


def test_appendix_json(capsys):
    code, reports, _ = run_json(capsys, ["appendix", "--json"])
    assert code == 0
    assert len(reports) == 130
    assert {"label", "poly"} <= set(reports[0])


def test_invalid_flags_exit_2():
    for argv in (["nosuchcommand"],
                 ["rmatrix", "--checks", "ybe,bogus"],
                 ["qma", "--verify", "bogus"],
                 ["qma", "--pair", "xx"],
                 ["classical", "--g", "1//2"],
                 ["rmatrix", "--k", "0"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2


def test_failure_exit_1_with_json_detail(capsys, monkeypatch):
    def fake(k, checks, seed=0):
        return [cli.CheckReport("rmatrix.fake", {"k": k}, "fail",
                                residual="1 != 0")]
    monkeypatch.setattr(cli, "run_rmatrix", fake)
    code = cli.main(["rmatrix", "--k", "1", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    detail = json.loads(captured.err.strip())
    assert detail["status"] == "fail" and detail["check"] == "rmatrix.fake"


def test_failing_certificate_reports_fail(capsys, monkeypatch):
    def failing(r_op, name="ybe"):
        cert = rmatrix.Certificate(name)
        cert.record("braid relation", False, "3 nonzero entries")
        cert.record("bare label", False)
        return cert
    monkeypatch.setattr(rmatrix, "check_ybe", failing)
    code, reports, err = run_json(capsys, ["rmatrix", "--k", "1", "--checks",
                                           "ybe", "--json"])
    assert code == 1
    assert reports[0]["status"] == "fail"
    assert reports[0]["residual"] == \
        "braid relation: 3 nonzero entries; bare label"
    detail = json.loads(err.strip())
    assert detail["check"] == "rmatrix.ybe" and detail["status"] == "fail"


def test_height_guard_error_reports_fail(capsys, monkeypatch):
    def disagree(ctx, seed=0, min_points=3):
        raise rmatrix.GuardError("modular height scans disagree: [1, 2, 1]")
    monkeypatch.setattr(rmatrix, "height", disagree)
    code, reports, err = run_json(capsys, ["rmatrix", "--k", "1", "--checks",
                                           "height", "--json"])
    assert code == 1
    assert reports[0]["status"] == "fail"
    assert reports[0]["residual"] == \
        "modular height scans disagree: [1, 2, 1]"
    detail = json.loads(err.strip())
    assert detail["check"] == "rmatrix.height" and detail["status"] == "fail"


def test_mixed_height_scans_report_fail(capsys, monkeypatch):
    # scans that decline the joint point and disagree at the prime points:
    # GuardError, and a fail report
    ctx = rmatrix.build_standard_sp(3)
    scans = iter([3, 3, 2])

    def scan(ctx_pt, bound):
        if isinstance(ctx_pt.dom.point, JointPoint):
            raise InadmissiblePointError("declined")
        return next(scans)
    monkeypatch.setattr(rmatrix, "_height_scan", scan)
    with pytest.raises(rmatrix.GuardError, match=r"\[3, 3, 2\]"):
        rmatrix.height(ctx)
    scans = iter([3, 2])
    code, reports, _ = run_json(capsys, ["rmatrix", "--k", "3", "--checks",
                                         "height", "--json"])
    assert code == 1
    assert reports[0]["status"] == "fail"
    assert reports[0]["residual"] == \
        "height undecided: mixed modular verdicts: [3, 2]"


def test_planted_tower_normalization_fails(capsys, monkeypatch):
    """sigma_i plus q K, a wrong tower normalization: the height scan and
    the cutting check, which read the one tower recursion, both fail."""
    sigma = rmatrix._sigma
    monkeypatch.setattr(
        rmatrix, "_sigma", lambda c, i, sign=-1: sigma(c, i, sign)
        + c.k_op.scale(c.coeff(Q)))
    for argv, residual in (
            (["rmatrix", "--k", "2", "--checks", "height"],
             "tower denominator mu - q^1 x vanishes at level 3"),
            (["qma", "--k", "1", "--verify", "cutting"],
             "boundary descendant nonzero")):
        code, reports, _ = run_json(capsys, argv + ["--json"])
        assert code == 1
        assert [(r["status"], r["residual"]) for r in reports] == \
            [("fail", residual)]


def _planted_fails(capsys, argv, checks):
    """argv reports `fail` on exactly these checks and exits 1; returns
    the reports."""
    code, reports, _ = run_json(capsys, argv + ["--json"])
    assert code == 1
    assert sorted(r["check"] for r in reports) == sorted(checks)
    assert all(r["status"] == "fail" for r in reports), reports
    return reports


@pytest.mark.parametrize("k", [1, 2])
def test_planted_r_entry_fails_ybe_cubic_bmw(capsys, monkeypatch, k):
    """One entry of R times q: the braid relation, the cubic and the BMW
    relations all fail."""
    build = rmatrix.build_standard_sp

    def planted(k):
        ctx = build(k)
        data = dict(ctx.r.data)
        key = min(data)
        data[key] = data[key] * Q
        r_op = rmatrix.TensorOperator(ctx.dom, ctx.dim, 2, data)
        return rmatrix.RMatrixContext(r_op, ctx.mu_scalar, label=ctx.label)
    monkeypatch.setattr(rmatrix, "build_standard_sp", planted)
    monkeypatch.setattr(cli, "build_standard_sp", planted)
    _planted_fails(capsys, ["rmatrix", "--k", str(k), "--checks",
                            "ybe,cubic,bmw"],
                   ["rmatrix.bmw", "rmatrix.cubic", "rmatrix.ybe"])


@pytest.mark.parametrize("pair", ["rtt", "re"])
def test_planted_epsilon_fails_parent_and_ch(capsys, monkeypatch, pair):
    """eps_1 times q: both identities that read the eps_i fail."""
    epsilon_elements = qma.AlgebraContext.epsilon_elements

    def planted(self, k):
        eps = list(epsilon_elements(self, k))
        eps[1] = eps[1].scale(self.dom.from_scalar(Q))
        return eps
    monkeypatch.setattr(qma.AlgebraContext, "epsilon_elements", planted)
    _planted_fails(capsys, ["qma", "--k", "1", "--pair", pair, "--verify",
                            "parent,ch"], ["qma.ch", "qma.parent"])


@pytest.mark.parametrize("pair", ["rtt", "re"])
def test_planted_descendant_b_fails_recursions(capsys, monkeypatch, pair):
    descendant_b = qma.AlgebraContext.descendant_b
    monkeypatch.setattr(
        qma.AlgebraContext, "descendant_b", lambda self, m, i:
        descendant_b(self, m, i).scale(self.dom.from_scalar(Q)))
    _planted_fails(capsys, ["qma", "--k", "1", "--pair", pair, "--verify",
                            "recursions"], ["qma.recursions"])


@pytest.mark.parametrize("dropped,rank", [(1, 6), (2, 5)])
def test_planted_dropped_relation_fails_rank(capsys, monkeypatch, dropped,
                                             rank):
    """The first defining relations dropped: the ideal no longer matches
    its RANK_ORACLE entry.  The first two are proportional, so without
    one of them only the spanning count falls; without both, the rank."""
    relations = qma.AlgebraContext.defining_relations
    monkeypatch.setattr(qma.AlgebraContext, "defining_relations",
                        lambda self: relations(self)[dropped:])
    [report] = _planted_fails(capsys, ["ideal", "--k", "1", "--degree", "2"],
                              ["ideal.rank"])
    assert f'"rank": {rank}' in report["residual"]


def test_planted_classical_pi_sign_fails_battery(capsys, monkeypatch):
    classical_pi = classical.classical_pi
    monkeypatch.setattr(classical, "classical_pi",
                        lambda m: classical_pi(m).scale(-1))
    _planted_fails(capsys, ["classical", "--k", "1", "--samples", "5"],
                   ["classical.battery"])


def test_qma_builds_each_tower_level_once(capsys, monkeypatch):
    """Each level of the antisymmetrizer tower is built once per domain
    over a whole `qma` run, however the checks ask for it."""
    builds = []
    level = qma.tower_level

    def recorded(ctx, i):
        builds.append((ctx.dom.name, i))
        return level(ctx, i)
    monkeypatch.setattr(qma, "tower_level", recorded)
    code, _, _ = run_json(capsys, ["qma", "--k", "2", "--pair", "rtt",
                                   "--verify", "ch,parent,cutting", "--seed",
                                   "1", "--json"])
    assert code == 0
    assert len(set(builds)) == len(builds)
    assert sum(i >= 2 for _, i in builds) == 4, builds


def test_primes_flag_sets_ch_points(capsys):
    code, reports, _ = run_json(capsys, ["qma", "--k", "2", "--verify", "ch",
                                         "--primes", "4", "--json"])
    assert code == 0
    assert reports[0]["parameters"]["primes"] == 4
    assert reports[0]["witness"] == "points:4"


def _exit_code(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    return err.value.code, capsys.readouterr().err


def test_unknown_list_names_exit_2(capsys):
    # an empty name (a trailing comma) is named too, with the known ones
    code, err = _exit_code(["rmatrix", "--checks", "ybe,"], capsys)
    assert code == 2
    assert "unknown checks: '' (known: ybe,cubic,bmw,height)" in err
    # the subcommand's usage line, not the top-level one
    assert err.startswith("usage: qch rmatrix ")
    code, err = _exit_code(["qma", "--verify", "ch,,cut"], capsys)
    assert code == 2
    assert ("unknown verify targets: '', 'cut' "
            "(known: ch,parent,cutting,recursions)") in err


def test_primes_flag_below_3_exit_2(capsys):
    for value in ("-5", "0", "2"):
        code, err = _exit_code(["qma", "--k", "1", "--primes", value],
                               capsys)
        assert code == 2
        assert "--primes must be >= 3" in err
        assert err.startswith("usage: qch qma ")


def test_prime_count_above_pool_exit_2(capsys):
    # sample_points has 24 primes, one point each
    code, err = _exit_code(["qma", "--k", "2", "--verify", "ch", "--primes",
                            "25"], capsys)
    assert code == 2
    assert "--primes must be >= 3 and <= 24" in err


def test_ideal_degree_below_2_exit_2(capsys):
    for value in ("0", "1", "-3"):
        code, err = _exit_code(["ideal", "--k", "1", "--degree", value],
                               capsys)
        assert code == 2
        assert "--degree must be >= 2" in err


def test_human_table_summary(capsys):
    code = cli.main(["rmatrix", "--k", "1", "--checks", "ybe,cubic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 checks passed" in out.splitlines()[-1]


def test_spectral_max_n_below_2_exit_2(capsys):
    for value in ("-1", "0", "1"):
        code, err = _exit_code(["spectral", "--k", "1", "--max-n", value],
                               capsys)
        assert code == 2
        assert "--max-n must be >= 2" in err


def test_recursions_report_modular_certificates(capsys, monkeypatch):
    code, reports, _ = run_json(capsys, ["qma", "--k", "1", "--verify",
                                         "recursions", "--json"])
    assert code == 0
    assert reports[0]["status"] == "pass"
    assert reports[0]["witness"] == "witness:188"
    assert "failure_bound" not in reports[0]

    # decided at prime points, as at k >= 2: one certificate for all 16
    # residuals, with their points and union bound
    monkeypatch.setattr(QuadraticIdeal, "needs_modular",
                        lambda self, degree: True)
    code, reports, _ = run_json(capsys, ["qma", "--k", "1", "--verify",
                                         "recursions", "--json"])
    assert code == 0
    assert reports[0]["status"] == "probable-pass"
    assert reports[0]["witness"].startswith("points:")
    assert int(reports[0]["witness"][len("points:"):]) >= 3
    assert 0 < reports[0]["failure_bound"] < FAILURE_TARGET


def test_recursions_share_one_failure_budget(capsys, monkeypatch):
    # the joint attempt and the walk both give each nonzero entry of the
    # one candidate (every entry of the 12 recursion and 4 expansion
    # residuals) the same share of the target, and reach the same report
    targets, built, seen = [], [], []
    enough = ideal._enough

    def record(pts, d_max, min_points, target):
        targets.append(target)
        return enough(pts, d_max, min_points, target)

    def vanishes_at(self, pt, candidate_at):
        built.append((pt, list(candidate_at(pt))))
        return not (walk and isinstance(pt, JointPoint))
    monkeypatch.setattr(QuadraticIdeal, "needs_modular",
                        lambda self, degree: True)
    monkeypatch.setattr(ideal, "_enough", record)
    monkeypatch.setattr(QuadraticIdeal, "_vanishes_at", vanishes_at)
    shape = [p for p in cli._algebra(1, "rtt").over(SpanDomain())
             .recursion_entries() if p]
    share = FAILURE_TARGET / len(shape)
    for walk in (False, True):
        targets.clear()
        built.clear()
        code, reports, _ = run_json(capsys, ["qma", "--k", "1", "--verify",
                                             "recursions", "--json"])
        assert code == 0
        assert targets and all(t == pytest.approx(share, rel=1e-12)
                               for t in targets)
        # one build of all 64 entries at the joint point and, when the
        # joint run hands over, one at each of the walk's points
        assert reports[0]["witness"] == "points:3"
        assert [len(entries) for _, entries in built] == \
            [16 * 4] * (1 + 3 * walk)
        assert isinstance(built[0][0], JointPoint)
        assert 0 < reports[0]["failure_bound"] < FAILURE_TARGET
        reports[0].pop("elapsed", None)
        seen.append(reports[0])
    assert seen[0] == seen[1]


def test_recursions_degree_is_largest_residual_degree(capsys, monkeypatch):
    seen = []

    def record(self, ctx, build, degree, seed=0, min_points=None):
        seen.append((build, degree))
        return None
    monkeypatch.setattr(QuadraticIdeal, "identity_membership", record)
    code, _, _ = run_json(capsys, ["qma", "--k", "1", "--verify",
                                   "recursions", "--json"])
    assert code == 0
    [(build, degree)] = seen
    # at k = 2: the second recursion at m = 2, i = 1
    shape = [p for p in build(cli._algebra(2, "rtt").over(SpanDomain()))
             if p]
    assert max(p.degree() for p in shape) == degree == 5


# Reports of fixed runs, elapsed aside.  A refactor must keep every field,
# the bits of each failure bound included.
PINNED_REPORTS = {
    ("spectral", "--k", "1", "--max-n", "6", "--seed", "3"): [
        {"check": "spectral.factor",
         "parameters": {"k": 1, "max_n": 6, "seed": 3},
         "residual": "0",
         "status": "pass"},
        {"check": "spectral.images",
         "parameters": {"k": 1, "max_n": 6, "seed": 3},
         "residual": "0",
         "status": "pass"},
        {"check": "spectral.newton",
         "failure_bound": 1.0485760000000016e-89,
         "parameters": {"k": 1, "max_n": 6, "seed": 3},
         "residual": "0",
         "status": "probable-pass",
         "witness": "points:19+19+9"},
        {"check": "spectral.param",
         "parameters": {"k": 1, "max_n": 6, "seed": 3},
         "residual": "0",
         "status": "pass"},
        {"check": "spectral.polynomiality",
         "failure_bound": 1.1529215046068462e-72,
         "parameters": {"k": 1, "max_n": 6, "seed": 3},
         "residual": "0",
         "status": "probable-pass",
         "witness": "points:15"},
    ],
    ("spectral", "--k", "2", "--max-n", "6", "--seed", "3"): [
        {"check": "spectral.factor",
         "parameters": {"k": 2, "max_n": 6, "seed": 3},
         "residual": "0",
         "status": "pass"},
        {"check": "spectral.images",
         "parameters": {"k": 2, "max_n": 6, "seed": 3},
         "residual": "0",
         "status": "pass"},
        {"check": "spectral.newton",
         "failure_bound": 3.851808760074551e-105,
         "parameters": {"k": 2, "max_n": 6, "seed": 3},
         "residual": "0",
         "status": "probable-pass",
         "witness": "points:23+23+15"},
        {"check": "spectral.param",
         "failure_bound": 1.1529215046068462e-72,
         "parameters": {"k": 2, "max_n": 6, "seed": 3},
         "residual": "0",
         "status": "probable-pass",
         "witness": "points:15"},
        {"check": "spectral.polynomiality",
         "failure_bound": 1.6749952991002524e-88,
         "parameters": {"k": 2, "max_n": 6, "seed": 3},
         "residual": "0",
         "status": "probable-pass",
         "witness": "points:19"},
    ],
    # the spectral suite of the exact-spectral-classical workload
    ("spectral", "--k", "3", "--max-n", "6", "--seed", "1"): [
        {"check": "spectral.factor",
         "parameters": {"k": 3, "max_n": 6, "seed": 1},
         "residual": "0",
         "status": "pass"},
        {"check": "spectral.images",
         "parameters": {"k": 3, "max_n": 6, "seed": 1},
         "residual": "0",
         "status": "pass"},
        {"check": "spectral.newton",
         "failure_bound": 2.09506507118867e-120,
         "parameters": {"k": 3, "max_n": 6, "seed": 1},
         "residual": "0",
         "status": "probable-pass",
         "witness": "points:27+27+21"},
        {"check": "spectral.param",
         "failure_bound": 1.6749952991002524e-88,
         "parameters": {"k": 3, "max_n": 6, "seed": 1},
         "residual": "0",
         "status": "probable-pass",
         "witness": "points:19"},
    ],
    ("rmatrix", "--k", "3", "--checks", "height", "--seed", "5"): [
        {"check": "rmatrix.height",
         "failure_bound": 1.7732685050456947e-23,
         "parameters": {"k": 3, "primes": 3, "seed": 5},
         "residual": "0",
         "status": "probable-pass",
         "witness": "height=3 (Sp(6))"},
    ],
    # decided at the joint point of their prime points; the values are
    # the per-point walk's, which the joint run must reproduce
    ("qma", "--k", "2", "--verify", "ch", "--seed", "1"): [
        {"check": "qma.ch",
         "failure_bound": 1.29783280472904e-15,
         "parameters": {"k": 2, "pair": "rtt", "primes": 3, "seed": 1},
         "residual": "0",
         "status": "probable-pass",
         "witness": "points:3"},
    ],
    ("qma", "--k", "2", "--verify", "ch", "--seed", "3"): [
        {"check": "qma.ch",
         "failure_bound": 1.29783280472904e-15,
         "parameters": {"k": 2, "pair": "rtt", "primes": 3, "seed": 3},
         "residual": "0",
         "status": "probable-pass",
         "witness": "points:3"},
    ],
    ("qma", "--k", "2", "--verify", "recursions"): [
        {"check": "qma.recursions",
         "failure_bound": 1.0507566199128507e-15,
         "parameters": {"k": 2, "pair": "rtt", "primes": 3, "seed": 0},
         "residual": "0",
         "status": "probable-pass",
         "witness": "points:4"},
    ],
}


def test_re_ch_at_k2_normal_orders_to_zero(capsys, monkeypatch):
    # the RE characteristic identity at k = 2: at the joint point every
    # one of its 16 entries normal-orders to 0, so none is eliminated;
    # the normal forms are checked before the run's own decision
    vanishes_at = QuadraticIdeal._vanishes_at
    joint = []

    def normal_forms_first(self, pt, candidate_at):
        entries = list(candidate_at(pt))
        assert isinstance(pt, JointPoint) and len(entries) == 16
        ideal_p = self.at_point(pt)
        assert all(ideal_p.normal_order(p).is_zero() for p in entries)
        joint.append(pt)
        return vanishes_at(self, pt, candidate_at)

    monkeypatch.setattr(QuadraticIdeal, "_vanishes_at", normal_forms_first)
    code, reports, _ = run_json(capsys, [
        "qma", "--k", "2", "--pair", "re", "--verify", "ch", "--seed", "1",
        "--json"])
    assert code == 0 and len(joint) == 1
    [r] = reports
    assert r["check"] == "qma.ch" and r["status"] == "probable-pass"
    assert r["failure_bound"] < FAILURE_TARGET


@pytest.mark.parametrize("argv", list(PINNED_REPORTS))
def test_reports_pinned(capsys, argv):
    code, reports, _ = run_json(capsys, list(argv) + ["--json"])
    assert code == 0
    for r in reports:
        del r["elapsed"]
    assert reports == PINNED_REPORTS[argv]


def test_failing_spectral_report_pinned(capsys, monkeypatch):
    # a flipped mu: newton-a fails at n = 2 on the first chart, and the
    # report carries that residual; recorded before the chart relations
    # moved to integer Laurent arithmetic, which must print it unchanged
    from qch import spectral
    mu_of = spectral.mu_of
    monkeypatch.setattr(spectral, "mu_of", lambda k: -mu_of(k))
    code, reports, _ = run_json(capsys, ["spectral", "--k", "2", "--max-n",
                                         "2", "--seed", "0", "--json"])
    assert code == 1
    for r in reports:
        del r["elapsed"]
    params = {"k": 2, "max_n": 2, "seed": 0}
    assert reports == [
        {"check": "spectral.factor", "parameters": params, "residual": "0",
         "status": "pass"},
        {"check": "spectral.images", "parameters": params, "residual": "0",
         "status": "pass"},
        {"check": "spectral.newton", "parameters": params,
         "residual": "newton-a n=2: -1568015070728 / q^5", "status": "fail"},
        {"check": "spectral.param", "parameters": params,
         "residual": "failed: init-2-closed,ok", "status": "fail"},
        {"check": "spectral.polynomiality", "parameters": params,
         "residual": "n=2", "status": "fail"},
    ]
