"""Acceptance gate: the nine headline criteria, one test (and one
``pytest -v`` line) per criterion.

1. R-matrix construction and braid/skein relations for k = 1..3.
2. Height detection with probe and trace-eigenvalue vanishing.
3. Exact Sp(2) parent and characteristic identities with witnesses.
4. Sp(4) parent/characteristic identities and their star-product link.
5. Structural properties of the trace maps and descendant recursions.
6. Calibration anchors and the Sp(4) relation catalogue.
7. Spectral-variable parameterization suites.
8. Classical-limit sample battery.
9. CLI determinism across repeated runs.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from qch import classical, qma
from qch import spectral as sp
from qch import sp4_relations
from qch.domains import QQ
from qch.ideal import QuadraticIdeal, point_bound
from qch.ncpoly import NCPoly, QMatrix
from qch.qma import AlgebraContext
from qch.rmatrix import (antisymmetrizer_tower, big_delta, build_standard_sp,
                         check_bmw, check_cubic, check_ybe, delta, height,
                         height_probe)
from qch.scalar import ONE, Q, QINV, QScalar, sample_points

import qma_blocks as qmb
from test_scalar import bar

FAILURE_TARGET = 1e-12


def qp(e):
    return QScalar.q_power(e)


def gen(a, b):
    return NCPoly.generator(QQ, a, b)


def entries_of(qmat):
    return [p for row in qmat.rows for p in row]


def assert_matrix_member(ideal, qmat):
    cert = ideal.membership_matrix(qmat.entries())
    assert cert.is_member, cert
    return cert


def test_criterion_1_rmatrix_relations():
    t0 = time.time()
    for k in (1, 2, 3):
        ctx = build_standard_sp(k)
        assert ctx.mu_scalar == -qp(-1 - 2 * k)
        for cert in (check_ybe(ctx.r, f"ybe-k{k}"), check_cubic(ctx),
                     check_bmw(ctx)):
            assert cert.ok, cert.failures
    assert time.time() - t0 < 120.0


def test_criterion_2_height_detection():
    for k in (1, 2):
        ctx = build_standard_sp(k)
        assert height(ctx) == (k, f"Sp({2 * k})", None)
        tower = antisymmetrizer_tower(ctx, k)
        assert height_probe(ctx, tower, k).is_zero()
        assert delta(ctx.mu_scalar, k + 1).is_zero()
        assert big_delta(ctx.mu_scalar, k + 1).is_zero()
    ctx3 = build_standard_sp(3)
    got, tag, height_bound = height(ctx3, seed=7)
    assert (got, tag) == (3, "Sp(6)")
    points = sample_points(7, 3, point_bound(ctx3.dim))
    bound = 1.0
    for pt in points:
        ctx_pt = ctx3.at_point(pt)
        tower = antisymmetrizer_tower(ctx_pt, 3)
        assert height_probe(ctx_pt, tower, 3).is_zero()
        bound *= point_bound(ctx3.dim) / pt.p
    assert delta(ctx3.mu_scalar, 4).is_zero()
    assert height_bound == bound < FAILURE_TARGET


def test_criterion_3_sp2_exact_identities(rtt2, re2, ideal2, ideal2_re):
    # Parent identity vanishes literally in the free algebra.
    assert rtt2.parent_identity(1).is_zero()
    assert re2.parent_identity(1).is_zero()
    # Characteristic identity entries are exact ideal members with witnesses.
    for ctx, ideal in ((rtt2, ideal2), (re2, ideal2_re)):
        for p in entries_of(ctx.ch_identity(1)):
            cert = ideal.membership(p, witness=True)
            assert cert.is_member and cert.kind == "exact", cert
            assert p.is_zero() or cert.witness, cert
        for op in ctx.two_contraction_residuals():
            for val in op.data.values():
                assert ideal.membership(val).is_member
    # Both printed closed forms of g.
    half = ONE / (qp(2) + qp(-2))
    rtt_first = ((gen(0, 0) * gen(1, 1)).scale(qp(-2))
                 + (gen(1, 1) * gen(0, 0)).scale(qp(2))
                 - gen(0, 1) * gen(1, 0) - gen(1, 0) * gen(0, 1)
                 ).scale(qp(-6) * half)
    rtt_second = (gen(0, 0) * gen(1, 1)
                  - (gen(0, 1) * gen(1, 0)).scale(qp(2))).scale(qp(-6))
    assert rtt2.g == rtt_first
    assert ideal2.membership(rtt2.g - rtt_second).is_member
    re_first = (gen(0, 0) * gen(1, 1) + gen(1, 1) * gen(0, 0)
                - (gen(0, 0) * gen(0, 0)).scale(ONE - qp(-4))
                - gen(0, 1) * gen(1, 0)
                - (gen(1, 0) * gen(0, 1)).scale(qp(4))).scale(qp(-4) * half)
    re_second = (gen(0, 0) * gen(1, 1)
                 - (gen(0, 0) * gen(0, 0)).scale(ONE - qp(-4))
                 - gen(0, 1) * gen(1, 0)).scale(qp(-2))
    assert re2.g == re_first
    assert ideal2_re.membership(re2.g - re_second).is_member


def test_criterion_4_sp4_identities(rtt4, ideal4):
    t0 = time.time()
    parent = rtt4.parent_identity(2)
    assert max(p.degree() for p in entries_of(parent)) == 2
    assert_matrix_member(ideal4, parent)
    ch = rtt4.ch_identity(2)
    assert max(p.degree() for p in entries_of(ch)) == 4
    # degree 4: decided at prime points, every entry at the same points
    cert = ideal4.identity_membership(
        rtt4, lambda c: c.ch_identity(2).entries(), 4, min_points=3)
    assert cert.is_member and cert.kind == "modular", cert
    assert len(cert.points) >= 3 and cert.bound < FAILURE_TARGET, cert

    def link(c):
        return (c.ch_identity(2) - c.star_multiply(
            c.star_power(2), c.parent_identity(2))).entries()
    cert = ideal4.identity_membership(rtt4, link, 4, min_points=3)
    assert cert.is_member and cert.kind == "modular", cert
    assert cert.bound < FAILURE_TARGET, cert
    assert time.time() - t0 < 600.0


def test_criterion_5_structural(rtt2, re2, rtt4, ideal2, ideal2_re):
    # pi does not depend on the companion structure.
    assert rtt2.map_tensor("pi") == re2.map_tensor("pi")
    r4 = build_standard_sp(2)
    assert rtt4.map_tensor("pi") == AlgebraContext(
        r4, r4, label="sp4-re").map_tensor("pi")
    # phi is the identity for the reflection-equation pair.
    m = re2.m_matrix
    assert re2.phi(m) == m and re2.phi_inv(m) == m
    # Conjugators collapse to the identity for the standard pairs.
    for ctx in (rtt2, rtt4):
        g_mat, g_inv = ctx.g_conjugators()
        ident = QMatrix.identity(QQ, ctx.dim)
        assert g_mat == ident and g_inv == ident
    # g permutes through star powers and is central modulo the ideal.
    for ctx, ideal in ((rtt2, ideal2), (re2, ideal2_re)):
        for n in (1, 2, 3):
            assert_matrix_member(ideal,
                                 ctx.g_permutation_residual(ctx.star_power(n)))
    # Descendant recursions and expansion residuals, on the stated ranges.
    for m_idx in (0, 1, 2):
        for i in (0, 1):
            res1, res2 = rtt2.recursion_residuals(m_idx, i)
            assert_matrix_member(ideal2, res1)
            assert_matrix_member(ideal2, res2)
    for m_idx, i in ((-1, 1), (0, 2)):
        assert_matrix_member(ideal2, rtt2.expansion_residual_a(m_idx, i))
    for m_idx, i in ((1, 1), (2, 2)):
        assert_matrix_member(ideal2, rtt2.expansion_residual_b(m_idx, i))
    # Boundary cutting and the dependency relation.
    assert rtt2.boundary_a(2).is_zero()
    assert rtt2.cutting_dependency(0, 1).is_zero()
    assert rtt2.cutting_dependency(1, 1).is_zero()


def test_criterion_6_calibration(rtt2, rtt4, ideal4):
    # a_1 display for the 2x2 pair.
    assert rtt2.a_elem(1) == gen(0, 0).scale(qp(-5)) + gen(1, 1).scale(qp(-1))
    # Block-map identities for the 4x4 pair.
    x = [[gen(0, 0), gen(0, 1)], [gen(1, 0), gen(1, 1)]]
    assert qmb.block_sigma(qmb.block_sigma(x, Q), QINV) == x
    lhs = qmb.block_beta(qmb.block_alpha(x, QINV, +1), Q)
    rhs = qmb.block_scale(qmb.block_alpha(qmb.block_beta(x, QINV), Q, +1),
                          qp(-4))
    assert lhs == rhs
    m = rtt4.m_matrix
    assert rtt4.xi_inv(m) == rtt4.xi(m).map_entries(
        lambda p: p.map_coefficients(QQ, bar))
    # Relation catalogue spans the same rank-130 space as the defining set.
    catalogue = QuadraticIdeal(QQ, 4, sp4_relations.all_relations(QQ),
                               label="sp4-catalogue")
    defining = ideal4
    assert catalogue.rank_of_degree(2)["rank"] == 130
    assert defining.rank_of_degree(2)["rank"] == 130
    for _, p in sp4_relations.all_relations(QQ):
        assert defining.membership(p).is_member
    for _, p in rtt4.defining_relations():
        assert catalogue.membership(p).is_member


def test_criterion_7_spectral():
    for k in (1, 2, 3):
        for i in range(2 * k + 1):
            assert sp.pi_hom(k, "eps", i) == sp.elementary(k, i)
    for k in (1, 2, 3):
        assert sp.factor_check(k) == {"ok": True, "checked": 2 * k + 1}
    for k in (1, 2, 3):
        r = sp.newton_check(k, 6, sp.chart_data(k, 6, seed=3))
        assert r["ok"] and r["points"] >= 13, r
        assert sp.wronski_modified(k, 6, sp.chart_data(k, 6, seed=4))["ok"]
        pr = sp.parameterization_checks(k, seed=5)
        for key in ("w1+", "w1-", "w2-zero", "d-ratio", "init-1", "init-2",
                    "init-3", "ok"):
            assert pr[key], (key, pr)


def test_criterion_8_classical_battery():
    t0 = time.time()
    g_cycle = classical.DEFAULT_G_VALUES
    assert 0 in [g for g in g_cycle] and any(g < 0 for g in g_cycle)
    for k in (1, 2, 3, 4):
        out = classical.check_samples(k, 100, seed=k)
        assert out["ok"] and out["samples"] == 100, out
    assert time.time() - t0 < 60.0


def test_criterion_9_cli_determinism():
    cmd = [sys.executable, "-m", "qch.cli", "all", "--k", "1", "--seed", "7",
           "--json"]
    # the child imports the same qch as this test, installed or not
    src = os.path.dirname(os.path.dirname(qma.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def snapshot():
        run = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        reports = [json.loads(line) for line in run.stdout.splitlines()]
        for r in reports:
            r.pop("elapsed", None)
        return reports

    first, second = snapshot(), snapshot()
    assert first == second
    assert all(r["status"] in ("pass", "probable-pass") for r in first)
