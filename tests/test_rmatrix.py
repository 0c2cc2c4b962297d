from __future__ import annotations

import itertools
import math

import pytest

from qch import rmatrix, tensor
from qch.domains import QQ, SpanDomain
from qch.ideal import (FAILURE_TARGET, modular_bound, modular_verdict,
                       point_bound)
from qch.scalar import (LAMBDA, ONE, Q, InadmissiblePointError, JointPoint,
                        QScalar, joint_point, q_int, sample_points)
from qch.tensor import TensorOperator


def qp(e):
    return QScalar.q_power(e)


def test_standard_sp2_structural_terms():
    ctx = rmatrix.build_standard_sp(1)
    expected = {
        ((0, 0), (0, 0)): qp(1),
        ((1, 1), (1, 1)): qp(1),
        ((1, 0), (0, 1)): qp(-1),
        ((0, 1), (1, 0)): qp(-1),
        ((0, 1), (0, 1)): qp(1) - qp(-3),
    }
    assert ctx.r.data == expected
    assert ctx.mu_scalar == -qp(-3)


@pytest.mark.parametrize("k", [1, 2])
def test_ybe_and_cubic(k):
    ctx = rmatrix.build_standard_sp(k)
    assert rmatrix.check_ybe(ctx.r).ok
    assert rmatrix.check_cubic(ctx).ok


def test_sp2_minimal_polynomial_quadratic():
    ctx = rmatrix.build_standard_sp(1)
    f1 = ctx.scaled_identity(Q) - ctx.r
    f3 = ctx.scaled_identity(ctx.mu_scalar) - ctx.r
    assert (f1 @ f3).is_zero()


def test_flip_fails_cubic():
    flip_ctx = rmatrix.flip_context(QQ, 2)
    assert not rmatrix.check_cubic(flip_ctx).ok


@pytest.mark.parametrize("k", [1, 2])
def test_contractor_matches_closed_form(k):
    ctx = rmatrix.build_standard_sp(k)
    assert ctx.k_op == rmatrix.standard_sp_contractor(k)


@pytest.mark.parametrize("k", [1, 2])
def test_bmw_certificate(k):
    cert = rmatrix.check_bmw(rmatrix.build_standard_sp(k))
    assert cert.ok, cert.failures()


def test_r_trace_of_r_inverse():
    # R - R^-1 = (q-q^-1)(I - K) forces Tr_R(2) R1^-1 = mu^2 I
    ctx = rmatrix.build_standard_sp(1)
    mu2 = ctx.mu_scalar * ctx.mu_scalar
    assert ctx.tr_r(ctx.r_inv, 2) == ctx.scaled_identity(mu2, 1)


@pytest.mark.parametrize("k", [1, 2])
def test_compatible_pairs(k):
    ctx = rmatrix.build_standard_sp(k)
    flip_ctx = rmatrix.flip_context(QQ, ctx.dim)
    assert rmatrix.check_compatible(ctx, flip_ctx).ok
    assert rmatrix.check_compatible(ctx, ctx).ok


def test_twist_by_flip():
    ctx = rmatrix.build_standard_sp(1)
    flip_ctx = rmatrix.flip_context(QQ, 2)
    twisted = rmatrix.twist(ctx, flip_ctx)
    p = flip_ctx.r
    assert twisted.r == (p @ ctx.r @ p)
    assert rmatrix.check_ybe(twisted.r).ok
    assert rmatrix.check_cubic(twisted).ok


def test_g_operator():
    ctx = rmatrix.build_standard_sp(1)
    flip_ctx = rmatrix.flip_context(QQ, 2)
    g, g_inv = rmatrix.compute_g_operator(ctx, flip_ctx)
    ident = TensorOperator.identity(QQ, 2, 1)
    assert g == ident and g_inv == ident
    g2, g2_inv = rmatrix.compute_g_operator(ctx, ctx)
    assert (g2 @ g2_inv) == ident


def test_antisymmetrizer_vanishes_at_sp2():
    ctx = rmatrix.build_standard_sp(1)
    tower = rmatrix.antisymmetrizer_tower(ctx, 2)
    assert tower[0] == TensorOperator.identity(QQ, 2, 1)
    assert tower[1].is_zero()


def test_towers_idempotent_sp4():
    ctx = rmatrix.build_standard_sp(2)
    a = rmatrix.antisymmetrizer_tower(ctx, 3)
    s = rmatrix.symmetrizer_tower(ctx, 3)
    for op in (a[1], a[2], s[1], s[2]):
        assert (op @ op) == op
    assert not a[1].is_zero()
    assert a[2].is_zero()  # the tower degenerates exactly at the height
    assert not s[2].is_zero()


def test_tower_trace_eigenvalues_sp4():
    ctx = rmatrix.build_standard_sp(2)
    a = rmatrix.antisymmetrizer_tower(ctx, 3)
    mu = ctx.mu_scalar
    for i in (2, 3):
        lhs = ctx.tr_r(a[i - 1], i)
        rhs = a[i - 2].scale(rmatrix.delta(mu, i))
        assert lhs == rhs
    # product of the trace eigenvalues equals the fully traced projector
    total = ctx.tr_r(a[1], 1, 2).scalar_value()
    assert total == rmatrix.big_delta(mu, 2)


def test_delta_values():
    for k in (1, 2, 3):
        mu = -qp(-1 - 2 * k)
        d1 = rmatrix.delta(mu, 1)
        assert d1 == (Q - mu) * (qp(-1) + mu) / LAMBDA
        assert rmatrix.delta(mu, k + 1).is_zero()
        assert rmatrix.big_delta(mu, k + 1).is_zero()


def _composed_step(ctx, tower, i, sign):
    """a^(i) sigma_i a^(i) as composed operators: `height_probe` for the
    antisymmetrizer, written out for the symmetrizer."""
    if sign == -1:
        return rmatrix.height_probe(ctx, tower, i)
    s_i = tower[i - 1].embed(1, i + 1)
    return s_i @ rmatrix._sigma(ctx, i, sign).embed(i, i + 1) @ s_i


def _entries(op):
    """op's entries, a `Span` (which has no equality) by its fields."""
    if op.dom.name != "span":
        return op.data
    return {key: (v.lo, v.hi, v.atoms, v.den) for key, v in op.data.items()}


def _tower_domains(k):
    ctx = rmatrix.build_standard_sp(k)
    pool = sample_points(3, 3, point_bound(ctx.dim))
    return [ctx, ctx.at_point(pool[0]), ctx.at_point(joint_point(pool)),
            ctx.over(SpanDomain())]


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("k,top", [(1, 2), (2, 3), (3, 3)])
def test_tower_level_is_the_composed_step(k, top, sign):
    """Each level is q^(-sign i)/(i+1)_q times the composed step on the
    level below, over Q(q), at a prime point, at a joint point and over
    `SpanDomain`, where the unit's per-factor denominator atoms must give
    the composed tower's bounds entry by entry."""
    for ctx in _tower_domains(k):
        tower = [rmatrix.tower_level(ctx, 1, sign)]
        assert _entries(tower[0]) == _entries(
            TensorOperator.identity(ctx.dom, ctx.dim, 1))
        for i in range(1, top):
            c_i = QScalar.q_power(-sign * i) / q_int(i + 1)
            want = _composed_step(ctx, tower, i, sign).scale(ctx.coeff(c_i))
            tower.append(rmatrix.tower_level(ctx, i + 1, sign))
            assert _entries(tower[i]) == _entries(want), (ctx.dom.name, i)
            # a Span is never zero; the exact levels vanish at the height
            if ctx.dom.name != "span":
                assert tower[i].is_zero() == (sign == -1 and i == k), i


def test_sigma_guard_fails_past_height():
    ctx = rmatrix.build_standard_sp(1)
    with pytest.raises(rmatrix.GuardError, match="vanishes at level 2"):
        rmatrix.antisymmetrizer_tower(ctx, 3)


@pytest.mark.parametrize("k,tag", [(1, "Sp(2)"), (2, "Sp(4)")])
def test_height_exact(k, tag):
    ctx = rmatrix.build_standard_sp(k)
    assert rmatrix.height(ctx) == (k, tag, None)


def test_height_modular_agrees_at_k2():
    # the prime-point walk of the height above dim 4, run at dim 4
    ctx = rmatrix.build_standard_sp(2)
    got, points, bound = modular_verdict(
        lambda pt: rmatrix._height_scan(ctx.at_point(pt), 4),
        point_bound(4), point_bound(4), 11, 3, FAILURE_TARGET)
    assert got == 2 and len(points) == 3
    assert 0 < bound < 1e-12


def test_height_skips_an_inadmissible_point(monkeypatch):
    # the first pool point, and with it the joint point of the batch,
    # fails to reduce the context; the walk's next three pool primes
    # decide the height and carry the bound
    ctx = rmatrix.build_standard_sp(3)
    pool = sample_points(0, 4, point_bound(ctx.dim))
    at_point = rmatrix.RMatrixContext.at_point
    tried = []

    def at_point_or_fail(self, pt):
        tried.append(pt.p)
        if pt.p % pool[0].p == 0:
            raise InadmissiblePointError("denominator vanishes")
        return at_point(self, pt)
    monkeypatch.setattr(rmatrix.RMatrixContext, "at_point",
                        at_point_or_fail)
    got, tag, bound = rmatrix.height(ctx, seed=0)
    assert (got, tag) == (3, "Sp(6)")
    assert tried == [joint_point(pool[:3]).p] + [pt.p for pt in pool]
    assert bound == modular_bound(pool[1:], point_bound(ctx.dim))


def _walked_height(ctx, seed):
    """The height's modular verdict with the joint point declined, so
    that the prime points are walked one by one."""
    def scan(pt):
        if isinstance(pt, JointPoint):
            raise InadmissiblePointError("walk only")
        return rmatrix._height_scan(ctx.at_point(pt), ctx.dim // 2 + 2)
    return modular_verdict(scan, point_bound(ctx.dim), point_bound(ctx.dim),
                           seed, 3, FAILURE_TARGET)


def test_joint_height_is_the_walks(monkeypatch):
    # one scan, modulo the product of the batch's primes, gives the walk's
    # height, points and bound
    ctx = rmatrix.build_standard_sp(3)
    verdicts, scanned = [], []
    scan = rmatrix._height_scan

    def recorded_verdict(*args):
        verdicts.append(modular_verdict(*args))
        return verdicts[-1]

    def recorded_scan(c, bound):
        scanned.append(c.dom.point)
        return scan(c, bound)
    monkeypatch.setattr(rmatrix, "modular_verdict", recorded_verdict)
    monkeypatch.setattr(rmatrix, "_height_scan", recorded_scan)
    for seed in range(10):
        scanned.clear()
        got, _, bound = rmatrix.height(ctx, seed=seed)
        [joint] = scanned
        k, points, walk_bound = _walked_height(ctx, seed)
        assert (got, bound) == (k, walk_bound) and k == 3
        assert isinstance(joint, JointPoint)
        assert joint.p == math.prod(pt.p for pt in points)
        assert [pt.p for pt in verdicts[-1][1]] == [pt.p for pt in points]


def test_height_falls_back_to_the_walk_at_a_joint_non_unit(monkeypatch):
    # only the joint modulus fails: the walk takes the batch's points
    ctx = rmatrix.build_standard_sp(3)
    pool = sample_points(0, 3, point_bound(ctx.dim))
    at_point = rmatrix.RMatrixContext.at_point
    tried = []

    def at_point_or_fail(self, pt):
        tried.append(pt.p)
        if isinstance(pt, JointPoint):
            raise InadmissiblePointError("not a unit mod P")
        return at_point(self, pt)
    monkeypatch.setattr(rmatrix.RMatrixContext, "at_point",
                        at_point_or_fail)
    assert rmatrix.height(ctx) == (3, "Sp(6)",
                                   modular_bound(pool, point_bound(ctx.dim)))
    assert tried == [joint_point(pool).p] + [pt.p for pt in pool]


def test_height_vanishing_at_one_prime_fails(monkeypatch):
    # sigma_i times the second pool prime: every level vanishes at that
    # point only.  At the joint point the first image vector is nonzero
    # but its pivot is not a unit mod P, so the walk runs and meets
    # height 1 at the second point: mixed scans, GuardError
    ctx = rmatrix.build_standard_sp(3)
    pool = sample_points(0, 3, point_bound(ctx.dim))
    sigma = rmatrix._sigma
    monkeypatch.setattr(
        rmatrix, "_sigma", lambda c, i, sign=-1: sigma(c, i, sign).scale(
            c.coeff(QScalar.from_int(pool[1].p))))
    scans = []
    scan = rmatrix._height_scan

    def recorded(c, bound):
        scans.append(c.dom.p)
        return scan(c, bound)
    monkeypatch.setattr(rmatrix, "_height_scan", recorded)
    with pytest.raises(rmatrix.GuardError, match=r"\[3, 1\]"):
        rmatrix.height(ctx)
    assert scans == [joint_point(pool).p, pool[0].p, pool[1].p]


def _scan_levels(monkeypatch, ctx, bound):
    """`_height_scan(ctx, bound)` and the rank of each level's echelon:
    rank W_i, which is rank a^(i+1)."""
    echelons = []

    class Recorded(rmatrix.Echelon):
        def __init__(self, dom):
            super().__init__(dom)
            echelons.append(self)
    monkeypatch.setattr(rmatrix, "Echelon", Recorded)
    got = rmatrix._height_scan(ctx, bound)
    return got, [ech.rank for ech in echelons]


def _assert_scan_agrees(monkeypatch, ctx, bound):
    """The vector scan against the built tower: at every level it reaches,
    its image basis has the rank of the tower level, and it stops at the
    first level whose `height_probe` is zero (None: none up to bound).
    Returns the scan's result."""
    got, ranks = _scan_levels(monkeypatch, ctx, bound)
    levels = len(ranks)
    tower = rmatrix.antisymmetrizer_tower(ctx, levels + 1)
    assert ranks == [a.rank_in_domain() for a in tower[1:]]
    zero = [rmatrix.height_probe(ctx, tower, i).is_zero()
            for i in range(1, levels + 1)]
    assert zero == [False] * (levels - 1) + [got is not None]
    assert got == levels or got is None and levels == bound
    return got


def _assert_image_test_agrees(monkeypatch, ctx, k):
    """The scan agrees with the built tower up to the height k; past it
    the tower stops at its guard."""
    assert _assert_scan_agrees(monkeypatch, ctx, k + 2) == k
    tower = rmatrix.antisymmetrizer_tower(ctx, k + 1)
    with pytest.raises(rmatrix.GuardError):
        rmatrix.height_probe(ctx, tower, k + 1)


@pytest.mark.parametrize("k", [1, 2])
def test_image_test_agrees_with_probe_exact(monkeypatch, k):
    _assert_image_test_agrees(monkeypatch, rmatrix.build_standard_sp(k), k)


def test_image_test_agrees_with_probe_at_points_k3(monkeypatch):
    ctx = rmatrix.build_standard_sp(3)
    for pt in sample_points(7, 3, 2 * ctx.dim + 4):
        _assert_image_test_agrees(monkeypatch, ctx.at_point(pt), 3)


def test_image_test_agrees_on_coordinate_projectors(monkeypatch):
    """sigma_i replaced by a coordinate projector on two factors, from
    rank 1 up, so that the image bases are coordinate vectors and each can
    carry the only nonzero part of a step; two supports vanish, at levels
    2 and 4, and three never do."""
    ctx = rmatrix.build_standard_sp(2)
    pairs = list(itertools.product(range(ctx.dim), repeat=2))
    got = []
    for support in (pairs[:1], pairs[1:2], pairs[-1:], pairs[1::3],
                    pairs[1::5]):
        proj = TensorOperator(QQ, ctx.dim, 2, {(t, t): ONE for t in support})
        monkeypatch.setattr(rmatrix, "_sigma", lambda c, i, sign=-1: proj)
        got.append(_assert_scan_agrees(monkeypatch, ctx, 4))
    assert got == [None, 2, None, None, 4]


@pytest.mark.parametrize("k", [1, 2])
def test_height_scan_stops_below_height(k):
    ctx = rmatrix.build_standard_sp(k)
    assert rmatrix._height_scan(ctx, k - 1) is None
    assert rmatrix._height_scan(ctx, k) == k


def test_height_scan_k4_at_a_point():
    ctx = rmatrix.build_standard_sp(4)
    pt = sample_points(0, 3, 2 * ctx.dim + 4)[0]
    assert rmatrix._height_scan(ctx.at_point(pt), 6) == 4


def test_context_at_point_is_homomorphic():
    ctx = rmatrix.build_standard_sp(1)
    pt = sample_points(3, 1, 8)[0]
    pctx = ctx.at_point(pt)
    r1 = pctx.r.embed(1, 3)
    r2 = pctx.r.embed(2, 3)
    assert ((r1 @ r2 @ r1) - (r2 @ r1 @ r2)).is_zero()
    assert pctx.r == ctx.r.reduce_at(pt)
    # reduced contractor agrees with contractor of the reduced context
    assert ctx.k_op.reduce_at(pt) == pctx.k_op
