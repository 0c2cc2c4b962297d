from __future__ import annotations

import pytest

from qch import qma, rmatrix, tensor
from qch.domains import QQ, FpDomain, Span, SpanDomain
from qch.ideal import FAILURE_TARGET, point_bound
from qch.ncpoly import NCPoly, QMatrix
from qch.qma import AlgebraContext
from qch.rmatrix import build_standard_sp, flip_context
from qch.scalar import (LAMBDA, ONE, Q, QINV, QScalar, joint_point,
                         sample_points)
from qch.tensor import TensorOperator, matrix_unit

import qma_blocks as qmb
from qma_blocks import star_word
from test_scalar import bar


def qp(e):
    return QScalar.q_power(e)


def gen(a, b):
    return NCPoly.generator(QQ, a, b)


def assert_member(ideal, qmat_or_poly):
    if isinstance(qmat_or_poly, NCPoly):
        entries = [qmat_or_poly]
    else:
        entries = [p for row in qmat_or_poly.rows for p in row]
    for p in entries:
        cert = ideal.membership(p)
        assert cert.is_member, cert


# -- characteristic elements ---------------------------------------------------

def test_a1_calibration_anchor(rtt2, re2):
    expect = gen(0, 0).scale(qp(-5)) + gen(1, 1).scale(qp(-1))
    assert rtt2.a_elem(1) == expect
    assert re2.a_elem(1) == expect
    assert rtt2.p_elem(1) == expect


def test_p0_closed_form(rtt2):
    mu = rtt2.r_ctx.mu_scalar
    expect = (qp(1) - mu) * (qp(-1) + mu) / LAMBDA
    assert rtt2.p_elem(0) == NCPoly.constant(QQ, expect)
    # mu = -q^-3 makes this (q^4+1)/q^5
    assert expect == (qp(4) + ONE) * qp(-5)


def test_sp4_a1(rtt4):
    expect = (gen(0, 0).scale(qp(-9)) + gen(1, 1).scale(qp(-7))
              + gen(2, 2).scale(qp(-3)) + gen(3, 3).scale(qp(-1)))
    assert rtt4.a_elem(1) == expect
    assert rtt4.epsilon_elements(2)[1] == expect


# -- defining relations ---------------------------------------------------------

def sp2_rtt_printed_relations():
    rels = []
    for i in range(2):  # q^2 X_{i2} X_{i1} = X_{i1} X_{i2} rows / columns
        rels.append((gen(i, 1) * gen(i, 0)).scale(qp(2)) - gen(i, 0) * gen(i, 1))
        rels.append((gen(1, i) * gen(0, i)).scale(qp(2)) - gen(0, i) * gen(1, i))
    rels.append(gen(1, 0) * gen(0, 1) - gen(0, 1) * gen(1, 0))
    rels.append(gen(1, 1) * gen(0, 0) - gen(0, 0) * gen(1, 1)
                - (gen(0, 1) * gen(1, 0)).scale(qp(-2) - qp(2)))
    return rels


def test_sp2_rtt_relations_span(ideal2):
    spec_example = (gen(1, 1) * gen(1, 0)).scale(qp(2)) - gen(1, 0) * gen(1, 1)
    assert ideal2.membership(spec_example).status == "member"
    for rel in sp2_rtt_printed_relations():
        assert ideal2.membership(rel).status == "member"
    assert ideal2.rank_of_degree(2)["rank"] == 6


def sp2_re_printed_relations():
    c = ONE - qp(-4)
    rels = []
    for (i, j) in [(0, 1), (1, 0), (1, 1)]:  # X_ij X_11 = q^{4(j-i)} X_11 X_ij
        rels.append(gen(i, j) * gen(0, 0)
                    - (gen(0, 0) * gen(i, j)).scale(qp(4 * (j - i))))
    rels.append(gen(1, 1) * gen(0, 1) - gen(0, 1) * gen(1, 1)
                - (gen(0, 0) * gen(0, 1)).scale(c))
    rels.append(gen(1, 1) * gen(1, 0) - gen(1, 0) * gen(1, 1)
                + (gen(0, 0) * gen(1, 0)).scale(qp(-4) * c))
    rels.append(gen(1, 0) * gen(0, 1) - gen(0, 1) * gen(1, 0)
                - (gen(0, 0) * (gen(0, 0) - gen(1, 1))).scale(c))
    return rels


def test_sp2_re_relations_span(ideal2_re):
    for rel in sp2_re_printed_relations():
        assert ideal2_re.membership(rel).status == "member"
    assert ideal2_re.rank_of_degree(2)["rank"] == 6


def test_sp4_rank_130(ideal4):
    assert ideal4.rank_of_degree(2)["rank"] == 130


# -- two-contraction ------------------------------------------------------------

def test_g_rtt_sp2_forms(rtt2, ideal2):
    half = ONE / (qp(2) + qp(-2))
    first = ((gen(0, 0) * gen(1, 1)).scale(qp(-2))
             + (gen(1, 1) * gen(0, 0)).scale(qp(2))
             - gen(0, 1) * gen(1, 0) - gen(1, 0) * gen(0, 1)
             ).scale(qp(-6) * half)
    assert rtt2.g == first
    second = (gen(0, 0) * gen(1, 1)
              - (gen(0, 1) * gen(1, 0)).scale(qp(2))).scale(qp(-6))
    assert_member(ideal2, rtt2.g - second)


def test_g_re_sp2_forms(re2, ideal2_re):
    half = ONE / (qp(2) + qp(-2))
    first = (gen(0, 0) * gen(1, 1) + gen(1, 1) * gen(0, 0)
             - (gen(0, 0) * gen(0, 0)).scale(ONE - qp(-4))
             - gen(0, 1) * gen(1, 0)
             - (gen(1, 0) * gen(0, 1)).scale(qp(4))).scale(qp(-4) * half)
    assert re2.g == first
    second = (gen(0, 0) * gen(1, 1)
              - (gen(0, 0) * gen(0, 0)).scale(ONE - qp(-4))
              - gen(0, 1) * gen(1, 0)).scale(qp(-2))
    assert_member(ideal2_re, re2.g - second)


def test_two_contraction_residuals(rtt2, ideal2, rtt4, ideal4):
    for ctx, ideal in [(rtt2, ideal2), (rtt4, ideal4)]:
        for op in ctx.two_contraction_residuals():
            for val in op.data.values():
                assert_member(ideal, val)


# -- trace maps ------------------------------------------------------------------

def test_phi_display_sp2(rtt2):
    m = rtt2.m_matrix
    phi = rtt2.phi(m)
    assert phi.rows[0][0] == gen(0, 0).scale(qp(-4)) + gen(1, 1).scale(ONE - qp(-4))
    assert phi.rows[0][1] == gen(0, 1).scale(qp(-6))
    assert phi.rows[1][0] == gen(1, 0).scale(qp(-2))
    assert phi.rows[1][1] == gen(1, 1)


def test_pi_display_sp2_from_linear_identity(rtt2):
    # pi(M) must solve M - q I a1 + q^2 pi(M) = 0 identically, which pins
    # every entry of pi(M); assert the resulting closed form.
    m = rtt2.m_matrix
    pi = rtt2.pi(m)
    a1 = rtt2.a_elem(1)
    expect = (QMatrix.identity(QQ, 2).mul_poly_right(a1).scale(qp(-1))
              - m.scale(qp(-2)))
    assert pi == expect
    assert pi.rows[0][0] == gen(0, 0).scale(qp(-6) - qp(-2)) + gen(1, 1).scale(qp(-2))
    assert pi.rows[1][1] == gen(0, 0).scale(qp(-6))


def test_pi_is_f_independent(rtt2, re2, rtt4):
    assert rtt2.map_tensor("pi") == re2.map_tensor("pi")
    r4 = build_standard_sp(2)
    re4 = AlgebraContext(r4, r4, label="sp4-re")
    assert rtt4.map_tensor("pi") == re4.map_tensor("pi")


def test_pi_matches_composed_map(rtt2, re2, rtt4):
    for ctx in (rtt2, re2, rtt4):
        assert ctx.map_tensor("pi") == ctx.pi_composed_tensor()


def test_pi_trace_order_variants(rtt2):
    rc = rtt2.r_ctx
    for c in range(2):
        for d in range(2):
            u = matrix_unit(QQ, 2, c, d).embed(1, 2)
            op1 = (rc.r @ u @ rc.k_op).r_trace(rc.d_r, 2)
            op2 = (rc.k_op @ u @ rc.r).r_trace(rc.d_r, 2)
            assert op1 == op2


def test_pi_pi_inv_identity(rtt2, rtt4):
    for ctx in (rtt2, rtt4):
        m = ctx.m_matrix
        assert ctx.apply_map("pi_inv", ctx.pi(m)) == m
        assert ctx.pi(ctx.apply_map("pi_inv", m)) == m


def test_phi_xi_inverses(rtt2, rtt4):
    for ctx in (rtt2, rtt4):
        m = ctx.m_matrix
        assert ctx.phi_inv(ctx.phi(m)) == m
        assert ctx.phi(ctx.phi_inv(m)) == m
        assert ctx.xi_inv(ctx.xi(m)) == m
        assert ctx.xi(ctx.xi_inv(m)) == m


def test_re_phi_is_identity(re2):
    m = re2.m_matrix
    assert re2.phi(m) == m
    assert re2.phi_inv(m) == m


def test_g_conjugators_identity_for_rtt(rtt2, rtt4):
    for ctx in (rtt2, rtt4):
        g_mat, g_inv = ctx.g_conjugators()
        ident = QMatrix.identity(QQ, ctx.dim)
        assert g_mat == ident and g_inv == ident


def test_d_rf_factorization(rtt2, re2, rtt4):
    for ctx in (rtt2, re2, rtt4):
        assert ctx.d_rf == ctx.d_rf_factorized()


def test_xi_composite_calibration(rtt2):
    # pi = mu phi^-1 xi pinned against the displayed phi/pi pair:
    # phi(pi(M)) must equal mu xi(M).
    m = rtt2.m_matrix
    mu = rtt2.r_ctx.mu_scalar
    assert rtt2.phi(rtt2.pi(m)) == rtt2.xi(m).scale(mu)


# -- star products ----------------------------------------------------------------

def test_star_with_identity(rtt2):
    m = rtt2.m_matrix
    ident = QMatrix.identity(QQ, 2)
    assert rtt2.star_multiply(m, ident) == m
    assert rtt2.star_power(0) == ident
    assert rtt2.star_power(1) == m


def test_star_power_two(rtt2, re2):
    m = rtt2.m_matrix
    assert rtt2.star_power(2) == m @ rtt2.phi(m)
    # phi = id for RE, so star powers are plain matrix powers
    l = re2.m_matrix
    assert re2.star_power(2) == l @ l


def test_star_power_degrees(rtt2):
    for n in (2, 3):
        for row in rtt2.star_power(n).rows:
            for p in row:
                assert p.is_zero() or list(p.graded_parts()) == [n]


def test_braid_power_matches_star_power(rtt2):
    # M^{(empty)} = M, and the bridge word sigma_1 gives the star square.
    assert (rtt2.m_power((), 1) - rtt2.m_matrix).is_zero()
    w2, n2 = star_word((), 1, (), 1)
    assert w2 == ((1, 1),)
    assert (rtt2.m_power(w2, n2) - rtt2.star_power(2)).is_zero()
    w3, n3 = star_word((), 1, w2, n2)
    assert w3 == ((2, 1), (1, 1))
    assert (rtt2.m_power(w3, n3) - rtt2.star_power(3)).is_zero()


def test_star_associativity_on_powers(rtt2):
    # (M*M)*M and M*(M*M) compose to the braid words
    # sigma_1 sigma_2 sigma_1 sigma_2^-1 and sigma_2 sigma_1, which agree.
    sq, n2 = star_word((), 1, (), 1)
    left, nl = star_word(sq, n2, (), 1)
    right, nr = star_word((), 1, sq, n2)
    assert nl == nr == 3
    assert (rtt2.m_power(left, nl) - rtt2.m_power(right, nr)).is_zero()


def test_t_map_on_identity(rtt2):
    mu = rtt2.r_ctx.mu_scalar
    p0 = (qp(1) - mu) * (qp(-1) + mu) / LAMBDA
    c = p0 - (ONE - mu * mu) / LAMBDA
    ident = QMatrix.identity(QQ, 2)
    assert rtt2.xi(ident) == ident.map_entries(lambda p: p.scale(c))
    assert rtt2.t_map(ident) == rtt2.m_matrix.map_entries(lambda p: p.scale(c))


def test_t_map_degree(rtt2):
    for n in (1, 2):
        out = rtt2.t_map(rtt2.star_power(n))
        for row in out.rows:
            for p in row:
                assert p.is_zero() or list(p.graded_parts()) == [n + 1]


# -- pi star powers ----------------------------------------------------------------

def test_pi_star_power_one(rtt2):
    m = rtt2.m_matrix
    mu = rtt2.r_ctx.mu_scalar
    assert rtt2.pi_star_power(1) == rtt2.pi(m)
    assert rtt2.pi_star_power(1) == rtt2.phi_inv(rtt2.xi(m)).scale(mu)


def test_pi_star_inverse_relation(rtt2, ideal2):
    # pi(M) * M = g I modulo the ideal
    m = rtt2.m_matrix
    g_ident = QMatrix.identity(QQ, 2).mul_poly_right(rtt2.g)
    assert_member(ideal2, rtt2.pi_star(m) - g_ident)


# -- descendants -------------------------------------------------------------------

def test_descendants_first_column(rtt2):
    for m in (0, 1, 2):
        assert rtt2.descendant_a(m, 1) == rtt2.star_power(m + 1)
    assert rtt2.descendant_a(-1, 1) == QMatrix.identity(QQ, 2)
    zero = QMatrix.zero(QQ, 2)
    assert rtt2.descendant_a(1, 0) == zero
    assert rtt2.descendant_b(1, 0) == zero


def test_descendant_b_closed_form(rtt2, ideal2):
    mu_inv = rtt2.r_ctx.mu_scalar.inv()
    g = rtt2.g
    b11 = rtt2.descendant_b(1, 1)
    expect = QMatrix.identity(QQ, 2).mul_poly_right(g).scale(mu_inv)
    assert_member(ideal2, b11 - expect)
    b21 = rtt2.descendant_b(2, 1)
    expect2 = rtt2.m_matrix.mul_poly_right(g).scale(mu_inv)
    assert_member(ideal2, b21 - expect2)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("i", [0, 1])
def test_recursion_residuals(rtt2, ideal2, m, i):
    res1, res2 = rtt2.recursion_residuals(m, i)
    assert_member(ideal2, res1)
    assert_member(ideal2, res2)


@pytest.mark.parametrize("m,i", [(-1, 1), (0, 2)])
def test_expansion_a(rtt2, ideal2, m, i):
    assert_member(ideal2, rtt2.expansion_residual_a(m, i))


@pytest.mark.parametrize("m,i", [(1, 1), (2, 2)])
def test_expansion_b(rtt2, ideal2, m, i):
    assert_member(ideal2, rtt2.expansion_residual_b(m, i))


def test_cutting(rtt2):
    assert rtt2.boundary_a(2).is_zero()
    assert rtt2.cutting_dependency(0, 1).is_zero()
    assert rtt2.cutting_dependency(1, 1).is_zero()


@pytest.fixture(scope="module")
def re4():
    r = build_standard_sp(2)
    return AlgebraContext(r, r, label="sp4-re")


@pytest.mark.parametrize("name,k", [("rtt2", 1), ("re2", 1), ("rtt4", 2),
                                    ("re4", 2)])
def test_boundary_above_height_needs_no_chain(request, monkeypatch, name, k):
    # a^(k+1) vanishes for Sp(2k), so A^(-1,k+1) is zero before any chain
    ctx = request.getfixturevalue(name)

    def no_chain(*args, **kwargs):
        raise AssertionError("chain_product called")

    monkeypatch.setattr(ctx, "chain_product", no_chain)
    assert ctx.boundary_a(k + 1).is_zero()
    assert ctx.wedge_power(k + 1).is_zero()


@pytest.mark.parametrize("name", ["rtt2", "rtt4"])
def test_chain_product_equals_identity_started(request, name):
    ctx = request.getfixturevalue(name)
    for n in (1, 2, 3):
        for start in range(1, n + 2):
            ref = TensorOperator.identity(ctx.ncdom, ctx.dim, n)
            for x in ctx.mbar_ops(n)[start - 1:]:
                ref = ref @ x
            assert ctx.chain_product(n, start) == ref


# -- characteristic identities -------------------------------------------------------

def test_ch_display_sp2(rtt2, ideal2):
    a1, g = rtt2.a_elem(1), rtt2.g
    hand = (rtt2.star_power(2)
            - rtt2.m_matrix.mul_poly_right(a1).scale(qp(1))
            + QMatrix.identity(QQ, 2).mul_poly_right(g).scale(qp(2)))
    ch = rtt2.ch_identity(1)
    assert ch == hand
    assert_member(ideal2, ch)


def test_ch_display_sp2_re(re2, ideal2_re):
    l = re2.m_matrix
    hand = (l @ l
            - l.mul_poly_right(re2.a_elem(1)).scale(qp(1))
            + QMatrix.identity(QQ, 2).mul_poly_right(re2.g).scale(qp(2)))
    ch = re2.ch_identity(1)
    assert ch == hand
    assert_member(ideal2_re, ch)


def test_parent_identity_vanishes_freely(rtt2, re2):
    assert rtt2.parent_identity(1).is_zero()
    assert re2.parent_identity(1).is_zero()


def test_ch_equals_m_star_parent_k1(rtt2, ideal2):
    parent = rtt2.parent_identity(1)
    assert rtt2.star_multiply(rtt2.star_power(1), parent).is_zero()
    assert_member(ideal2, rtt2.ch_identity(1))


def test_epsilon_tower_sp4(rtt4):
    eps = rtt4.epsilon_elements(2)
    g = rtt4.g
    assert eps[0] == NCPoly.one(QQ)
    assert eps[2] == rtt4.a_elem(2) + g
    assert eps[3] == rtt4.a_elem(1) * g
    assert eps[4] == g * g


def sp4_eps2_printed():
    def G(a, b):
        return gen(a, b)
    return ((G(0, 0) * G(1, 1) - (G(0, 1) * G(1, 0)).scale(qp(1))).scale(qp(-16))
            + (G(2, 2) * G(3, 3) - (G(2, 3) * G(3, 2)).scale(qp(1))).scale(qp(-4))
            + ((G(2, 2) + G(3, 3).scale(qp(2)))
               * (G(0, 0) + G(1, 1).scale(qp(2)))).scale(qp(-12))
            - ((G(2, 0) * G(0, 2)).scale(qp(-1))
               - (G(2, 0) * G(1, 3)).scale(qp(1) - qp(-1))
               + G(2, 1) * G(1, 2) + G(3, 0) * G(0, 3)
               + (G(3, 1) * G(1, 3)).scale(qp(3))).scale(qp(-12)))


def test_epsilon2_printed_form_sp4(rtt4, ideal4):
    eps2 = rtt4.epsilon_elements(2)[2]
    assert_member(ideal4, eps2 - sp4_eps2_printed())


def test_parent_display_sp4(rtt4):
    m = rtt4.m_matrix
    eps = rtt4.epsilon_elements(2)
    hand = (rtt4.star_power(2)
            - m.mul_poly_right(eps[1]).scale(qp(1))
            + QMatrix.identity(QQ, 4).mul_poly_right(eps[2]).scale(qp(2))
            - rtt4.pi(m).mul_poly_right(eps[1]).scale(qp(3))
            + rtt4.pi_star_power(2).scale(qp(4)))
    assert rtt4.parent_identity(2) == hand


def test_ch_display_sp4(rtt4):
    m = rtt4.m_matrix
    eps = rtt4.epsilon_elements(2)
    g = rtt4.g
    hand = (rtt4.star_power(4)
            - rtt4.star_power(3).mul_poly_right(eps[1]).scale(qp(1))
            + rtt4.star_power(2).mul_poly_right(eps[2]).scale(qp(2))
            - m.mul_poly_right(eps[1] * g).scale(qp(3))
            + QMatrix.identity(QQ, 4).mul_poly_right(g * g).scale(qp(4)))
    assert rtt4.ch_identity(2) == hand


# -- invariants ----------------------------------------------------------------------

def test_characteristic_subalgebra_commutes(rtt2, ideal2):
    words = [
        rtt2.a_elem(1),
        rtt2.char_braid([(1, 1)], 2),
        rtt2.char_braid([(1, -1)], 2),
        rtt2.char_braid([(1, 1), (2, 1)], 3),
        rtt2.char_braid([(2, 1), (1, 1)], 3),
        rtt2.char_braid([(1, 1), (2, 1), (1, 1)], 3),
        rtt2.g,
    ]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            assert_member(ideal2, words[i] * words[j] - words[j] * words[i])


@pytest.mark.parametrize("n", [1, 2])
def test_g_permutation(rtt2, ideal2, re2, ideal2_re, n):
    for ctx, ideal in [(rtt2, ideal2), (re2, ideal2_re)]:
        assert_member(ideal, ctx.g_permutation_residual(ctx.star_power(n)))


def test_at_point_reduction(rtt2):
    pt = sample_points(17, count=1, bound=12)[0]
    ctx_p = rtt2.at_point(pt)
    assert ctx_p.parent_identity(1).is_zero()
    assert ctx_p.a_elem(1) == rtt2.a_elem(1).reduce_at(pt)


# -- evaluate first: k = 2 identities at points and as span bounds -----------------

# each identity as the list of the entries the CLI's build yields
K2_IDENTITIES = {"ch": lambda ctx: list(ctx.ch_entries(2)),
                 "parent": lambda ctx: list(ctx.parent_entries(2)),
                 "recursions": lambda ctx: list(ctx.recursion_entries())}


@pytest.fixture(scope="module")
def exact_k2(rtt4):
    return {name: build(rtt4) for name, build in K2_IDENTITIES.items()}


@pytest.mark.parametrize("name", sorted(K2_IDENTITIES))
def test_span_build_bounds_exact_identity(rtt4, ideal4, exact_k2, name):
    exact = exact_k2[name]
    bound = K2_IDENTITIES[name](rtt4.over(SpanDomain()))
    assert len(bound) == len(exact)
    for exact_p, bound_p in zip(exact, bound):
        assert bound_p.degree() >= exact_p.degree()
        for w, c in exact_p.terms.items():
            assert bound_p.terms[w].degree_span() >= c.degree_span()
    span = max(c.degree_span() for p in bound for c in p.terms.values())
    assert span >= max(ideal4._poly_span(p) for p in exact)


@pytest.mark.parametrize("name", sorted(K2_IDENTITIES))
def test_point_build_is_reduction_of_exact_identity(rtt4, exact_k2, name):
    pt = sample_points(5, count=1, bound=40)[0]
    at_point = K2_IDENTITIES[name](rtt4.at_point(pt))
    assert at_point == [p.reduce_at(pt) for p in exact_k2[name]]


PAIRS = {"rtt": lambda r: flip_context(QQ, r.dim), "re": lambda r: r}


# the operators each RMatrixContext derives from its R
DERIVED = ("r_inv", "k_op", "psi", "d_r", "d_rinv")


def forbid_elimination(monkeypatch):
    """Make every builder of R^-1, K, Psi, D_R, D_R^-1, d_rf and G raise."""
    def rebuilt(*args):
        raise AssertionError("a derived operator was rebuilt")

    for mod, name in ((tensor, "invert_arity1"), (tensor, "invert_arity2"),
                      (tensor, "solve_skew_inverse"),
                      (rmatrix, "contractor"),
                      (rmatrix, "compute_g_operator"),
                      (qma, "compute_g_operator")):
        monkeypatch.setattr(mod, name, rebuilt)


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_mapped_context_reuses_what_is_built(monkeypatch, pair):
    """The point and span copies of a fresh context get every derived
    operator, each in their own domain, and build none of them."""
    r = build_standard_sp(1)
    ctx = AlgebraContext(r, PAIRS[pair](r))
    pt = sample_points(5, count=1, bound=40)[0]
    point, span = ctx.at_point(pt), ctx.over(SpanDomain())
    forbid_elimination(monkeypatch)
    exact = ctx.parent_identity(2)
    assert point.parent_identity(2) == exact.over(FpDomain(pt))
    assert len(span.parent_identity(2).entries()) == len(exact.entries())
    for copy, dom in ((point, FpDomain), (span, SpanDomain)):
        for c in (copy.r_ctx, copy.f_ctx):
            assert all(isinstance(getattr(c, name).dom, dom)
                       for name in DERIVED)
        assert isinstance(copy.d_rf.dom, dom)
        assert all(isinstance(m.dom, dom) for m in copy.g_conjugators())


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_span_context_builds_eliminations_over_qq_first(monkeypatch, pair):
    r = build_standard_sp(1)
    ctx = AlgebraContext(r, PAIRS[pair](r))
    span = ctx.over(SpanDomain())
    forbid_elimination(monkeypatch)
    for c in (ctx.r_ctx, ctx.f_ctx):
        assert all(getattr(c, name).dom is QQ for name in DERIVED)
    assert ctx.d_rf.dom is QQ
    assert all(m.dom is QQ for m in ctx.g_conjugators())
    assert span.parent_identity(2).entries()


def test_span_operators_do_not_depend_on_build_history():
    """Each derived operator over spans has the same bounds whether or not
    the exact context had built it before `over` ran."""
    def span_fields(op):
        return {key: (v.lo, v.hi, v.atoms, v.den)
                for key, v in op.data.items()}

    fresh = build_standard_sp(2).over(SpanDomain())
    for name in DERIVED:
        built = build_standard_sp(2)
        getattr(built, name)
        assert (span_fields(getattr(built.over(SpanDomain()), name))
                == span_fields(getattr(fresh, name))), name


def test_evaluate_first_ch_matches_exact_build(rtt4, ideal4, exact_k2):
    cert = ideal4.identity_membership(rtt4, K2_IDENTITIES["ch"], 4, seed=3,
                                      min_points=3)
    polys = [p for p in exact_k2["ch"] if p]
    exact = ideal4.membership_family(
        lambda pt: [p.reduce_at(pt) for p in polys], 4,
        max(ideal4._poly_span(p) for p in polys), entries=len(polys),
        seed=3, min_points=3)
    assert (cert.status, cert.kind) == (exact.status, exact.kind)
    assert cert.status == "probable-member"
    assert len(cert.points) == len(exact.points) == 3
    # the union over 16 entries of a bound that uses the span-build span
    assert exact.bound <= cert.bound < FAILURE_TARGET


# -- in-place builds against the chained formula -------------------------------------
#
# The formulas below are the ones the builds replaced: one QMatrix per term,
# chained with mul_poly_right, scale and +.  Over SpanDomain they must give
# the same Span in every field, as Span sums and products are associative
# and commutative and products distribute over sums, so no bound can move.

def chained_matmul(x, y):
    n = x.size
    out = QMatrix.zero(x.dom, n)
    for a in range(n):
        for b in range(n):
            acc = NCPoly.zero(x.dom)
            for c in range(n):
                acc = acc + x.rows[a][c] * y.rows[c][b]
            out.rows[a][b] = acc
    return out


def chained_apply_map(ctx, kind, nmat):
    out = QMatrix.zero(ctx.dom, ctx.dim)
    for (c, d), cell in ctx.map_tensor(kind).items():
        for (a, b), t in cell.items():
            out.rows[a][b] = out.rows[a][b] + nmat.rows[c][d].scale(t)
    return out


def chained_eps(ctx, k):
    g_pows = [NCPoly.one(ctx.dom)]
    for _ in range(k):
        g_pows.append(g_pows[-1] * ctx.g)
    eps = []
    for i in range(k + 1):
        acc = NCPoly.zero(ctx.dom)
        for j in range(i // 2 + 1):
            acc = acc + ctx.a_elem(i - 2 * j) * g_pows[j]
        eps.append(acc)
    return eps + [eps[k - i] * g_pows[i] for i in range(1, k + 1)]


def alt(i, e=None):
    c = qp(i if e is None else e)
    return -c if i % 2 else c


def chained_ch(ctx, k):
    eps = chained_eps(ctx, k)
    out = QMatrix.zero(ctx.dom, ctx.dim)
    for i in range(2 * k + 1):
        term = ctx.star_power(2 * k - i).mul_poly_right(eps[i])
        out = out + term.scale(ctx.dom.from_scalar(alt(i)))
    return out


def chained_parent(ctx, k):
    eps = chained_eps(ctx, k)
    out = QMatrix.zero(ctx.dom, ctx.dim)
    for i in range(k + 1):
        term = ctx.star_power(k - i).mul_poly_right(eps[i])
        out = out + term.scale(ctx.dom.from_scalar(alt(i)))
    for i in range(k):
        term = ctx.pi_star_power(k - i).mul_poly_right(eps[i])
        out = out + term.scale(ctx.dom.from_scalar(alt(i, 2 * k - i)))
    return out


def chained_expansion_residual_b(ctx, m, i):
    dom = ctx.dom
    mu = ctx.r_ctx.mu_scalar
    den = ONE + mu * qp(2 * i - 3)
    inner_c = qp(-1) * (qp(-2) - ONE) / den
    g_pows = [NCPoly.one(dom)]
    for _ in range(i):
        g_pows.append(g_pows[-1] * ctx.g)
    acc = QMatrix.zero(dom, ctx.dim)
    for j in range(i):
        term = ctx.star_power(m - i + j).mul_poly_right(g_pows[i - j]).scale(
            dom.from_scalar(mu.inv() * qp(-2 * j)))
        inner = QMatrix.zero(dom, ctx.dim)
        q2g = ctx.g.scale(dom.from_scalar(qp(2)))
        gp = NCPoly.one(dom)
        for r in range(1, i - j):
            gp = gp * q2g
            inner = inner + ctx.star_power(
                m + i - j - 2 * r).mul_poly_right(gp)
        term = term + inner.scale(dom.from_scalar(inner_c))
        term = term.mul_poly_right(ctx.a_elem(j))
        acc = acc + term.scale(dom.from_scalar(alt(j)))
    if (i - 1) % 2 == 1:
        acc = QMatrix.zero(dom, ctx.dim) - acc
    return ctx.descendant_b(m, i) - acc


def poly_fields(p):
    """The terms of p, each Span coefficient as its four fields."""
    return {w: (c.lo, c.hi, c.atoms, c.den) if isinstance(c, Span) else c
            for w, c in p.terms.items()}


def fields(qmat):
    return [[poly_fields(p) for p in row] for row in qmat.rows]


def domain_views(ctx):
    """ctx over Q(q), at a prime point, at a joint point and over spans."""
    pts = sample_points(5, 3, point_bound(ctx.dim))
    return {"qq": ctx, "prime": ctx.at_point(pts[0]),
            "joint": ctx.at_point(joint_point(pts)),
            "span": ctx.over(SpanDomain())}


@pytest.fixture(scope="module", params=[(1, "rtt"), (1, "re"), (2, "rtt"),
                                        (2, "re")],
                ids=lambda kp: f"k{kp[0]}-{kp[1]}")
def views(request, rtt2, re2, rtt4):
    k, pair = request.param
    if k == 2 and pair == "re":
        r = build_standard_sp(2)
        ctx = AlgebraContext(r, r, label="sp4-re")
    else:
        ctx = {(1, "rtt"): rtt2, (1, "re"): re2, (2, "rtt"): rtt4}[k, pair]
    return k, domain_views(ctx)


@pytest.mark.parametrize("dom", ["qq", "prime", "joint", "span"])
def test_in_place_builds_equal_chained_formula(views, dom):
    k, by_dom = views
    ctx = by_dom[dom]
    assert fields(ctx.ch_identity(k)) == fields(chained_ch(ctx, k))
    assert fields(ctx.parent_identity(k)) == fields(chained_parent(ctx, k))
    for m, i in ((1, 1), (2, 2)):
        assert fields(ctx.expansion_residual_b(m, i)) == fields(
            chained_expansion_residual_b(ctx, m, i))
    assert list(map(poly_fields, ctx.epsilon_elements(k))) == list(
        map(poly_fields, chained_eps(ctx, k)))


@pytest.mark.parametrize("dom", ["qq", "prime", "joint", "span"])
def test_in_place_matmul_and_maps_equal_chained_formula(views, dom):
    _, by_dom = views
    ctx = by_dom[dom]
    m, m2 = ctx.m_matrix, ctx.star_power(2)
    assert fields(m2 @ m) == fields(chained_matmul(m2, m))
    for kind in ("phi", "xi", "pi", "phi_inv"):
        assert fields(ctx.apply_map(kind, m2)) == fields(
            chained_apply_map(ctx, kind, m2))


# -- block calibration maps -----------------------------------------------------------

def generic_block():
    return [[gen(0, 0), gen(0, 1)], [gen(1, 0), gen(1, 1)]]


def test_sigma_alpha_beta_identities():
    x = generic_block()
    assert qmb.block_sigma(qmb.block_sigma(x, Q), QINV) == x
    assert qmb.block_alpha(qmb.block_alpha(x, Q, +1), QINV, +1) == x
    assert qmb.block_alpha(qmb.block_alpha(x, Q, -1), QINV, -1) == x
    lhs = qmb.block_beta(qmb.block_alpha(x, QINV, +1), Q)
    rhs = qmb.block_scale(qmb.block_alpha(qmb.block_beta(x, QINV), Q, +1),
                          qp(-4))
    assert lhs == rhs


def test_sp4_xi_block_display(rtt4):
    m = rtt4.m_matrix
    blk = {c: qmb.block_of(m, c) for c in "ABCD"}
    expect = qmb.assemble_blocks(QQ, [
        [qmb.block_scale(qmb.block_sigma(blk["D"], Q), -qp(-5)),
         qmb.block_scale(qmb.block_sigma(blk["B"], Q), qp(-8))],
        [qmb.block_scale(qmb.block_sigma(blk["C"], Q), qp(-2)),
         qmb.block_scale(qmb.block_sigma(blk["A"], Q), -qp(-5))],
    ])
    assert rtt4.xi(m) == expect


def test_sp4_phi_block_display(rtt4):
    m = rtt4.m_matrix
    blk = {c: qmb.block_of(m, c) for c in "ABCD"}
    top_left = qmb.block_add(
        qmb.block_scale(qmb.block_alpha(blk["A"], Q, +1), qp(-6)),
        qmb.block_scale(qmb.block_beta(blk["D"], Q), ONE - qp(-2)))
    expect = qmb.assemble_blocks(QQ, [
        [top_left, qmb.block_scale(qmb.block_alpha(blk["B"], Q, -1), qp(-7))],
        [qmb.block_scale(qmb.block_alpha(blk["C"], Q, -1), qp(-1)),
         qmb.block_alpha(blk["D"], Q, +1)],
    ])
    assert rtt4.phi(m) == expect


def test_sp4_pi_block_display(rtt4):
    m = rtt4.m_matrix
    blk = {c: qmb.block_of(m, c) for c in "ABCD"}

    def a_plus(x):
        return qmb.block_alpha(qmb.block_sigma(x, Q), QINV, +1)

    def a_minus(x):
        return qmb.block_alpha(qmb.block_sigma(x, Q), QINV, -1)

    def b_comp(x):
        return qmb.block_beta(qmb.block_sigma(x, Q), QINV)

    expect = qmb.assemble_blocks(QQ, [
        [qmb.block_add(qmb.block_scale(a_plus(blk["D"]), qp(-4)),
                       qmb.block_scale(b_comp(blk["A"]),
                                       -(ONE - qp(-2)) * qp(-8))),
         qmb.block_scale(a_minus(blk["B"]), -qp(-6))],
        [qmb.block_scale(a_minus(blk["C"]), -qp(-6)),
         qmb.block_scale(a_plus(blk["A"]), qp(-10))],
    ])
    assert rtt4.pi(m) == expect


def test_sp4_map_inverses_are_q_bar(rtt4):
    m = rtt4.m_matrix

    def bar_matrix(qmat):
        return qmat.map_entries(
            lambda p: p.map_coefficients(QQ, bar))

    assert rtt4.xi_inv(m) == bar_matrix(rtt4.xi(m))
    assert rtt4.phi_inv(m) == bar_matrix(rtt4.phi(m))
