"""Spectral-variable algebra, characteristic images, and the Newton,
Wronski, and power-sum parameterization checks."""
from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement

import pytest

from qch import spectral as sp
from qch.scalar import LAMBDA, ONE, QScalar, ZERO, lp_mul, q_int


def qp(e):
    return QScalar.q_power(e)


def var(k, i, power=1):
    return sp.SpectralFunction.variable(k, i, power)


# -- the chart nu_{2k+1-j} = nu_0^2 / nu_j ------------------------------------

def test_chart_pair_relation():
    # nu1 nu2 = nu0^2 at k=1
    assert var(1, 1) * var(1, 2) == var(1, 0, 2)
    # nu1^2 nu2 = nu0^2 nu1
    assert var(1, 1, 2) * var(1, 2) == var(1, 0, 2) * var(1, 1)
    # nu0 nu1 is a chart monomial; nu2 is nu0^2 nu1^-1
    assert list((var(1, 0) * var(1, 1)).num) == [(1, 1)]
    assert var(1, 2).num == {(2, -1): ONE}


def test_products_order_independent():
    rng = random.Random(20260814)
    for k in (1, 2):
        for _ in range(10):
            gens = [var(k, rng.randrange(2 * k + 1)) for _ in range(6)]
            prod1 = sp.SpectralFunction.constant(k, ONE)
            for g in gens:
                prod1 = prod1 * g
            shuffled = gens[:]
            rng.shuffle(shuffled)
            prod2 = sp.SpectralFunction.constant(k, ONE)
            for g in shuffled:
                prod2 = prod2 * g
            assert prod1 == prod2


def test_paired_monomials_on_the_chart():
    # (nu1 + nu4)(nu2 + nu3) nu1 at k=2, with nu4 = nu0^2/nu1 and
    # nu3 = nu0^2/nu2: a Laurent polynomial, denominator 1
    k = 2
    p = (var(k, 1) + var(k, 4)) * (var(k, 2) + var(k, 3)) * var(k, 1)
    assert p.num == {(0, 2, 1): ONE, (2, 2, -1): ONE, (2, 0, 1): ONE,
                     (4, 0, -1): ONE}
    assert p.den == {(0, 0, 0): ONE}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chart_images_against_sympy(k):
    # an independent expansion: sympy's, with nu_{2k+1-j} = nu_0^2 / nu_j
    sympy = pytest.importorskip("sympy")
    q, x = sympy.symbols("q X")
    chart = sympy.symbols(f"nu0:{k + 1}")
    nus = list(chart) + [chart[0] ** 2 / chart[2 * k + 1 - i]
                         for i in range(k + 1, 2 * k + 1)]

    def scalar(c):
        return (sum(v * q ** e for e, v in c.num.items())
                / sum(v * q ** e for e, v in c.den.items()))

    def same(f, expr):
        assert f.den == {(0,) * (k + 1): ONE}
        ours = sum((scalar(c) * sympy.Mul(*(g ** p for g, p in zip(chart, e)))
                    for e, c in f.num.items()), sympy.Integer(0))
        return sympy.expand(ours - expr) == 0

    def e(alphabet, i):
        return sum((sympy.Mul(*c) for c in combinations(alphabet, i)),
                   sympy.Integer(0))

    for i in range(-1, 2 * k + 2):
        assert same(sp.elementary(k, i), e(nus[1:], i) if i >= 0 else 0)
    extended = [nus[0], -nus[0]] + nus[1:]
    for i in range(2 * k + 3):
        assert same(sp.elementary_extended(k, i), e(extended, i))
    for n in range(5):
        h = sum((sympy.Mul(*c)
                 for c in combinations_with_replacement(nus[1:], n)),
                sympy.Integer(0))
        assert same(sp.complete(k, n), h)
    product = sympy.expand(sympy.Mul(*(x - q * nu for nu in nus[1:])))
    for j, c in enumerate(sp.expansion_coefficients(k)):
        assert same(c, product.coeff(x, j))


# -- characteristic images ---------------------------------------------------

def test_pi_hom_g_and_a1():
    assert sp.pi_hom(1, "g") == var(1, 0, 2)
    for k in (1, 2, 3):
        total = sp.SpectralFunction.constant(k, ZERO)
        for i in range(1, 2 * k + 1):
            total = total + var(k, i)
        assert sp.pi_hom(k, "a", 1) == total


@pytest.mark.parametrize("k", [1, 2, 3])
def test_eps_images_are_elementary(k):
    for i in range(2 * k + 1):
        assert sp.pi_hom(k, "eps", i) == sp.elementary(k, i)


def test_pi_hom_errors():
    with pytest.raises(ValueError):
        sp.pi_hom(1, "eps", 3)
    with pytest.raises(ValueError):
        sp.pi_hom(1, "b", 1)


def test_pi_hom_multiplicative_on_products():
    # images of products of {g, a_i} are order- and association-independent
    rng = random.Random(7)
    for k in (1, 2):
        symbols = [("g", 0)] + [("a", i) for i in range(1, k + 1)]
        for _ in range(5):
            picks = [symbols[rng.randrange(len(symbols))] for _ in range(4)]
            imgs = [sp.pi_hom(k, s, i) for s, i in picks]
            left = ((imgs[0] * imgs[1]) * imgs[2]) * imgs[3]
            rng.shuffle(imgs)
            right = imgs[0] * (imgs[1] * (imgs[2] * imgs[3]))
            assert left == right


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sym_identities(k):
    for i in range(0, 2 * k + 3):
        assert sp.sym_identities(k, i)


def test_wronski_anchor_h1_equals_e1():
    # first modified Wronski step: h_1 = e_1 of the extended alphabet
    for k in (1, 2, 3):
        assert sp.complete(k, 1) == sp.pi_hom(k, "a", 1)


# -- factorized expansion -----------------------------------------------------

def test_factor_expansion_k1_display():
    # (X - q nu1)(X - q nu2) = X^2 - q(nu1+nu2) X + q^2 nu0^2
    coeffs = sp.expansion_coefficients(1)
    assert coeffs[2] == sp.SpectralFunction.constant(1, ONE)
    assert coeffs[1] == (var(1, 1) + var(1, 2)).scale(-qp(1))
    assert coeffs[0] == var(1, 0, 2).scale(qp(2))


@pytest.mark.parametrize("k", [1, 2, 3], ids=lambda k: f"{k}-exact")
def test_factor_check(k):
    assert sp.factor_check(k) == {"ok": True, "checked": 2 * k + 1}


def test_factor_check_names_a_wrong_coefficient(monkeypatch):
    coeffs = sp.expansion_coefficients(3)
    coeffs[2] = coeffs[2] + var(3, 0, 4)
    monkeypatch.setattr(sp, "expansion_coefficients", lambda k: coeffs)
    assert sp.factor_check(3) == {"ok": False, "i": 4}


# -- rational layer -----------------------------------------------------------

def test_rational_cross_multiplication_equality():
    k = 1
    nu0 = sp.SpectralFunction.variable(k, 0)
    nu1 = sp.SpectralFunction.variable(k, 1)
    lhs = (nu0 * nu0 - nu1 * nu1) / (nu0 - nu1)
    assert lhs == nu0 + nu1
    assert not lhs == nu0 - nu1
    # the equal-denominator paths of + and == agree with cross-multiplying
    assert nu0 / nu1 + nu1 / nu1 == (nu0 + nu1) / nu1
    assert nu0 / nu1 == (nu0 * nu0) / (nu0 * nu1)
    assert not nu0 / nu1 == nu1 / nu1


def test_rational_nu_pair_substitution():
    k = 2
    nu3 = sp.SpectralFunction.variable(k, 3)
    nu2 = sp.SpectralFunction.variable(k, 2)
    nu0 = sp.SpectralFunction.variable(k, 0)
    assert nu3 * nu2 == nu0 * nu0


def test_laurent_reads_negative_exponents():
    assert sp._laurent(QScalar.laurent({-3: 2, 0: -1, 2: 5})) == \
        {-3: 2, 0: -1, 2: 5}
    assert sp._laurent((ONE - qp(2)) / LAMBDA) == {1: -1}
    assert sp._laurent(ZERO) == {}
    for c in (QScalar({-1: 3}, {0: 2}), (qp(1) + ONE) / (qp(1) - ONE),
              ONE / LAMBDA):
        with pytest.raises(ValueError):
            sp._laurent(c)


def test_sample_chart_distinct_and_deterministic():
    for k in (1, 2, 3):
        c1 = sp.sample_chart(k, random.Random(42))
        c2 = sp.sample_chart(k, random.Random(42))
        assert c1 == c2
        nus = spectral_values(k, c1)
        strs = [str(v) for v in nus[1:]]
        assert len(set(strs)) == 2 * k


# Oracles for the d_i: each of d_i and d-hat_i formed as its own product
# of 2k - 1 factors, independent of sp.pair_factors and sp._cleared_d;
# on the chart variables, and at exact values.

def d_coefficient(k, i, hat=False):
    """The rational d_i, or d-hat_i with hat=True, on the chart variables."""
    nus = [var(k, j) for j in range(2 * k + 1)]
    x, pair = nus[i], 2 * k + 1 - i
    out = sp.SpectralFunction.constant(k, ONE)
    for j in range(1, 2 * k + 1):
        if j != i:
            e = -4 if j == pair and not hat else -2
            out = out * ((x - nus[j].scale(qp(e))) / (x - nus[j]))
    return out


def d_at(k, i, nus, hat=False):
    """d_i, or d-hat_i with hat=True, at the exact spectral values nus."""
    x, pair, out = nus[i], 2 * k + 1 - i, ONE
    for j in range(1, 2 * k + 1):
        if j != i:
            e = -4 if j == pair and not hat else -2
            out = out * (x - nus[j] * qp(e)) / (x - nus[j])
    return out


def spectral_values(k, chart):
    """All values nu_0..nu_2k, as QScalars, at integer chart values."""
    nus = [QScalar.from_int(v) for v in chart] + [ZERO] * k
    for j in range(1, k + 1):
        nus[2 * k + 1 - j] = nus[0] * nus[0] / nus[j]
    return nus


def evaluate(f, chart):
    """A spectral function at integer chart values, as a QScalar."""
    def value(poly):
        acc = ZERO
        for e, c in poly.items():
            for v, power in zip(chart, e):
                if power:
                    c = c * QScalar.from_int(v) ** power
            acc = acc + c
        return acc
    return value(f.num) / value(f.den)


def powersum_param(k, n):
    """Rational image of the n-th power sum: q^{n-1} sum_i d_i nu_i^n."""
    acc = sp.SpectralFunction.constant(k, ZERO)
    for i in range(1, 2 * k + 1):
        acc = acc + d_coefficient(k, i) * var(k, i, n)
    return acc.scale(qp(n - 1))


def d_ratio(k, i, e=-4):
    """(nu_i^2 - q^e nu_0^2)/(nu_i^2 - q^-2 nu_0^2): the d-ratio at e = -4."""
    nui2, nu02 = var(k, i, 2), var(k, 0, 2)
    return (nui2 - nu02.scale(qp(e))) / (nui2 - nu02.scale(qp(-2)))


def test_cleared_d_matches_d_coefficient():
    # E d_i and E d-hat_i at the scaled point are E times the oracles
    rng = random.Random(11)
    for k in (1, 2, 3):
        chart = sp.sample_chart(k, rng)
        nus = spectral_values(k, chart)
        e, shared, pairs = sp._cleared_d(k, sp._scaled(k, chart)[1])
        for i in range(1, 2 * k + 1):
            for hat in (False, True):
                cleared = QScalar.laurent(lp_mul(shared[i - 1],
                                                 pairs[i - 1][hat]))
                value = evaluate(d_coefficient(k, i, hat=hat), chart)
                assert value == d_at(k, i, nus, hat)
                assert cleared == value * QScalar.from_int(e)
    # at k = 1 the shared product is empty: the pair factors are d and
    # d-hat on the chart variables
    for i in (1, 2):
        assert sp.pair_factors(1, i, sp._variables(1)) == (
            d_coefficient(1, i), d_coefficient(1, i, hat=True))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_d_ratio_on_pair_factors_matches_cross_multiplied(k):
    # the one-factor check agrees with the cross-multiplied d_i and
    # ratio * d-hat_i, for the true ratio and for a wrong one (q^-3)
    symbols = sp._variables(k)
    for i in range(1, 2 * k + 1):
        f, r = sp.pair_factors(k, i, symbols)
        for e, holds in ((-4, True), (-3, False)):
            ratio = d_ratio(k, i, e)
            crossed = d_coefficient(k, i) == ratio * d_coefficient(k, i, hat=True)
            assert crossed is holds
            assert (f == ratio * r) is holds


def test_powersum_param_matches_point_values():
    rng = random.Random(13)
    for k in (1, 2):
        chart = sp.sample_chart(k, rng)
        pt = sp._point_data(k, chart, 3)
        for n in (1, 2, 3):
            pr = powersum_param(k, n)
            assert evaluate(pr, chart) == descaled(pt["p"][n], pt, n)


def test_p0_closed_form():
    # p_0 = q^{-1-2k}((2k+1)_q - 1) = (q - mu)(q^{-1} + mu)/lambda
    for k in (1, 2, 3):
        mu = sp.mu_of(k)
        closed = (qp(1) - mu) * (qp(-1) + mu) / LAMBDA
        assert (qp(-1 - 2 * k) * (q_int(2 * k + 1) - ONE) - closed).is_zero()
        chart = sp.sample_chart(k, random.Random(5))
        pt = sp._point_data(k, chart, 1)
        assert descaled(pt["p"][0], pt, 0) == closed


def test_pprime0_closed_form():
    # p'_0 = (1 - mu^2 q^2)/(q - q^-1) = q^{-2k} (2k)_q
    for k in (1, 2, 3):
        mu = sp.mu_of(k)
        lhs = (ONE - mu * mu * qp(2)) / LAMBDA
        assert (lhs - qp(-2 * k) * q_int(2 * k)).is_zero()


# -- the chart relations against a Q(q) oracle -------------------------------
# The relations as evaluated in Q(q) at the unscaled chart point, with each
# d_i its own product (`d_at`): the cleared integer residuals of
# sp._point_data must be E lam^deg times these.

def point_data(k, chart, n):
    """Values of a_i, s_i, p_i and g at one chart point, in Q(q)."""
    nus = spectral_values(k, chart)
    d = [d_at(k, i, nus) for i in range(1, 2 * k + 1)]
    a = sp._sym_dp([nus[0], -nus[0]] + nus[1:], n, False, ONE)
    s = sp._sym_dp(nus[1:], n, True, ONE)
    p = [qp(-1) * sum(d[1:], d[0])]
    for m in range(1, n + 1):
        acc = ZERO
        for i in range(1, 2 * k + 1):
            acc = acc + d[i - 1] * nus[i] ** m
        p.append(qp(m - 1) * acc)
    return {"nus": nus, "a": a, "s": s, "p": p, "g": nus[0] * nus[0]}


def oracle_residuals(k, n, pt, mu):
    """(relation, m, residual) of newton-a, newton-s (m = 1..n), mod-n
    (m = 1..n) and mod-w (m = 0..n), in the checks' order."""
    a, s, p, g = pt["a"], pt["s"], pt["p"], pt["g"]
    out = []
    for m in range(1, n + 1):
        sign = ONE if m % 2 else -ONE
        lhs_a = sum((a[i] * (-qp(1)) ** i * p[m - i] for i in range(m)), ZERO)
        rhs_s = q_int(m) * s[m]
        for i in range(1, m // 2 + 1):
            lhs_a = lhs_a + sign * (mu * qp(m - 2 * i) - qp(1 - m + 2 * i)) \
                * a[m - 2 * i] * g ** i
            rhs_s = rhs_s + (mu * qp(2 * i - m) + qp(m - 2 * i - 1)) \
                * s[m - 2 * i] * g ** i
        lhs_s = sum((qp(-i) * s[i] * p[m - i] for i in range(m)), ZERO)
        out += [("newton-a", m, lhs_a - sign * q_int(m) * a[m]),
                ("newton-s", m, lhs_s - rhs_s)]
    pp = [(ONE - mu * mu * qp(2)) / LAMBDA, p[1]]
    sp_ = [s[0], s[1]]
    for i in range(2, n + 1):
        pp.append(p[i] + (qp(-2) * pp[i - 2] - p[i - 2]) * g)
        sp_.append(s[i] + sp_[i - 2] * g)
    for m in range(1, n + 1):
        lhs = sum((qp(-i) * s[i] * pp[m - i] for i in range(m)), ZERO)
        out.append(("mod-n", m, lhs - q_int(m) * s[m]))
    for m in range(n + 1):
        lhs = sum(((-ONE) ** i * a[i] * sp_[m - i] for i in range(m + 1)),
                  ZERO)
        out.append(("mod-w", m, lhs - (ONE if m == 0 else ZERO)))
    return out


def descaled(res, pt, deg):
    """A cleared Laurent dict of sp._point_data's point pt, divided back by
    E lam^deg: its value at the chart point."""
    return QScalar.laurent(res) / QScalar.from_int(pt["E"] * pt["lam"] ** deg)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("wrong", [False, True], ids=["true", "wrong"])
def test_cleared_residuals_are_scaled_oracle_residuals(monkeypatch, k, wrong):
    # wrong: mu flipped, s_2 moved by one (lam^2 at the scaled point) and
    # the init targets moved, so that residuals are nonzero and their
    # scale shows
    mu, n = sp.mu_of(k), 5
    if wrong:
        mu = -mu
        monkeypatch.setattr(sp, "mu_of", lambda k: mu)
    chart = sp.sample_chart(k, random.Random(30 + k))
    pt, ref = sp._point_data(k, chart, n), point_data(k, chart, n)
    e, lam = pt["E"], pt["lam"]
    if wrong:
        pt["s"][2] += lam ** 2
        ref["s"][2] += ONE
    consts = sp._coefficients(k, n)
    got = list(sp._newton_residuals(pt, n, consts))
    got += sp._wronski_residuals(pt, n, consts)
    want = oracle_residuals(k, n, ref, mu)
    assert [r[:2] for r in got] == [r[:2] for r in want]
    for (_, m, res), (_, _, value) in zip(got, want):
        assert QScalar.laurent(res) == value * QScalar.from_int(e * lam ** m)
    assert any(v for r, _, v in want if r == "mod-w") is wrong
    # polynomiality: the solved polynomial minus the rational p_m
    polys = sp._newton_powersums(k, 3)
    terms = [[(x, sp._laurent(c)) for x, c in f.num.items()] for f in polys]
    for _, m, res in sp._polynomiality_residuals(pt, 3, terms):
        value = evaluate(polys[m], chart) - ref["p"][m]
        assert QScalar.laurent(res) == value * QScalar.from_int(e * lam ** m)
    # the initial conditions: degrees 0, 0 and 1
    shift = qp(1) if wrong else ZERO
    init1 = qp(-2 * k) * q_int(2 * k) + shift
    init2 = qp(-1 - 2 * k) * (q_int(2 * k + 1) - ONE) - shift
    nus = ref["nus"]
    d = [None] + [d_at(k, i, nus) for i in range(1, 2 * k + 1)]
    dh = [None] + [d_at(k, i, nus, hat=True) for i in range(1, 2 * k + 1)]
    want = [qp(-1) * sum(dh[1:], ZERO) - init1,
            qp(-1) * sum(d[1:], ZERO) - init2,
            sum((nus[i] * (d[i] - dh[i]) for i in range(1, 2 * k + 1)), ZERO)]
    got = sp._init_cleared(k, chart, init1, init2)
    for deg, res, value in zip((0, 0, 1), got, want):
        assert QScalar.laurent(res) == value * QScalar.from_int(e * lam ** deg)
    assert any(v for v in want[:2]) is wrong and not want[2]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chart_checks_name_a_wrong_pair_factor_or_mu(monkeypatch, k):
    data = sp.chart_data(k, 4, seed=4)
    with monkeypatch.context() as m:
        # q^-2 for q^-4 in d_i's pair numerator: d_i becomes d-hat_i
        cleared = sp._cleared_d

        def same_pair(k, nus):
            e, shared, pairs = cleared(k, nus)
            return e, shared, [(r, r) for _, r in pairs]
        m.setattr(sp, "_cleared_d", same_pair)
        wrong = sp.chart_data(k, 4, seed=4)
    assert sp.newton_check(k, 4, wrong)["relation"] == "newton-a"
    assert sp.wronski_modified(k, 4, wrong)["relation"] == "mod-n"
    mu_of = sp.mu_of
    monkeypatch.setattr(sp, "mu_of", lambda k: -mu_of(k))
    r = sp.newton_check(k, 4, data)
    assert (r["ok"], r["relation"], r["n"]) == (False, "newton-a", 2)
    # the modified relations read mu only through mu^2 (p'_0), which a
    # flipped sign leaves; mu q moves it
    assert sp.wronski_modified(k, 4, data)["ok"]
    monkeypatch.setattr(sp, "mu_of", lambda k: mu_of(k) * qp(1))
    r = sp.wronski_modified(k, 4, data)
    assert (r["ok"], r["relation"], r["n"]) == (False, "mod-n", 2)


# -- identity suites ----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_newton_relations(k):
    r = sp.newton_check(k, 6, sp.chart_data(k, 6, seed=3))
    assert r["ok"], r
    assert r["points"] >= 2 * 6 + 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_modified_newton_wronski(k):
    r = sp.wronski_modified(k, 6, sp.chart_data(k, 6, seed=4))
    assert r["ok"], r


@pytest.mark.parametrize("k", [1, 2, 3])
def test_newton_closure(k):
    assert sp.newton_closure(k, sp.chart_data(k, k, seed=5))["ok"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_parameterization(k):
    r = sp.parameterization_checks(k, seed=5)
    assert r["ok"], r
    for key in ("w1+", "w1-", "w2-zero", "d-ratio", "init-1", "init-2",
                "init-3", "init-1-closed", "init-2-closed", "w2-value-id"):
        assert r[key], (key, r)


@pytest.mark.parametrize("k", [1, 2])
def test_parameterization_names_a_wrong_pair_factor(monkeypatch, k):
    # q^-3 for q^-4 in the first pair factor: d_i changes, d-hat_i does not
    pair_factors = sp.pair_factors

    def wrong(k, i, nus):
        x, y = nus[i], nus[2 * k + 1 - i]
        return (x - y * qp(-3)) / (x - y), pair_factors(k, i, nus)[1]

    monkeypatch.setattr(sp, "pair_factors", wrong)
    r = sp.parameterization_checks(k, seed=5)
    assert not r["d-ratio"] and not r["ok"], r
    assert r["w1+"] and r["w1-"] and r["w2-zero"], r


@pytest.mark.parametrize("k", [1, 2])
def test_parameterization_names_a_wrong_init_target(monkeypatch, k):
    # init-1's target reads mu, init-2's reads [2k+1]_q
    mu_of, q_int = sp.mu_of, sp.q_int
    monkeypatch.setattr(sp, "mu_of", lambda k: mu_of(k) * qp(2))
    r = sp.parameterization_checks(k, seed=5)
    assert not r["init-1"] and r["init-2"] and r["init-3"], r
    assert r["d-ratio"] and not r["ok"], r
    monkeypatch.setattr(sp, "mu_of", mu_of)
    monkeypatch.setattr(
        sp, "q_int", lambda n: q_int(n) + ONE if n == 2 * k + 1 else q_int(n))
    r = sp.parameterization_checks(k, seed=5)
    assert r["init-1"] and not r["init-2"] and r["init-3"], r
    assert r["d-ratio"] and not r["ok"], r


def test_init3_symbolic_k1():
    # sum nu_i (d_i - d-hat_i) = 0 under the pair substitution
    k = 1
    total = sp.SpectralFunction.constant(k, ZERO)
    for i in range(1, 2 * k + 1):
        nui = sp.SpectralFunction.variable(k, i)
        total = total + nui * (d_coefficient(k, i)
                               - d_coefficient(k, i, hat=True))
    assert total.is_zero()


@pytest.mark.parametrize("k", [1, 2])
def test_powersum_polynomiality(k):
    assert sp.polynomiality_check(k, 4, sp.chart_data(k, 4, seed=6))["ok"]


def test_polynomiality_reads_a_prefix_of_newton_data():
    # the CLI passes the chart data built for newton, of a larger degree
    own = sp.polynomiality_check(2, 4, sp.chart_data(2, 4, seed=6))
    assert own["ok"]
    assert sp.polynomiality_check(2, 4, sp.chart_data(2, 6, seed=6)) == own


def test_newton_powersum_polynomials_low_degree():
    # solved p_1 image: a_1 image scaled by 1 (1_q = 1), since the
    # degree-1 Newton relation reads p_1 = a_1
    for k in (1, 2):
        assert sp.pi_hom(k, "p", 1) == sp.pi_hom(k, "a", 1)


def test_w_function_third_variant():
    k = 1
    z = sp.SpectralFunction.variable(k, 1)
    w2 = sp.w_function(k, 2, z + sp.SpectralFunction.constant(k, ONE))
    w3 = sp.w_function(k, 3, z + sp.SpectralFunction.constant(k, ONE))
    assert w3 == (z + sp.SpectralFunction.constant(k, ONE)) * w2
