"""Spectral-variable parameterization of the symplectic characteristic
subalgebra.

The algebra of spectral variables has commuting generators nu_0 .. nu_2k
subject to nu_j nu_{2k+1-j} = nu_0^2 for j = 1..k.  The chart
nu_{2k+1-j} -> nu_0^2 / nu_j embeds it in the Laurent polynomials in
nu_0 .. nu_k, so one type, `SpectralFunction` (a ratio of such Laurent
polynomials), holds the characteristic images and the rational
coefficients alike, with the relations built in.  Characteristic
elements map to symmetric functions of the nu's; power sums acquire
rational coefficients d_i, which share a product with their unpaired
variants d-hat_i (`pair_factors`).  Rational identities are certified
symbolically where cheap, and otherwise at sampled integer chart points
over Z[q, q^-1] (dicts {exponent: int}).  With lam = nu_1...nu_k, each
nu'_j = lam nu_j is an integer, and each relation is homogeneous of degree
m (newton-a, newton-s, mod-n, mod-w, closure, polynomiality), 0 (init-1,
init-2) or 1 (init-3): its residual at nu' is lam^deg times that at nu.
At nu', d_i = N_i / E_i, N_i in Z[q^-2], E_i = prod_{j != i} (nu'_i -
nu'_j), and each relation is affine in p, d and d-hat with Laurent
coefficients, so with E = lcm E_i, E times a residual is in Z[q, q^-1].
lam and E are nonzero at an admissible point (`sample_chart`), so the
verdicts are those of evaluation in Q(q) at the same points; a nonzero
residual is divided back by E lam^deg for its report.
"""
from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import reduce

from .domains import QQ
from .scalar import (LAMBDA, ONE, Q, QINV, QScalar, ZERO, lp_add, lp_mul,
                     lp_neg, q_int)
from .sparse import add_into, product

# Chart points are drawn uniformly from [2, CHART_RANGE); a nonzero rational
# identity of cleared total degree d survives one draw with probability
# below d / CHART_RANGE (Schwartz-Zippel).
CHART_RANGE = 10 ** 6


def mu_of(k):
    """Skew eigenvalue parameter of the symplectic-type R-matrix."""
    return -QScalar.q_power(-1 - 2 * k)


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials {exponent tuple: QScalar} in the chart
# variables nu_0 .. nu_k: the numerators and denominators of
# SpectralFunction.

def _add_exponents(e1, e2):
    return tuple(map(operator.add, e1, e2))


def _padd(a, b):
    return add_into(dict(a), b.items(), QQ)


def _pmul(a, b):
    return product(a, b, _add_exponents, QQ)


def _pscale(a, c):
    if c.is_zero():
        return {}
    return {e: c * v for e, v in a.items()}


class SpectralFunction:
    """A function of the spectral variables nu_0 .. nu_2k on the chart
    nu_{2k+1-j} = nu_0^2 / nu_j: num / den, Laurent polynomials in
    nu_0 .. nu_k, with den = 1 for a polynomial.  The chart map is
    injective on the spectral algebra, so the pair relations hold by
    construction and equal functions have equal charts."""

    __slots__ = ("k", "num", "den")

    def __init__(self, k, num, den=None):
        if den is None:
            den = {(0,) * (k + 1): ONE}
        elif not den:
            raise ZeroDivisionError("zero denominator polynomial")
        self.k = k
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, k, c):
        return cls(k, {(0,) * (k + 1): c} if c else {})

    @classmethod
    def variable(cls, k, i, power=1):
        """nu_i^power for any 0 <= i <= 2k."""
        if not 0 <= i <= 2 * k:
            raise ValueError(f"nu_{i} outside 0..{2 * k}")
        e = [0] * (k + 1)
        if i <= k:
            e[i] = power
        else:
            e[0], e[2 * k + 1 - i] = 2 * power, -power
        return cls(k, {tuple(e): ONE})

    def __add__(self, other):
        if self.den == other.den:
            return SpectralFunction(self.k, _padd(self.num, other.num),
                                    self.den)
        return SpectralFunction(
            self.k,
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def __neg__(self):
        return self.scale(-ONE)

    def __mul__(self, other):
        if isinstance(other, QScalar):
            return self.scale(other)
        return SpectralFunction(self.k, _pmul(self.num, other.num),
                                _pmul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero function")
        return SpectralFunction(self.k, _pmul(self.num, other.den),
                                _pmul(self.den, other.num))

    def scale(self, c):
        return SpectralFunction(self.k, _pscale(self.num, c), self.den)

    def is_zero(self):
        # num stays expanded with exact coefficients, so the function is
        # zero iff num is empty
        return not self.num

    def __eq__(self, other):
        if self.den == other.den:
            return self.num == other.num
        # cross-multiplied, without the product of the denominators
        return _pmul(self.num, other.den) == _pmul(other.num, self.den)

    def __repr__(self):
        return (f"SpectralFunction(k={self.k}, {len(self.num)}/"
                f"{len(self.den)} terms)")


# -- symmetric-function builders --------------------------------------------

def _sym_dp(args, n, homogeneous, one):
    """e_0..e_n (or, with homogeneous=True, h_0..h_n) of the arguments:
    spectral functions, or integers with one = 1."""
    rows = [one] + [one - one] * n
    for arg in args:
        if homogeneous:
            for i in range(1, n + 1):
                rows[i] = rows[i] + arg * rows[i - 1]
        else:
            for i in range(n, 0, -1):
                rows[i] = rows[i] + arg * rows[i - 1]
    return rows


def _extended(nus):
    """The alphabet nu_0, -nu_0, nu_1 .. nu_2k of the a-images."""
    return [nus[0], -nus[0]] + nus[1:]


def _variables(k):
    return [SpectralFunction.variable(k, i) for i in range(2 * k + 1)]


def elementary(k, i):
    """e_i(nu_1 .. nu_2k)."""
    if i < 0 or i > 2 * k:
        return SpectralFunction.constant(k, ZERO)
    return _sym_dp(_variables(k)[1:], i, homogeneous=False,
                   one=SpectralFunction.constant(k, ONE))[i]


def elementary_extended(k, i):
    """e_i(nu_0, -nu_0, nu_1 .. nu_2k)."""
    if i < 0 or i > 2 * k + 2:
        return SpectralFunction.constant(k, ZERO)
    return _sym_dp(_extended(_variables(k)), i, homogeneous=False,
                   one=SpectralFunction.constant(k, ONE))[i]


def complete(k, n):
    """h_n(nu_1 .. nu_2k)."""
    if n < 0:
        return SpectralFunction.constant(k, ZERO)
    return _sym_dp(_variables(k)[1:], n, homogeneous=True,
                   one=SpectralFunction.constant(k, ONE))[n]


def pi_hom(k, symbol, i=1):
    """Spectral image of a characteristic element.

    symbol: "g", "a", "eps", "s", or "p"; the power-sum image is produced
    as a polynomial by solving the Newton recursion from the a-images.
    """
    if symbol == "g":
        return SpectralFunction.variable(k, 0, 2)
    if symbol == "a":
        return elementary_extended(k, i)
    if symbol == "s":
        return complete(k, i)
    if symbol == "eps":
        if not 0 <= i <= 2 * k:
            raise ValueError(f"epsilon_{i} outside 0..{2 * k}")
        g = pi_hom(k, "g")
        if i > k:
            out = pi_hom(k, "eps", 2 * k - i)
            for _ in range(i - k):
                out = out * g
            return out
        out = SpectralFunction.constant(k, ZERO)
        gp = SpectralFunction.constant(k, ONE)
        for j in range(i // 2 + 1):
            out = out + elementary_extended(k, i - 2 * j) * gp
            gp = gp * g
        return out
    if symbol == "p":
        return _newton_powersums(k, i)[i]
    raise ValueError(f"unknown symbol {symbol!r}")


def _newton_a_coefficients(m, mu):
    """(coeffs, c) of the first Newton relation at degree m, lhs = c a_m:
    lhs = sum_(i<m) (-q)^i a_i p_(m-i) + sum_(0<i<=m/2) coeffs[i-1]
    a_(m-2i) g^i, coeffs[i-1] = (-1)^(m-1) (mu q^(m-2i) - q^(1-m+2i))."""
    sign = ONE if m % 2 else -ONE
    return ([sign * (mu * QScalar.q_power(m - 2 * i)
                     - QScalar.q_power(1 - m + 2 * i))
             for i in range(1, m // 2 + 1)], sign * q_int(m))


def _newton_powersums(k, n):
    """p_1..p_n images solved from the first Newton relation, whose lhs
    holds p_m only as a_0 p_m = p_m (p_0 is a zero placeholder)."""
    a = _sym_dp(_extended(_variables(k)), n, homogeneous=False,
                one=SpectralFunction.constant(k, ONE))
    g, mu = pi_hom(k, "g"), mu_of(k)
    p = [SpectralFunction.constant(k, ZERO)]
    for m in range(1, n + 1):
        coeffs, c = _newton_a_coefficients(m, mu)
        terms = [a[i] * (-Q) ** i * p[m - i] for i in range(1, m)]
        gp = g
        for i, ci in enumerate(coeffs, 1):
            terms.append(a[m - 2 * i] * ci * gp)
            gp = gp * g
        p.append(a[m] * c - sum(terms, p[0]))
    return p


def sym_identities(k, i):
    """The two elementary-symmetric identities behind the epsilon images."""
    lhs = elementary_extended(k, i)
    rhs = (elementary(k, i)
           - SpectralFunction.variable(k, 0, 2) * elementary(k, i - 2))
    if not (lhs - rhs).is_zero():
        return False
    if 1 <= i <= k:
        lhs2 = elementary(k, k + i)
        rhs2 = SpectralFunction.variable(k, 0, 2 * i) * elementary(k, k - i)
        if not (lhs2 - rhs2).is_zero():
            return False
    return True


def expansion_coefficients(k):
    """Expand prod_i (X - q nu_i), i = 1..2k, as a polynomial in an
    abstract commuting power symbol X; returns coefficients of X^j,
    j = 0..2k."""
    coeffs = [SpectralFunction.constant(k, ONE)]
    for i in range(1, 2 * k + 1):
        root = SpectralFunction.variable(k, i).scale(Q)
        nxt = [SpectralFunction.constant(k, ZERO)
               for _ in range(len(coeffs) + 1)]
        for j, c in enumerate(coeffs):
            nxt[j + 1] = nxt[j + 1] + c
            nxt[j] = nxt[j] - root * c
        coeffs = nxt
    return coeffs


def factor_check(k):
    """Expand the factorized characteristic product and confirm, exactly,
    that each power-symbol coefficient equals the corresponding (-q)^i
    epsilon image."""
    coeffs = expansion_coefficients(k)
    for i in range(2 * k + 1):
        target = pi_hom(k, "eps", i).scale((-Q) ** i)
        if not (coeffs[2 * k - i] - target).is_zero():
            return {"ok": False, "i": i}
    return {"ok": True, "checked": 2 * k + 1}


def pair_factors(k, i, nus):
    """The two factors in which d_i and d-hat_i differ, with
    pair = 2k+1-i: (nu_i - q^-4 nu_pair)/(nu_i - nu_pair) and
    r_pair = (nu_i - q^-2 nu_pair)/(nu_i - nu_pair), at the spectral
    variables nus; d_i and d-hat_i are each of them times one product of
    r_j's, empty at k = 1 (`_cleared_d`)."""
    if not 1 <= i <= 2 * k:
        raise ValueError(f"d_{i} outside 1..{2 * k}")
    x, y = nus[i], nus[2 * k + 1 - i]
    gap = x - y
    return ((x - y * QScalar.q_power(-4)) / gap,
            (x - y * QScalar.q_power(-2)) / gap)


def w_function(k, which, z):
    """w_1, w_2, or w_3 evaluated at the spectral function z."""
    nu = _variables(k)
    qm2 = QScalar.q_power(-2)
    w = SpectralFunction.constant(k, ONE)
    for i in range(1, 2 * k + 1):
        w = w * ((z - nu[i] * qm2) / (z - nu[i]))
    if which == 1:
        return w
    nu0sq = nu[0] * nu[0]
    w = nu0sq * w / (z * z - nu0sq * qm2)
    if which == 2:
        return w
    if which == 3:
        return z * w
    raise ValueError("which must be 1, 2, or 3")


# ---------------------------------------------------------------------------
# Evaluation points on the chart, in integer arithmetic (module docstring).

def _scaled(k, chart):
    """(lam, nus) at integer chart values nu_0..nu_k: lam = nu_1...nu_k
    and the integers nus[j] = lam nu_j, j = 0..2k."""
    lam = math.prod(chart[1:])
    return lam, ([lam * v for v in chart] + [chart[0] ** 2 * (lam // chart[j])
                                             for j in range(k, 0, -1)])


def sample_chart(k, rng):
    """Admissible chart values: integers nu_0..nu_k giving 2k pairwise
    distinct spectral values (resampled on collision)."""
    while True:
        chart = rng.sample(range(2, CHART_RANGE), k + 1)
        if len(set(_scaled(k, chart)[1][1:])) == 2 * k:
            return chart


def _chart_count(k, n):
    """Chart points of a sampled check in degree n: one more than the
    per-variable degree bound of its cleared denominators (4k from the
    d_i, n from the power), with a margin."""
    return 4 * k + 2 * n + 3


def _charts(k, n, seed):
    """The chart points of a sampled check in degree n, drawn from
    Random(seed); a lower degree's charts are a prefix of them."""
    rng = random.Random(seed)
    return [sample_chart(k, rng) for _ in range(_chart_count(k, n))]


def _bound(charts, degree):
    """Chance that a nonzero identity of cleared total degree `degree`
    vanishes at every chart point."""
    return float((degree / CHART_RANGE) ** len(charts))


def _laurent(c):
    """The QScalar c, a Laurent polynomial in q over Z, as a dict."""
    if c.den != {0: 1}:
        raise ValueError(f"{c} is not a Laurent polynomial over Z")
    return c.num


def _sum(terms, start):
    return reduce(lp_add, terms, start)


def _cleared_d(k, nus):
    """(E, shared, pairs) at the scaled values nus: E d_i and E d-hat_i are
    shared[i-1] times each of pairs[i-1], the `pair_factors`' numerators."""
    shared, pairs, dens = [], [], []
    for i in range(1, 2 * k + 1):
        x, y = nus[i], nus[2 * k + 1 - i]
        prod, den = {0: 1}, x - y
        for z in nus[1:]:
            if z != x and z != y:
                prod, den = lp_mul(prod, {0: x, -2: -z}), den * (x - z)
        shared.append(prod)
        pairs.append(({0: x, -4: -y}, {0: x, -2: -y}))
        dens.append(den)
    e = math.lcm(*dens)
    return e, [lp_mul(a, {0: e // den}) for a, den in zip(shared, dens)], pairs


def _point_data(k, chart, n):
    """Scaled values nus, lam, E, and at nus the integers a_i, s_i, g and
    the cleared power sums E p_i = q^(i-1) sum E d_j nu_j^i, i = 0..n."""
    lam, nus = _scaled(k, chart)
    e, shared, pairs = _cleared_d(k, nus)
    d = [lp_mul(a, f) for a, (f, _) in zip(shared, pairs)]
    p = [_sum([lp_mul(di, {m - 1: x ** m}) for x, di in zip(nus[1:], d)], {})
         for m in range(n + 1)]
    return {"nus": nus, "lam": lam, "E": e, "g": nus[0] * nus[0], "p": p,
            "a": _sym_dp(_extended(nus), n, homogeneous=False, one=1),
            "s": _sym_dp(nus[1:], n, homogeneous=True, one=1)}


def chart_data(k, n, seed=0):
    """`_point_data` in degree n at each chart of `_charts(k, n, seed)`:
    the points shared by the Newton checks of degree <= n, each reading
    the prefix its own degree needs."""
    return [_point_data(k, chart, n) for chart in _charts(k, n, seed)]


def _coefficients(k, n):
    """The relations' Laurent coefficients: p'_0 and, per degree m <= n,
    newton-a's, newton-s's g-terms' (mu q^(2i-m) + q^(m-2i-1)) and [m]_q."""
    mu, out = mu_of(k), []
    for m in range(n + 1):
        coeffs, c = _newton_a_coefficients(m, mu)
        out.append(([_laurent(ci) for ci in coeffs], _laurent(c),
                    [_laurent(mu * QScalar.q_power(2 * i - m)
                              + QScalar.q_power(m - 2 * i - 1))
                     for i in range(1, m // 2 + 1)], _laurent(q_int(m))))
    return _laurent((ONE - mu * mu * QScalar.q_power(2)) / LAMBDA), out


def _s_sum(pt, x, m, qm):
    """E lam^m (sum of q^-i s_i x_(m-i) over i < m, minus [m]_q s_m)."""
    return _sum([lp_mul({-i: pt["s"][i]}, x[m - i]) for i in range(m)],
                lp_mul(qm, {0: -pt["E"] * pt["s"][m]}))


def _newton_a_cleared(m, pt, consts):
    """E lam^m (lhs - c a_m) (`_newton_a_coefficients`) at pt."""
    a, g, e = pt["a"], pt["g"], pt["E"]
    coeffs, c = consts[1][m][:2]
    return _sum([lp_mul({i: (-1) ** i * a[i]}, pt["p"][m - i])
                 for i in range(m)]
                + [lp_mul(ci, {0: a[m - 2 * i] * e * g ** i})
                   for i, ci in enumerate(coeffs, 1)],
                lp_mul(c, {0: -e * a[m]}))


def _newton_residuals(pt, n, consts):
    """(relation, m, E lam^m times its residual) of newton-a and newton-s,
    m = 1..n, at the point pt of `chart_data`, in check order."""
    s, g, e = pt["s"], pt["g"], pt["E"]
    for m in range(1, n + 1):
        yield "newton-a", m, _newton_a_cleared(m, pt, consts)
        coeffs, qm = consts[1][m][2:]
        yield "newton-s", m, _sum(
            [lp_mul(ci, {0: -s[m - 2 * i] * e * g ** i})
             for i, ci in enumerate(coeffs, 1)], _s_sum(pt, pt["p"], m, qm))


def _wronski_residuals(pt, n, consts):
    """As `_newton_residuals`, for mod-n (m = 1..n) and mod-w (m = 0..n):
    p'_i = p_i + (q^-2 p'_(i-2) - p_(i-2)) g, s'_i = s_i + s'_(i-2) g."""
    a, s, p, g = pt["a"], pt["s"], pt["p"], pt["g"]
    pp, sp = [lp_mul(consts[0], {0: pt["E"]})] + p[1:2], s[:2]
    for i in range(2, n + 1):
        pp.append(_sum([lp_mul(pp[i - 2], {-2: g}),
                        lp_mul(p[i - 2], {0: -g})], p[i]))
        sp.append(s[i] + sp[i - 2] * g)
    for m in range(1, n + 1):
        yield "mod-n", m, _s_sum(pt, pp, m, consts[1][m][3])
    for m in range(n + 1):
        lhs = sum((-1) ** i * a[i] * sp[m - i] for i in range(m + 1))
        yield "mod-w", m, {0: pt["E"] * (lhs - (m == 0))}


def _first_failure(k, n, data, residuals, consts):
    """The first nonzero relation of `residuals` in degree <= n at the
    points of `chart_data` (degree >= n), or the pass with its bound."""
    pts = data[:_chart_count(k, n)]
    for pt in pts:
        for relation, m, res in residuals(pt, n, consts):
            if any(res.values()):
                return {"ok": False, "relation": relation, "n": m, "residual":
                        str(QScalar(res, {0: pt["E"] * pt["lam"] ** m}))}
    return {"ok": True, "n": n, "points": len(pts),
            "bound": _bound(pts, 8 * k + 2 * n)}


def newton_check(k, n, data):
    """Certify the two Newton relations at degrees 1..n with rational
    power-sum images, by exact evaluation at the points of `chart_data`
    (degree >= n)."""
    return _first_failure(k, n, data, _newton_residuals, _coefficients(k, n))


def wronski_modified(k, n, data):
    """Certify the modified Newton and Wronski relations built from the
    auxiliary s' and p' iterations, by exact evaluation at the points of
    `chart_data` (degree >= n)."""
    return _first_failure(k, n, data, _wronski_residuals, _coefficients(k, n))


def newton_closure(k, data):
    """Solve the first Newton relation for a_n at the points of
    `chart_data` (degree >= k) and match the elementary-symmetric images,
    n <= k: lhs / c = a_n, that is lhs - c a_n = 0, as c = +-[n]_q."""
    def closure(pt, n, consts):
        for m in range(1, n + 1):
            yield "closure", m, _newton_a_cleared(m, pt, consts)
    return _first_failure(k, k, data, closure, _coefficients(k, k))


def _monomial(nus, x):
    """The chart monomial x at the scaled values nus, an integer in a
    polynomial in the nu's: there nu_j^-t comes with (nu_j nu_(2k+1-j))^t."""
    v = math.prod(Fraction(u) ** t for u, t in zip(nus, x))
    if v.denominator != 1:
        raise ValueError(f"{x} is not a polynomial's chart monomial")
    return v.numerator


def _polynomiality_residuals(pt, n, polys):
    """As `_newton_residuals`, for polys[m] - p_m, m = 1..n, with polys[m]
    as (chart exponents, Laurent coefficient) terms."""
    for m in range(1, n + 1):
        yield "polynomiality", m, _sum(
            [lp_mul(c, {0: pt["E"] * _monomial(pt["nus"], x)})
             for x, c in polys[m]], lp_neg(pt["p"][m]))


def polynomiality_check(k, n, data):
    """Stretch check: the rational power-sum images p_1..p_min(n,4) agree
    with the polynomials solved from the Newton recursion, at the points of
    `chart_data` (degree >= min(n, 4)).  The bound takes the degree of
    p_min(n,4), the largest one checked."""
    polys = [[(x, _laurent(c)) for x, c in f.num.items()]
             for f in _newton_powersums(k, min(n, 4))]
    return _first_failure(k, min(n, 4), data, _polynomiality_residuals, polys)


def _init_residuals_k1(init1, init2):
    """The initial conditions at k = 1, where (d_i, d-hat_i) are the
    `pair_factors`: q^-1 sum d-hat_i - init1, q^-1 sum d_i - init2 and
    sum nu_i (d_i - d-hat_i), with init1 and init2 constant functions."""
    nus = _variables(1)
    (d1, dh1), (d2, dh2) = (pair_factors(1, i, nus) for i in (1, 2))
    return ((dh1 + dh2) * QINV - init1, (d1 + d2) * QINV - init2,
            nus[1] * (d1 - dh1) + nus[2] * (d2 - dh2))


def _init_cleared(k, chart, init1, init2):
    """The initial conditions (`_init_residuals_k1`) at an integer chart
    point, times E (init-1, init-2) and E lam (init-3)."""
    nus = _scaled(k, chart)[1]
    e, shared, pairs = _cleared_d(k, nus)
    init1, init2 = _laurent(init1), _laurent(init2)
    d = [lp_mul(a, f) for a, (f, _) in zip(shared, pairs)]
    dh = [lp_mul(a, r) for a, (_, r) in zip(shared, pairs)]
    return (_sum([lp_mul(x, {-1: 1}) for x in dh], lp_mul(init1, {0: -e})),
            _sum([lp_mul(x, {-1: 1}) for x in d], lp_mul(init2, {0: -e})),
            _sum([lp_mul(lp_add(x, lp_neg(y)), {0: v})
                  for v, x, y in zip(nus[1:], d, dh)], {}))


def parameterization_checks(k, seed=0):
    """The d-ratio relation, the three initial conditions, and the
    w-function evaluations; the initial conditions symbolically at k = 1,
    at sampled chart points above.  The d-ratio relation d_i =
    (nu_i^2 - q^-4 nu_0^2)/(nu_i^2 - q^-2 nu_0^2) d-hat_i is checked
    symbolically on the two `pair_factors` alone: d_i and d-hat_i are one
    nonzero rational function, the shared product P_i, times each of them,
    and cancelling P_i is an equivalence in a field."""
    out = {"k": k}
    mu = mu_of(k)
    one = SpectralFunction.constant(k, ONE)
    nus = _variables(k)
    nu0 = nus[0]
    # w_1(+-q^{-1} nu_0) = q^{-2k} and w_2(0) = -q^{2-4k}, symbolically.
    for sgn, tag in ((ONE, "w1+"), (-ONE, "w1-")):
        val = w_function(k, 1, nu0.scale(sgn * QINV))
        out[tag] = val == one.scale(QScalar.q_power(-2 * k))
    out["w2-zero"] = (w_function(k, 2, SpectralFunction.constant(k, ZERO))
                      == one.scale(-QScalar.q_power(2 - 4 * k)))
    ok = True
    for i in range(1, 2 * k + 1):
        nui = nus[i]
        ratio = ((nui * nui - (nu0 * nu0).scale(QScalar.q_power(-4)))
                 / (nui * nui - (nu0 * nu0).scale(QScalar.q_power(-2))))
        f, r = pair_factors(k, i, nus)
        ok = ok and f == ratio * r
    out["d-ratio"] = ok
    # Initial-condition targets, all in the symmetric q-integer convention.
    init1 = (ONE - mu * mu * QScalar.q_power(2)) / LAMBDA
    init2 = QScalar.q_power(-1 - 2 * k) * (q_int(2 * k + 1) - ONE)
    out["init-1-closed"] = (init1 - QScalar.q_power(-2 * k)
                            * q_int(2 * k)).is_zero()
    out["init-2-closed"] = (init2 - (Q - mu) * (QINV + mu)
                            / LAMBDA).is_zero()
    out["w2-value-id"] = (-QScalar.q_power(2 - 4 * k)
                          - (-QScalar.q_power(3) * (init2 - init1)
                             - QScalar.q_power(2 - 2 * k))
                          ).is_zero()
    if k == 1:
        charts = None
        vanish = [[r.is_zero()
                   for r in _init_residuals_k1(one * init1, one * init2)]]
    else:
        charts = _charts(k, 2, seed)
        vanish = [[not any(r.values())
                   for r in _init_cleared(k, chart, init1, init2)]
                  for chart in charts]
    for tag, values in zip(("init-1", "init-2", "init-3"), zip(*vanish)):
        out[tag] = all(values)
    out["ok"] = all(v for key, v in out.items() if key != "k")
    if charts:
        out["points"] = len(charts)
        out["bound"] = _bound(charts, 8 * k)
    return out
