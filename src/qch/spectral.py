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
variants d-hat_i (`d_value`).  Rational identities are certified by exact
evaluation at admissible integer points, symbolically where cheap.
"""
from __future__ import annotations

import operator
import random

from .domains import QQ
from .scalar import LAMBDA, ONE, Q, QINV, QScalar, ZERO, q_int
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


def _peval(a, vals):
    """Value of a at vals[0..] (exact scalars)."""
    acc = ZERO
    for e, c in a.items():
        t = c
        for i, p in enumerate(e):
            if p:
                t = t * vals[i] ** p
        acc = acc + t
    return acc


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

    def evaluate(self, chart_vals):
        """Value at the chart values nu_0 .. nu_k (exact scalars; values
        past nu_k are not read)."""
        return _peval(self.num, chart_vals) / _peval(self.den, chart_vals)

    def __repr__(self):
        return (f"SpectralFunction(k={self.k}, {len(self.num)}/"
                f"{len(self.den)} terms)")


# -- symmetric-function builders --------------------------------------------

def _sym_dp(args, n, homogeneous, one):
    """e_0..e_n (or, with homogeneous=True, h_0..h_n) of the arguments:
    spectral functions, or exact values with one = ONE."""
    rows = [one] + [one * ZERO] * n
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


def _newton_a(m, a, p, g, mu):
    """The first Newton relation at degree m as (lhs, c); it reads
    lhs = c a_m with c = (-1)^(m-1) [m]_q and lhs the sum of
    (-q)^i a_i p_(m-i) over i < m and of
    (-1)^(m-1) (mu q^(m-2i) - q^(1-m+2i)) a_(m-2i) g^i over 0 < i <= m/2.
    a, p and g are spectral functions or their values at a point.
    """
    sign = ONE if m % 2 else -ONE
    # (-q)^i goes in before p_(m-i): over exact values the other order
    # canonicalizes a large product twice
    terms = [a[i] * (-Q) ** i * p[m - i] for i in range(m)]
    gp = g
    for i in range(1, m // 2 + 1):
        c = mu * QScalar.q_power(m - 2 * i) - QScalar.q_power(1 - m + 2 * i)
        terms.append(a[m - 2 * i] * (sign * c) * gp)
        gp = gp * g
    return sum(terms[1:], terms[0]), sign * q_int(m)


def _newton_powersums(k, n):
    """p_1..p_n images solved from the first Newton relation for the
    a-series (p_0 is a zero placeholder)."""
    a = _sym_dp(_extended(_variables(k)), n, homogeneous=False,
                one=SpectralFunction.constant(k, ONE))
    g, mu = pi_hom(k, "g"), mu_of(k)
    p = [SpectralFunction.constant(k, ZERO)]
    for m in range(1, n + 1):
        # p_m enters lhs as a_0 p_m: solve with it at zero
        p.append(SpectralFunction.constant(k, ZERO))
        lhs, c = _newton_a(m, a, p, g, mu)
        p[m] = a[m] * c - lhs
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


def expansion_coefficients(k, order=None):
    """Expand prod_i (X - q nu_i), i = 1..2k, as a polynomial in an
    abstract commuting power symbol X; returns coefficients of X^j,
    j = 0..2k.  `order` optionally permutes the factors."""
    idx = list(order) if order is not None else list(range(1, 2 * k + 1))
    coeffs = [SpectralFunction.constant(k, ONE)]
    for i in idx:
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
    r_pair = (nu_i - q^-2 nu_pair)/(nu_i - nu_pair), at the spectral values
    nus (exact scalars, or the chart variables)."""
    if not 1 <= i <= 2 * k:
        raise ValueError(f"d_{i} outside 1..{2 * k}")
    x, y = nus[i], nus[2 * k + 1 - i]
    gap = x - y
    return ((x - y * QScalar.q_power(-4)) / gap,
            (x - y * QScalar.q_power(-2)) / gap)


def d_value(k, i, nus):
    """(d_i, d-hat_i) at the spectral values nus (exact scalars, or the
    chart variables): one shared product P_i of the r_j =
    (nu_i - q^-2 nu_j)/(nu_i - nu_j) over j not in {i, 2k+1-i}, times
    each of the `pair_factors`."""
    f, r = pair_factors(k, i, nus)
    x, shared = nus[i], None
    for j in range(1, 2 * k + 1):
        if j in (i, 2 * k + 1 - i):
            continue
        ratio = (x - nus[j] * QScalar.q_power(-2)) / (x - nus[j])
        shared = ratio if shared is None else shared * ratio
    if shared is None:  # k = 1: the empty product
        return f, r
    return shared * f, shared * r


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
# Evaluation points on the chart.

def sample_chart(k, rng):
    """Admissible chart values: nu_0..nu_k integers giving 2k pairwise
    distinct spectral values (resampled on collision)."""
    while True:
        vals = rng.sample(range(2, CHART_RANGE), k + 1)
        chart = [QScalar.from_int(v) for v in vals]
        keys = [str(v) for v in spectral_values(k, chart)[1:]]
        if len(set(keys)) == len(keys):
            return chart


def spectral_values(k, chart):
    """All values nu_0..nu_2k from chart values nu_0..nu_k."""
    nus = list(chart) + [ZERO] * k
    sq = chart[0] * chart[0]
    for j in range(1, k + 1):
        nus[2 * k + 1 - j] = sq / chart[j]
    return nus


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


def _point_data(k, chart, n):
    """Values of a_i, s_i, p_i, g (and the d_i) at one chart point."""
    nus = spectral_values(k, chart)
    a_vals = _sym_dp(_extended(nus), n, homogeneous=False, one=ONE)
    s_vals = _sym_dp(nus[1:], n, homogeneous=True, one=ONE)
    d_vals = [None] + [d_value(k, i, nus)[0] for i in range(1, 2 * k + 1)]
    p_vals = [QINV * sum(d_vals[1:], ZERO)]
    for m in range(1, n + 1):
        acc = ZERO
        for i in range(1, 2 * k + 1):
            acc = acc + d_vals[i] * nus[i] ** m
        p_vals.append(QScalar.q_power(m - 1) * acc)
    return {"nus": nus, "a": a_vals, "s": s_vals, "p": p_vals,
            "g": nus[0] * nus[0], "d": d_vals}


def chart_data(k, n, seed=0):
    """`_point_data` in degree n at each chart of `_charts(k, n, seed)`:
    the points shared by the Newton checks of degree <= n, each reading
    the prefix its own degree needs."""
    return [_point_data(k, chart, n) for chart in _charts(k, n, seed)]


def newton_check(k, n, data):
    """Certify the two Newton relations at degrees 1..n with rational
    power-sum images, by exact evaluation at the points of `chart_data`
    (degree >= n)."""
    mu = mu_of(k)
    pts = data[:_chart_count(k, n)]
    for pt in pts:
        a, s, p, g = pt["a"], pt["s"], pt["p"], pt["g"]
        for m in range(1, n + 1):
            lhs_a, c = _newton_a(m, a, p, g, mu)
            lhs_s = ZERO
            for i in range(m):
                lhs_s = lhs_s + QScalar.q_power(-i) * s[i] * p[m - i]
            rhs_s = q_int(m) * s[m]
            gp = g
            for i in range(1, m // 2 + 1):
                rhs_s = rhs_s + (mu * QScalar.q_power(2 * i - m)
                                 + QScalar.q_power(m - 2 * i - 1)) \
                    * s[m - 2 * i] * gp
                gp = gp * g
            for relation, res in (("newton-a", lhs_a - a[m] * c),
                                  ("newton-s", lhs_s - rhs_s)):
                if not res.is_zero():
                    return {"ok": False, "relation": relation, "n": m,
                            "residual": str(res)}
    return {"ok": True, "n": n, "points": len(pts),
            "bound": _bound(pts, 8 * k + 2 * n)}


def wronski_modified(k, n, data):
    """Certify the modified Newton and Wronski relations built from the
    auxiliary s' and p' iterations, by exact evaluation at the points of
    `chart_data` (degree >= n)."""
    mu = mu_of(k)
    pts = data[:_chart_count(k, n)]
    for pt in pts:
        a, s, p, g = pt["a"], pt["s"], pt["p"], pt["g"]
        sp = [s[0]] + ([s[1]] if n >= 1 else [])
        for i in range(2, n + 1):
            sp.append(s[i] + sp[i - 2] * g)
        pp = ([(ONE - mu * mu * QScalar.q_power(2)) / LAMBDA]
              + ([p[1]] if n >= 1 else []))
        for i in range(2, n + 1):
            pp.append(p[i] + (QScalar.q_power(-2) * pp[i - 2] - p[i - 2]) * g)
        for m in range(1, n + 1):
            lhs = ZERO
            for i in range(m):
                lhs = lhs + QScalar.q_power(-i) * s[i] * pp[m - i]
            if not (lhs - q_int(m) * s[m]).is_zero():
                return {"ok": False, "relation": "mod-n", "n": m,
                        "residual": str(lhs - q_int(m) * s[m])}
        for m in range(n + 1):
            lhs = ZERO
            for i in range(m + 1):
                sgn = ONE if i % 2 == 0 else -ONE
                lhs = lhs + sgn * a[i] * sp[m - i]
            target = ONE if m == 0 else ZERO
            if not (lhs - target).is_zero():
                return {"ok": False, "relation": "mod-w", "n": m,
                        "residual": str(lhs - target)}
    return {"ok": True, "n": n, "points": len(pts),
            "bound": _bound(pts, 8 * k + 2 * n)}


def newton_closure(k, data):
    """Solve the first Newton relation for a_n at the points of
    `chart_data` (degree >= k) and match the elementary-symmetric images,
    n <= k."""
    mu = mu_of(k)
    pts = data[:_chart_count(k, k)]
    for pt in pts:
        a, p, g = pt["a"], pt["p"], pt["g"]
        for n in range(1, k + 1):
            lhs, c = _newton_a(n, a, p, g, mu)
            if not (lhs / c - a[n]).is_zero():
                return {"ok": False, "n": n}
    return {"ok": True, "points": len(pts),
            "bound": _bound(pts, 8 * k + 2 * k)}


def polynomiality_check(k, n, data):
    """Stretch check: the rational power-sum images p_1..p_min(n,4) agree
    with the polynomials solved from the Newton recursion, at the points of
    `chart_data` (degree >= min(n, 4)).  The bound takes the degree of
    p_min(n,4), the largest one checked."""
    top = min(n, 4)
    pts = data[:_chart_count(k, top)]
    polys = _newton_powersums(k, top)
    for pt in pts:
        for m in range(1, top + 1):
            if not (polys[m].evaluate(pt["nus"]) - pt["p"][m]).is_zero():
                return {"ok": False, "n": m}
    return {"ok": True, "n": top, "points": len(pts),
            "bound": _bound(pts, 8 * k + 2 * top)}


def _init_residuals(k, nus, init1, init2):
    """Residuals of the three initial conditions at the spectral values
    nus (exact scalars, or the chart variables with init1 and init2 as
    constant functions): q^-1 sum d-hat_i - init1, q^-1 sum d_i - init2
    and sum nu_i (d_i - d-hat_i)."""
    idx = range(1, 2 * k + 1)
    d, dh = zip(*(d_value(k, i, nus) for i in idx))
    w = [nus[i] * (d[i - 1] - dh[i - 1]) for i in idx]
    return (sum(dh[1:], dh[0]) * QINV - init1,
            sum(d[1:], d[0]) * QINV - init2,
            sum(w[1:], w[0]))


def parameterization_checks(k, seed=0):
    """The d-ratio relation, the three initial conditions, and the
    w-function evaluations; the initial conditions symbolically at k = 1,
    at sampled chart points above.  The d-ratio relation d_i =
    (nu_i^2 - q^-4 nu_0^2)/(nu_i^2 - q^-2 nu_0^2) d-hat_i is checked
    symbolically on the two `pair_factors` alone: d_i and d-hat_i are one
    nonzero rational function, the shared product P_i, times each of them
    (`d_value`), and cancelling P_i is an equivalence in a field."""
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
        residuals = [_init_residuals(k, nus, one * init1, one * init2)]
    else:
        charts = _charts(k, 2, seed)
        residuals = [_init_residuals(k, spectral_values(k, chart), init1,
                                     init2) for chart in charts]
    for tag, values in zip(("init-1", "init-2", "init-3"), zip(*residuals)):
        out[tag] = all(r.is_zero() for r in values)
    out["ok"] = all(v for key, v in out.items() if key != "k")
    if charts:
        out["points"] = len(charts)
        out["bound"] = _bound(charts, 8 * k)
    return out
