"""Spectral-variable parameterization of the symplectic characteristic
subalgebra.

The algebra of spectral variables has commuting generators nu_0 .. nu_2k
subject to nu_j nu_{2k+1-j} = nu_0^2 for j = 1..k.  Characteristic
elements map to symmetric functions of the nu's; power sums acquire
rational coefficients d_i.  Rational identities are certified by exact
evaluation at admissible integer points, symbolically where cheap.
"""
from __future__ import annotations

import operator
import random

from .domains import QQ
from .scalar import LAMBDA, ONE, Q, QINV, QScalar, ZERO, q_int
from .sparse import add_into, product


def mu_of(k):
    """Skew eigenvalue parameter of the symplectic-type R-matrix."""
    return -QScalar.q_power(-1 - 2 * k)


# ---------------------------------------------------------------------------
# Sparse polynomials {exponent tuple: QScalar}, shared by SpectralPoly and
# the numerators and denominators of SpectralRational.

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


# ---------------------------------------------------------------------------
# Polynomials in the spectral variables, kept in normal form.

class SpectralPoly:
    """Polynomial in nu_0..nu_2k over exact scalars; monomials carry no
    paired product nu_j nu_{2k+1-j} (rewritten to nu_0^2)."""

    __slots__ = ("k", "terms")

    def __init__(self, k, terms):
        self.k = k
        self.terms = _normalize(k, terms)

    @classmethod
    def zero(cls, k):
        return cls(k, {})

    @classmethod
    def constant(cls, k, c):
        return cls(k, {(0,) * (2 * k + 1): c})

    @classmethod
    def variable(cls, k, i, power=1):
        if not 0 <= i <= 2 * k:
            raise ValueError(f"nu_{i} outside 0..{2 * k}")
        e = [0] * (2 * k + 1)
        e[i] = power
        return cls(k, {tuple(e): ONE})

    def __add__(self, other):
        return SpectralPoly(self.k, _padd(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def __mul__(self, other):
        return SpectralPoly(self.k, _pmul(self.terms, other.terms))

    def scale(self, c):
        return SpectralPoly(self.k, _pscale(self.terms, c))

    def __eq__(self, other):
        return self.k == other.k and (self - other).is_zero()

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, vals):
        """Value at vals[0..2k] (exact scalars)."""
        acc = ZERO
        for e, c in self.terms.items():
            t = c
            for i, p in enumerate(e):
                if p:
                    t = t * vals[i] ** p
            acc = acc + t
        return acc

    def to_text(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            gens = " ".join(f"nu{i}^{p}" if p > 1 else f"nu{i}"
                            for i, p in enumerate(e) if p)
            c = f"({self.terms[e]})"
            bits.append(f"{c} * {gens}" if gens else c)
        return " + ".join(bits)

    def __repr__(self):
        return f"SpectralPoly(k={self.k}, {len(self.terms)} terms)"


def _unpaired(k, e):
    """Exponent e with each pair nu_j nu_{2k+1-j} rewritten to nu_0^2."""
    e = list(e)
    for j in range(1, k + 1):
        m = min(e[j], e[2 * k + 1 - j])
        if m:
            e[j] -= m
            e[2 * k + 1 - j] -= m
            e[0] += 2 * m
    return tuple(e)


def _normalize(k, terms):
    return add_into({}, ((_unpaired(k, e), c) for e, c in terms.items()), QQ)


def reduce(p):
    """Normal form (idempotent; construction already normalizes)."""
    return SpectralPoly(p.k, p.terms)


# -- symmetric-function builders --------------------------------------------

def _sym_dp(k, args, n, homogeneous):
    """e_0..e_n (or, with homogeneous=True, h_0..h_n) of the arguments."""
    rows = [SpectralPoly.constant(k, ONE)] + [SpectralPoly.zero(k)] * n
    for arg in args:
        if homogeneous:
            for i in range(1, n + 1):
                rows[i] = rows[i] + arg * rows[i - 1]
        else:
            for i in range(n, 0, -1):
                rows[i] = rows[i] + arg * rows[i - 1]
    return rows


def _base_args(k):
    return [SpectralPoly.variable(k, i) for i in range(1, 2 * k + 1)]


def elementary(k, i):
    """e_i(nu_1 .. nu_2k), reduced."""
    if i < 0 or i > 2 * k:
        return SpectralPoly.zero(k)
    return _sym_dp(k, _base_args(k), i, homogeneous=False)[i]


def elementary_extended(k, i):
    """e_i(nu_0, -nu_0, nu_1 .. nu_2k), reduced."""
    if i < 0 or i > 2 * k + 2:
        return SpectralPoly.zero(k)
    nu0 = SpectralPoly.variable(k, 0)
    args = [nu0, nu0.scale(-ONE)] + _base_args(k)
    return _sym_dp(k, args, i, homogeneous=False)[i]


def complete(k, n):
    """h_n(nu_1 .. nu_2k), reduced."""
    if n < 0:
        return SpectralPoly.zero(k)
    return _sym_dp(k, _base_args(k), n, homogeneous=True)[n]


def pi_hom(k, symbol, i=1):
    """Spectral image of a characteristic element.

    symbol: "g", "a", "eps", "s", or "p"; the power-sum image is produced
    as a polynomial by solving the Newton recursion from the a-images.
    """
    if symbol == "g":
        return SpectralPoly.variable(k, 0, 2)
    if symbol == "a":
        return elementary_extended(k, i)
    if symbol == "s":
        return complete(k, i)
    if symbol == "eps":
        if not 0 <= i <= 2 * k:
            raise ValueError(f"epsilon_{i} outside 0..{2 * k}")
        if i > k:
            g = pi_hom(k, "g")
            out = pi_hom(k, "eps", 2 * k - i)
            for _ in range(i - k):
                out = out * g
            return out
        out = SpectralPoly.zero(k)
        g = pi_hom(k, "g")
        gp = SpectralPoly.constant(k, ONE)
        j = 0
        while i - 2 * j >= 0:
            out = out + elementary_extended(k, i - 2 * j) * gp
            gp = gp * g
            j += 1
        return out
    if symbol == "p":
        return _newton_powersums(k, i)[i]
    raise ValueError(f"unknown symbol {symbol!r}")


def _newton_powersums(k, n):
    """p_1..p_n images solved from the Newton recursion for the a-series."""
    mu = mu_of(k)
    g = pi_hom(k, "g")
    p = [SpectralPoly.zero(k)]
    for m in range(1, n + 1):
        acc = SpectralPoly.zero(k)
        sign = ONE if m % 2 else -ONE  # (-1)^{m-1}
        acc = acc + pi_hom(k, "a", m).scale(sign * q_int(m))
        gp = g
        for i in range(1, m // 2 + 1):
            c = _newton_coeff(mu, m, i)
            acc = acc - (pi_hom(k, "a", m - 2 * i) * gp).scale(sign * c)
            gp = gp * g
        for i in range(1, m):
            acc = acc - (pi_hom(k, "a", i) * p[m - i]).scale((-Q) ** i)
        p.append(acc)
    return p


def _newton_coeff(mu, m, i):
    """mu q^(m-2i) - q^(1-m+2i), the coefficient of a_(m-2i) g^i in the
    first Newton relation at degree m."""
    return mu * QScalar.q_power(m - 2 * i) - QScalar.q_power(1 - m + 2 * i)


def sym_identities(k, i):
    """The two elementary-symmetric identities behind the epsilon images."""
    lhs = elementary_extended(k, i)
    rhs = elementary(k, i) - SpectralPoly.variable(k, 0, 2) * elementary(k, i - 2)
    if not (lhs - rhs).is_zero():
        return False
    if 1 <= i <= k:
        lhs2 = elementary(k, k + i)
        rhs2 = SpectralPoly.variable(k, 0, 2 * i) * elementary(k, k - i)
        if not (lhs2 - rhs2).is_zero():
            return False
    return True


def expansion_coefficients(k, order=None):
    """Expand prod_i (X - q nu_i), i = 1..2k, as a polynomial in an
    abstract commuting power symbol X; returns coefficients of X^j,
    j = 0..2k.  `order` optionally permutes the factors."""
    idx = list(order) if order is not None else list(range(1, 2 * k + 1))
    coeffs = [SpectralPoly.constant(k, ONE)]
    for i in idx:
        root = SpectralPoly.variable(k, i).scale(Q)
        nxt = [SpectralPoly.zero(k) for _ in range(len(coeffs) + 1)]
        for j, c in enumerate(coeffs):
            nxt[j + 1] = nxt[j + 1] + c
            nxt[j] = nxt[j] - root * c
        coeffs = nxt
    return coeffs


def factor_check(k, mode="auto", seed=0):
    """Expand the factorized characteristic product and confirm each
    power-symbol coefficient equals the corresponding (-q)^i epsilon
    image, exactly for small k, by admissible-point evaluation above."""
    if mode == "auto":
        mode = "exact" if k <= 2 else "evaluate"
    coeffs = expansion_coefficients(k)
    targets = [pi_hom(k, "eps", i).scale((-Q) ** i)
               for i in range(2 * k + 1)]
    if mode == "exact":
        for i in range(2 * k + 1):
            if not (coeffs[2 * k - i] - targets[i]).is_zero():
                return {"ok": False, "i": i, "mode": mode}
        return {"ok": True, "mode": mode, "checked": 2 * k + 1}
    count = _point_count(k, 2 * k)
    rng = random.Random(seed)
    for _ in range(count):
        nus = spectral_values(k, sample_chart(k, rng))
        for i in range(2 * k + 1):
            diff = coeffs[2 * k - i].evaluate(nus) - targets[i].evaluate(nus)
            if not diff.is_zero():
                return {"ok": False, "i": i, "mode": mode, "points": count}
    return {"ok": True, "mode": mode, "checked": 2 * k + 1, "points": count}


# ---------------------------------------------------------------------------
# Rational functions on the chart nu_{2k+1-j} = nu_0^2 / nu_j.

class SpectralRational:
    """Ratio of polynomials in the chart variables nu_0, nu_1 .. nu_k."""

    __slots__ = ("k", "num", "den")

    def __init__(self, k, num, den):
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        self.k = k
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, k, c):
        one = {(0,) * (k + 1): ONE}
        return cls(k, _pscale(one, c), dict(one))

    @classmethod
    def nu(cls, k, i):
        """Chart image of nu_i for any 0 <= i <= 2k."""
        one = {(0,) * (k + 1): ONE}
        if i <= k:
            e = [0] * (k + 1)
            e[i] = 1
            return cls(k, {tuple(e): ONE}, dict(one))
        j = 2 * k + 1 - i
        e0 = [0] * (k + 1)
        e0[0] = 2
        ej = [0] * (k + 1)
        ej[j] = 1
        return cls(k, {tuple(e0): ONE}, {tuple(ej): ONE})

    def __add__(self, other):
        return SpectralRational(
            self.k,
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def __mul__(self, other):
        return SpectralRational(self.k, _pmul(self.num, other.num),
                                _pmul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero rational")
        return SpectralRational(self.k, _pmul(self.num, other.den),
                                _pmul(self.den, other.num))

    def scale(self, c):
        return SpectralRational(self.k, _pscale(self.num, c), dict(self.den))

    def is_zero(self):
        # Numerators stay expanded with exact coefficients, so the
        # function is zero iff the numerator polynomial is empty.
        return not self.num

    def __eq__(self, other):
        diff = _padd(_pmul(self.num, other.den),
                     _pscale(_pmul(other.num, self.den), -ONE))
        return not diff

    def evaluate(self, chart_vals):
        return (_eval_chart(self.num, chart_vals)
                / _eval_chart(self.den, chart_vals))

    def __repr__(self):
        return (f"SpectralRational(k={self.k}, {len(self.num)}/"
                f"{len(self.den)} terms)")


def _eval_chart(poly, vals):
    acc = ZERO
    for e, c in poly.items():
        t = c
        for i, p in enumerate(e):
            if p:
                t = t * vals[i] ** p
        acc = acc + t
    return acc


def d_coefficient(k, i, hat=False):
    """The rational d_i (or the unpaired variant with hat=True)."""
    if not 1 <= i <= 2 * k:
        raise ValueError(f"d_{i} outside 1..{2 * k}")
    nu = [SpectralRational.nu(k, j) for j in range(2 * k + 1)]
    qm2 = SpectralRational.constant(k, QScalar.q_power(-2))
    out = SpectralRational.constant(k, ONE)
    if hat:
        skip = {i}
    else:
        skip = {i, 2 * k + 1 - i}
        qm4 = SpectralRational.constant(k, QScalar.q_power(-4))
        pair = nu[2 * k + 1 - i]
        out = (nu[i] - qm4 * pair) / (nu[i] - pair)
    for j in range(1, 2 * k + 1):
        if j in skip:
            continue
        out = out * ((nu[i] - qm2 * nu[j]) / (nu[i] - nu[j]))
    return out


def d_value(k, i, nus, hat=False):
    """Value of d_i (or the hat variant) at exact spectral values."""
    if hat:
        skip = {i}
        out = ONE
    else:
        skip = {i, 2 * k + 1 - i}
        pair = nus[2 * k + 1 - i]
        out = (nus[i] - QScalar.q_power(-4) * pair) / (nus[i] - pair)
    for j in range(1, 2 * k + 1):
        if j in skip:
            continue
        out = out * (nus[i] - QScalar.q_power(-2) * nus[j]) / (nus[i] - nus[j])
    return out


def powersum_param(k, n):
    """Rational image of the n-th power sum: q^{n-1} sum_i d_i nu_i^n."""
    acc = SpectralRational.constant(k, ZERO)
    nu = [SpectralRational.nu(k, j) for j in range(2 * k + 1)]
    for i in range(1, 2 * k + 1):
        term = d_coefficient(k, i)
        for _ in range(n):
            term = term * nu[i]
        acc = acc + term
    return acc.scale(QScalar.q_power(n - 1))


def w_function(k, which, z):
    """w_1, w_2, or w_3 evaluated at the chart rational z."""
    nu = [SpectralRational.nu(k, j) for j in range(2 * k + 1)]
    qm2 = SpectralRational.constant(k, QScalar.q_power(-2))
    w = SpectralRational.constant(k, ONE)
    for i in range(1, 2 * k + 1):
        w = w * ((z - qm2 * nu[i]) / (z - nu[i]))
    if which == 1:
        return w
    nu0sq = nu[0] * nu[0]
    w = nu0sq * w / (z * z - qm2 * nu0sq)
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
        vals = rng.sample(range(2, 10 ** 6), k + 1)
        chart = [QScalar.from_int(v) for v in vals]
        nus = spectral_values(k, chart)
        seen = set()
        ok = True
        for v in nus[1:]:
            key = str(v)
            if key in seen:
                ok = False
                break
            seen.add(key)
        if ok:
            return chart


def spectral_values(k, chart):
    """All values nu_0..nu_2k from chart values nu_0..nu_k."""
    nus = list(chart) + [ZERO] * k
    sq = chart[0] * chart[0]
    for j in range(1, k + 1):
        nus[2 * k + 1 - j] = sq / chart[j]
    return nus


def _value_elementary(args, n):
    rows = [ONE] + [ZERO] * n
    for a in args:
        for i in range(n, 0, -1):
            rows[i] = rows[i] + a * rows[i - 1]
    return rows


def _value_complete(args, n):
    rows = [ONE] + [ZERO] * n
    for a in args:
        for i in range(1, n + 1):
            rows[i] = rows[i] + a * rows[i - 1]
    return rows


def _point_data(k, chart, n):
    """Values of a_i, s_i, p_i, g (and the d_i) at one chart point."""
    nus = spectral_values(k, chart)
    base = nus[1:]
    ext = [nus[0], -nus[0]] + base
    a_vals = _value_elementary(ext, n)
    s_vals = _value_complete(base, n)
    d_vals = [None] + [d_value(k, i, nus) for i in range(1, 2 * k + 1)]
    p_vals = [QINV * sum(d_vals[1:], ZERO)]
    for m in range(1, n + 1):
        acc = ZERO
        for i in range(1, 2 * k + 1):
            acc = acc + d_vals[i] * nus[i] ** m
        p_vals.append(QScalar.q_power(m - 1) * acc)
    return {"nus": nus, "a": a_vals, "s": s_vals, "p": p_vals,
            "g": nus[0] * nus[0], "d": d_vals}


def _point_count(k, n):
    """Evaluation-point budget: per-variable degree bound + 1.  Cleared
    denominators have per-variable degree at most 4k from the d_i plus n
    from the power, with a safety margin."""
    return 4 * k + 2 * n + 3


def newton_check(k, n, seed=0):
    """Certify the two Newton relations at degrees 1..n with rational
    power-sum images, by exact evaluation at admissible points."""
    mu = mu_of(k)
    count = _point_count(k, n)
    rng = random.Random(seed)
    for _ in range(count):
        data = _point_data(k, sample_chart(k, rng), n)
        a, s, p, g = data["a"], data["s"], data["p"], data["g"]
        for m in range(1, n + 1):
            lhs_a = ZERO
            lhs_s = ZERO
            for i in range(m):
                lhs_a = lhs_a + ((-Q) ** i) * a[i] * p[m - i]
                lhs_s = lhs_s + QScalar.q_power(-i) * s[i] * p[m - i]
            sign = ONE if m % 2 else -ONE
            rhs_a = sign * q_int(m) * a[m]
            rhs_s = q_int(m) * s[m]
            gp = g
            for i in range(1, m // 2 + 1):
                rhs_a = rhs_a - sign * _newton_coeff(mu, m, i) \
                    * a[m - 2 * i] * gp
                rhs_s = rhs_s + (mu * QScalar.q_power(2 * i - m)
                                 + QScalar.q_power(m - 2 * i - 1)) \
                    * s[m - 2 * i] * gp
                gp = gp * g
            if not (lhs_a - rhs_a).is_zero():
                return {"ok": False, "relation": "newton-a", "n": m,
                        "points": count, "residual": str(lhs_a - rhs_a)}
            if not (lhs_s - rhs_s).is_zero():
                return {"ok": False, "relation": "newton-s", "n": m,
                        "points": count, "residual": str(lhs_s - rhs_s)}
    return {"ok": True, "n": n, "points": count}


def wronski_modified(k, n, seed=0):
    """Certify the modified Newton and Wronski relations built from the
    auxiliary s' and p' iterations, by exact evaluation."""
    mu = mu_of(k)
    count = _point_count(k, n)
    rng = random.Random(seed)
    for _ in range(count):
        data = _point_data(k, sample_chart(k, rng), n)
        a, s, p, g = data["a"], data["s"], data["p"], data["g"]
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
                        "points": count,
                        "residual": str(lhs - q_int(m) * s[m])}
        for m in range(n + 1):
            lhs = ZERO
            for i in range(m + 1):
                sgn = ONE if i % 2 == 0 else -ONE
                lhs = lhs + sgn * a[i] * sp[m - i]
            target = ONE if m == 0 else ZERO
            if not (lhs - target).is_zero():
                return {"ok": False, "relation": "mod-w", "n": m,
                        "points": count, "residual": str(lhs - target)}
    return {"ok": True, "n": n, "points": count}


def newton_closure(k, seed=0):
    """Solve the first Newton relation for a_n at sampled points and
    match the elementary-symmetric images, n <= k."""
    mu = mu_of(k)
    count = _point_count(k, k)
    rng = random.Random(seed)
    for _ in range(count):
        data = _point_data(k, sample_chart(k, rng), k)
        a, p, g = data["a"], data["p"], data["g"]
        for n in range(1, k + 1):
            acc = ZERO
            for i in range(n):
                acc = acc + ((-Q) ** i) * a[i] * p[n - i]
            sign = ONE if n % 2 else -ONE
            gp = g
            for i in range(1, n // 2 + 1):
                acc = acc + sign * _newton_coeff(mu, n, i) * a[n - 2 * i] * gp
                gp = gp * g
            solved = sign * acc / q_int(n)
            if not (solved - a[n]).is_zero():
                return {"ok": False, "n": n, "points": count}
    return {"ok": True, "points": count}


def polynomiality_check(k, n, seed=0):
    """Stretch check: the rational power-sum image agrees with the
    polynomial produced by solving the Newton recursion."""
    count = _point_count(k, n)
    rng = random.Random(seed)
    polys = _newton_powersums(k, n)
    for _ in range(count):
        data = _point_data(k, sample_chart(k, rng), n)
        for m in range(1, n + 1):
            if not (polys[m].evaluate(data["nus"]) - data["p"][m]).is_zero():
                return {"ok": False, "n": m, "points": count}
    return {"ok": True, "n": n, "points": count}


def parameterization_checks(k, seed=0):
    """The d-ratio relation, the three initial conditions, and the
    w-function evaluations."""
    out = {"k": k}
    mu = mu_of(k)
    one = SpectralRational.constant(k, ONE)
    nu0 = SpectralRational.nu(k, 0)
    # w_1(+-q^{-1} nu_0) = q^{-2k} and w_2(0) = -q^{2-4k}, symbolically.
    for sgn, tag in ((ONE, "w1+"), (-ONE, "w1-")):
        val = w_function(k, 1, nu0.scale(sgn * QINV))
        out[tag] = val == one.scale(QScalar.q_power(-2 * k))
    out["w2-zero"] = (w_function(k, 2, SpectralRational.constant(k, ZERO))
                      == one.scale(-QScalar.q_power(2 - 4 * k)))
    # d_i = (nu_i^2 - q^-4 nu_0^2)/(nu_i^2 - q^-2 nu_0^2) * d-hat_i,
    # symbolically by cross-multiplication.
    ok = True
    for i in range(1, 2 * k + 1):
        nui = SpectralRational.nu(k, i)
        ratio = ((nui * nui - (nu0 * nu0).scale(QScalar.q_power(-4)))
                 / (nui * nui - (nu0 * nu0).scale(QScalar.q_power(-2))))
        ok = ok and d_coefficient(k, i) == ratio * d_coefficient(k, i, hat=True)
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
        nu = [SpectralRational.nu(k, j) for j in range(2 * k + 1)]
        dsum = SpectralRational.constant(k, ZERO)
        dhatsum = SpectralRational.constant(k, ZERO)
        wsum = SpectralRational.constant(k, ZERO)
        for i in range(1, 2 * k + 1):
            di = d_coefficient(k, i)
            dhi = d_coefficient(k, i, hat=True)
            dsum = dsum + di
            dhatsum = dhatsum + dhi
            wsum = wsum + nu[i] * (di - dhi)
        out["init-1"] = dhatsum.scale(QINV) == one.scale(init1)
        out["init-2"] = dsum.scale(QINV) == one.scale(init2)
        out["init-3"] = wsum.is_zero()
    else:
        count = _point_count(k, 2)
        rng = random.Random(seed)
        ok1 = ok2 = ok3 = True
        for _ in range(count):
            nus = spectral_values(k, sample_chart(k, rng))
            dv = [None] + [d_value(k, i, nus) for i in range(1, 2 * k + 1)]
            dh = [None] + [d_value(k, i, nus, hat=True)
                           for i in range(1, 2 * k + 1)]
            s1 = sum(dh[1:], ZERO)
            s2 = sum(dv[1:], ZERO)
            s3 = sum((nus[i] * (dv[i] - dh[i])
                      for i in range(1, 2 * k + 1)), ZERO)
            ok1 = ok1 and (QINV * s1 - init1).is_zero()
            ok2 = ok2 and (QINV * s2 - init2).is_zero()
            ok3 = ok3 and s3.is_zero()
        out["init-1"] = ok1
        out["init-2"] = ok2
        out["init-3"] = ok3
        out["points"] = count
    out["ok"] = all(v for key, v in out.items()
                    if key not in ("k", "points"))
    return out
