import math
import random

import pytest

from qch import scalar as sc
from qch.scalar import (
    ONE, ZERO, Q, QINV, LAMBDA, QScalar, InadmissiblePointError, PrimePoint,
    q_int, sample_points, scalar_to_text,
)


def _rand_scalar(rng, size=3, span=4):
    num = {rng.randrange(-span, span + 1): rng.randrange(-9, 10)
           for _ in range(rng.randrange(1, size + 1))}
    den = {}
    while not den or all(c == 0 for c in den.values()):
        den = {rng.randrange(-span, span + 1): rng.randrange(-9, 10)
               for _ in range(rng.randrange(1, size + 1))}
    return QScalar(num, den)


def test_canonical_form_examples():
    # (q^2 - 1)/(q - 1) reduces to q + 1
    a = QScalar({2: 1, 0: -1}, {1: 1, 0: -1})
    assert a == Q + ONE
    # common content and q-powers are stripped
    b = QScalar({3: 2, 1: -2}, {2: 4})
    assert b == (Q - QINV) * QScalar({0: 1}, {0: 2})
    # denominator lowest coefficient positive
    c = QScalar({0: 1}, {0: -2, 1: -2})
    assert c.den[0] > 0


@pytest.mark.parametrize("num, den, want", [
    # zero coefficients passed in are dropped, on either side and on the
    # single-term and multi-term paths, and a numerator of zeros is zero
    ({0: 3, 2: 0}, {0: 1}, ("3", {0: 3}, {0: 1})),
    ({0: 3}, {1: 0, 0: 2}, ("3 / 2", {0: 3}, {0: 2})),
    ({2: 1, 1: 0, 0: -1}, {1: 1, 3: 0, 0: -1}, ("q + 1", {1: 1, 0: 1},
                                                {0: 1})),
    ({4: 0}, {0: 5}, ("0", {}, {0: 1})),
])
def test_zero_coefficients_passed_in_are_dropped(num, den, want):
    a = QScalar(num, den)
    assert (str(a), a.num, a.den) == want
    assert 0 not in a.num.values() and 0 not in a.den.values()


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(120):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == ZERO
        if not b.is_zero():
            assert (a / b) * b == a


def test_q_int_values():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(2) == Q + QINV
    assert q_int(3) == Q * Q + ONE + QINV * QINV
    assert q_int(-2) == -q_int(2)
    # defining property n_q * (q - q^-1) = q^n - q^-n
    for n in range(-5, 6):
        assert q_int(n) * LAMBDA == QScalar.q_power(n) - QScalar.q_power(-n)


def bar(a):
    """The involution q -> q^-1 of a QScalar."""
    return QScalar({-e: c for e, c in a.num.items()},
                   {-e: c for e, c in a.den.items()})


def test_bar_involution():
    rng = random.Random(5)
    for _ in range(60):
        a = _rand_scalar(rng)
        assert bar(bar(a)) == a
    assert bar(Q) == QINV
    assert bar(q_int(3)) == q_int(3)


def test_reduce_mod_is_homomorphism():
    pt = PrimePoint(101, 3, 8)
    assert pt.reduce(QINV) == 34  # 3 * 34 = 102 = 1 mod 101
    assert pt.reduce(LAMBDA) == (3 - 34) % 101 == 70
    rng = random.Random(7)
    for _ in range(80):
        a, b = _rand_scalar(rng), _rand_scalar(rng)
        try:
            ra, rb = pt.reduce(a), pt.reduce(b)
            assert pt.reduce(a + b) == (ra + rb) % pt.p
            assert pt.reduce(a * b) == (ra * rb) % pt.p
        except InadmissiblePointError:
            pass  # a random denominator may vanish at the point


def test_prime_point_guards():
    # qhat = 1 violates the guard
    try:
        PrimePoint(101, 1, 4)
        assert False
    except InadmissiblePointError:
        pass
    # 10^2 = 100 = -1 mod 101, so qhat=10 has qhat^4 = 1
    try:
        PrimePoint(101, 10, 4)
        assert False
    except InadmissiblePointError:
        pass
    pts = sample_points(0, 3, 12)
    assert len(pts) == 3
    assert len({pt.p for pt in pts}) == 3
    for pt in pts:
        assert pt.p > 2 ** 30
        assert pt.check() is None
    # deterministic under the same seed
    pts2 = sample_points(0, 3, 12)
    assert [(a.p, a.qhat) for a in pts] == [(b.p, b.qhat) for b in pts2]


def _is_prime(n):
    # Miller-Rabin with bases 2, 3, 5, 7 is exact below 3,215,031,751
    if n < 2 or n % 2 == 0:
        return n == 2
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        if n == a:
            return True
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_pool_is_the_largest_primes_below_2_31():
    pool = sc._PRIME_POOL
    assert len(pool) == sc.PRIME_POOL_SIZE
    assert all(a > b for a, b in zip(pool, pool[1:]))
    assert all(_is_prime(p) for p in pool)
    assert not any(_is_prime(n) for n in range(pool[0] + 1, 2 ** 31))
    for hi, lo in zip(pool, pool[1:]):
        assert not any(_is_prime(n) for n in range(lo + 1, hi))


def test_joint_point_reduces_to_each_point():
    pts = sample_points(4, 3, 12)
    joint = sc.joint_point(pts)
    assert joint.p == math.prod(pt.p for pt in pts)
    assert [joint.qhat % pt.p for pt in pts] == [pt.qhat for pt in pts]
    rng = random.Random(11)
    xs = [_rand_scalar(rng, size=4) for _ in range(200)]
    # a denominator q - qhat that vanishes at one point only
    xs += [ONE / QScalar.laurent({1: 1, 0: -pt.qhat}) for pt in pts]
    multi = raised = 0
    for x in xs:
        multi += len(x.den) > 1
        at = []
        for pt in pts:
            try:
                at.append(pt.reduce(x))
            except InadmissiblePointError:
                at.append(None)
        try:
            got = joint.reduce(x)
        except InadmissiblePointError:
            assert at.count(None) == 1
            raised += 1
            continue
        assert [got % pt.p for pt in pts] == at
    assert multi > 50 and raised == 3


def test_lp_eval_mod_negative_exponents_at_composite_modulus():
    pts = sample_points(2, 2, 12)
    joint = sc.joint_point(pts)
    m, qh = joint.p, joint.qhat
    a = {-3: 5, -1: -2, 0: 7, 2: 1}
    inv = pow(qh, -1, m)
    want = (5 * inv ** 3 - 2 * inv + 7 + qh ** 2) % m
    assert sc.lp_eval_mod(a, qh, m) == want
    assert [want % pt.p for pt in pts] == [
        sc.lp_eval_mod(a, pt.qhat, pt.p) for pt in pts]


def test_reduce_with_negative_exponents_against_direct_evaluation():
    # Laurent values and fractions whose numerators have negative exponents
    values = [QScalar.laurent({-3: 5, -1: -2, 0: 7, 2: 1}), QINV ** 4,
              QScalar({-3: 5, -1: -2, 0: 7, 2: 1}, {0: 3, 1: 1}),
              QScalar({-2: -4}, {0: 9}), QINV / (Q + ONE)]
    assert all(min(a.num) < 0 for a in values)
    pts = sample_points(6, 3, 12)
    for pt in pts + [sc.joint_point(pts)]:
        m, qh = pt.p, pt.qhat
        qi = pow(qh, -1, m)

        def at(lp):
            return sum(c * (pow(qh, e, m) if e >= 0 else pow(qi, -e, m))
                       for e, c in lp.items())

        for a in values:
            assert pt.reduce(a) == at(a.num) * pow(at(a.den), -1, m) % m


def test_text_form():
    assert scalar_to_text(QScalar({2: 1, 0: -2, -1: 3})) == \
        "(q^3 - 2*q + 3) / q"
    assert scalar_to_text(QScalar({1: 1, 0: -1}, {1: 1, 0: 1})) == \
        "(q - 1) / (q + 1)"
    assert scalar_to_text(QScalar({3: 2}, {0: 3, 2: -1})) == \
        "2*q^3 / (-q^2 + 3)"
    assert scalar_to_text(LAMBDA) == "(q^2 - 1) / q"
    assert scalar_to_text(QScalar.from_int(-2) * QINV) == "-2 / q"
    assert scalar_to_text(QScalar({0: 3}, {0: 4})) == "3 / 4"
    # a single-term denominator with a coefficient is one factor
    assert scalar_to_text(QScalar({1: 8, 0: -7}, {3: 4})) == \
        "(8*q - 7) / (4*q^3)"
    assert scalar_to_text(Q) == "q"
    assert scalar_to_text(ONE) == "1"
    assert scalar_to_text(ZERO) == "0"


def test_pow_and_inverse():
    a = (Q + ONE) / (Q - QINV)
    assert a ** 3 == a * a * a
    assert a ** -2 == (a * a).inv()
    assert a ** 0 == ONE
    assert a * a.inv() == ONE


# -- the single-term shortcut in QScalar.__init__ ------------------------------

def _canonical_via_prs(num, den):
    """Canonical (num, den) with the primitive-PRS gcd always taken: both
    sides as polynomials, reduced, then divided by the q-power of the
    denominator, whose lowest coefficient is made positive."""
    low = min(min(num), min(den))
    ln = sc._lp_to_list(num, -low, 1)
    ld = sc._lp_to_list(den, -low, 1)
    g = sc._pl_gcd_prs(ln, ld)
    ln, ld = sc._pl_div_exact(ln, g), sc._pl_div_exact(ld, g)
    cg = math.gcd(*ln, *ld)
    t = next(e for e, c in enumerate(ld) if c)
    sign = -1 if ld[t] < 0 else 1
    return ({e - t: sign * c // cg for e, c in enumerate(ln) if c},
            {e - t: sign * c // cg for e, c in enumerate(ld) if c})


def _assert_canonical(a):
    """The canonical form's invariants that need no sympy: a polynomial
    denominator with a positive constant term, joint content 1, and the
    shared denominator on exactly the Laurent values."""
    assert min(a.den) == 0 and a.den[0] > 0
    assert math.gcd(*a.num.values(), *a.den.values()) == 1
    assert (a.den is sc._LDEN) == (a.den == {0: 1})


def _rand_laurent(rng, terms):
    out = {}
    while len(out) < terms:
        out[rng.randrange(-6, 7)] = rng.choice((-1, 1)) * rng.randrange(1, 13)
    return out


def _monomial_pairs(count, seed):
    """(num, den) pairs with at least one single-term side, many with a
    shared content, q-power or polynomial factor to cancel."""
    rng = random.Random(seed)
    for i in range(count):
        sizes = [1, rng.randrange(1, 5)]
        rng.shuffle(sizes)
        num, den = (_rand_laurent(rng, n) for n in sizes)
        if i % 3 == 0:
            common = {rng.randrange(-3, 4): rng.choice((2, -3, 6))}
            num, den = sc.lp_mul(num, common), sc.lp_mul(den, common)
        yield num, den


def test_single_term_shortcut_matches_prs():
    for num, den in _monomial_pairs(400, seed=19):
        a = QScalar(num, den)
        assert (a.num, a.den) == _canonical_via_prs(num, den)
        _assert_canonical(a)


def test_single_term_shortcut_against_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def expr(lp):
        return sum(c * q ** e for e, c in lp.items())

    for num, den in _monomial_pairs(120, seed=23):
        a = QScalar(num, den)
        n, d = expr(a.num), expr(a.den)
        # q^-min(N) N is a polynomial; q is no factor of d, as d(0) != 0
        assert sympy.gcd(sympy.expand(n * q ** -min(a.num)), d) == 1
        assert sympy.cancel(expr(num) / expr(den) - n / d) == 0
        _assert_canonical(a)


# -- the multi-term gcd (GCDHEU, PRS fallback) --------------------------------

def test_rejected_first_point_still_gives_prs_gcd(monkeypatch):
    # (q - 1)(q^2 + 1) / ((q - 1)(q^2 + q + 7)): at x = 31 the integer gcd
    # interpolates to (q - 1)(q + 6), which fails the division check, so the
    # second point (x = 69) gives q - 1
    num = sc.lp_mul({1: 1, 0: -1}, {2: 1, 0: 1})
    den = sc.lp_mul({1: 1, 0: -1}, {2: 1, 1: 1, 0: 7})
    points = []
    interpolate = sc._pl_interpolate

    def spy(v, x):
        points.append(x)
        return interpolate(v, x)

    monkeypatch.setattr(sc, "_pl_interpolate", spy)
    a = QScalar(num, den)
    assert len(points) == 2
    assert (a.num, a.den) == _canonical_via_prs(num, den)
    assert (a.num, a.den) == ({2: 1, 0: 1}, {2: 1, 1: 1, 0: 7})


def test_multi_term_canonical_form_against_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def expr(lp):
        return sum(c * q ** e for e, c in lp.items())

    rng = random.Random(29)
    for _ in range(25):
        common = _rand_laurent(rng, rng.randrange(1, 4))
        num = sc.lp_mul(_rand_laurent(rng, rng.randrange(2, 5)), common)
        den = sc.lp_mul(_rand_laurent(rng, rng.randrange(2, 5)), common)
        if len(num) < 2 or len(den) < 2:
            continue
        a = QScalar(num, den)
        n, d = expr(a.num), expr(a.den)
        assert sympy.gcd(sympy.expand(n * q ** -min(a.num)), d) == 1
        assert sympy.cancel(expr(num) / expr(den) - n / d) == 0
        _assert_canonical(a)


def test_text_form_parses_back_with_sympy():
    # the whole text, as ordinary precedence reads it
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def parse(text):
        return sympy.sympify(text.replace("^", "**"), locals={"q": q})

    rng = random.Random(3)
    for _ in range(60):
        a = _rand_scalar(rng)
        value = sum(c * q ** e for e, c in a.num.items()) / \
            sum(c * q ** e for e, c in a.den.items())
        assert sympy.cancel(parse(scalar_to_text(a)) - value) == 0


# -- closed-form products in QScalar.__mul__ and __truediv__ -------------------

def _general_product(a, b):
    return QScalar(sc.lp_mul(a.num, b.num), sc.lp_mul(a.den, b.den))


def _with_content(rng):
    """A random canonical scalar whose numerator and denominator carry
    coprime integer contents, for a single-term factor to cancel."""
    a = _rand_scalar(rng)
    fn, fd = rng.choice(((1, 1), (2, 3), (4, 9), (6, 1), (1, 12), (5, 4)))
    return QScalar({e: fn * c for e, c in a.num.items()},
                   {e: fd * c for e, c in a.den.items()})


def _rand_term(rng):
    """A single-term scalar c*q^e / (d*q^f), exponents of both signs."""
    c = rng.choice((-1, 1)) * rng.choice((1, 2, 3, 4, 6, 9, 12, 18))
    d = rng.choice((-1, 1)) * rng.choice((1, 2, 3, 4, 6, 8, 12))
    return QScalar({rng.randrange(-4, 5): c}, {rng.randrange(-4, 5): d})


def _rand_polynomial(rng):
    return QScalar.laurent({rng.randrange(0, 6): rng.randrange(-9, 10)
                            for _ in range(rng.randrange(1, 4))})


def _assert_general(r, a, b):
    t = _general_product(a, b)
    assert (r.num, r.den) == (t.num, t.den)


def test_product_by_unit_is_the_operand():
    rng = random.Random(41)
    for _ in range(200):
        a = _with_content(rng)
        for u in (ONE, -ONE):
            for r in (a * u, u * a):
                _assert_general(r, a, u)
        if a.num:
            assert a * ONE is a and ONE * a is a


def test_single_term_products_match_general_path():
    rng = random.Random(43)
    terms = [QScalar({0: 6}, {3: 4}), QScalar({-2: -6}, {1: 4}),
             QScalar({0: 9}, {0: 12}), QScalar({-3: 1}, {0: 1})]
    for i in range(2000):
        a = (_rand_term, _with_content, _rand_polynomial)[i % 3](rng)
        m = terms[i % len(terms)] if i % 5 == 0 else _rand_term(rng)
        _assert_general(a * m, a, m)
        _assert_general(m * a, m, a)


def test_quotients_match_general_path():
    rng = random.Random(53)
    for i in range(1000):
        a = _with_content(rng)
        b = (_rand_term(rng), _with_content(rng), _rand_polynomial(rng),
             -ONE)[i % 4]
        if not a.num or not b.num:
            continue
        for x, y in ((a, b), (b, a)):
            r = x / y
            t = QScalar(sc.lp_mul(x.num, y.den), sc.lp_mul(x.den, y.num))
            assert (r.num, r.den) == (t.num, t.den)
