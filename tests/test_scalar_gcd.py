"""Property tests of the multi-term QScalar gcd (GCDHEU with the primitive
remainder sequence as fallback) and of the gcd-free inv and __pow__.

They need hypothesis and are skipped without it; the example-based QScalar
tests in test_scalar.py need only pytest.
"""
import pytest

from qch import scalar as sc
from qch.scalar import ONE, ZERO, QScalar

from test_scalar import _assert_canonical, _canonical_via_prs, bar

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings


def _product(polys):
    out = {0: 1}
    for p in polys:
        out = sc.lp_mul(out, p)
    return out


COEFF = st.integers(-10 ** 6, 10 ** 6).filter(bool)
LAURENT = st.dictionaries(st.integers(-4, 6), COEFF, min_size=1, max_size=4)
# common factors to plant on both sides: a q-power, an integer content with
# either sign, (q - 1)^m, or a product of q^j + 1
FACTOR = st.one_of(
    st.integers(-3, 3).map(lambda e: {e: 1}),
    COEFF.map(lambda c: {0: c}),
    st.integers(1, 3).map(lambda m: _product([{1: 1, 0: -1}] * m)),
    st.lists(st.integers(1, 4), min_size=1, max_size=2).map(
        lambda js: _product({j: 1, 0: 1} for j in js)),
)
prop = settings(max_examples=150, deadline=None)


@st.composite
def planted_pairs(draw):
    num, den = draw(LAURENT), draw(LAURENT)
    for f in draw(st.lists(FACTOR, max_size=3)):
        num, den = sc.lp_mul(num, f), sc.lp_mul(den, f)
    return num, den


@prop
@given(planted_pairs())
def test_planted_factors_match_prs(pair):
    num, den = pair
    a = QScalar(num, den)
    assert (a.num, a.den) == _canonical_via_prs(num, den)


@prop
@given(planted_pairs())
def test_prs_fallback_gives_the_same_form(pair):
    num, den = pair
    expected = QScalar(num, den)
    prs_calls = []
    gcd_prs = sc._pl_gcd_prs

    def prs(a, b):
        prs_calls.append(1)
        return gcd_prs(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "_pl_gcd_heu", lambda a, b: None)
        mp.setattr(sc, "_pl_gcd_prs", prs)
        assert QScalar(num, den) == expected
    assert bool(prs_calls) == (len(num) > 1 and len(den) > 1)


@prop
@given(LAURENT, LAURENT, st.integers(-3, 4))
def test_inv_and_pow_match_canonicalizing_products(num, den, n):
    a = QScalar(num, den)
    assert a.inv() == QScalar(a.den, a.num)
    base = a if n >= 0 else QScalar(a.den, a.num)
    expected = ONE
    for _ in range(abs(n)):
        expected = expected * base
    assert a ** n == expected


# -- closed forms with a Laurent or single-term operand -----------------------

CONTENT = st.sampled_from((1, -1, 2, -6, 12, 35))
# a Laurent value with negative exponents and an integer content
LAURENT_VALUE = st.builds(
    lambda n, c: QScalar({e: c * v for e, v in n.items()}), LAURENT, CONTENT)
# a value with a denominator other than 1, its sides with a content
RATIONAL_VALUE = st.builds(
    lambda n, d, c, f: QScalar({e: c * v for e, v in n.items()},
                               {e: f * v for e, v in d.items()}),
    LAURENT, LAURENT, CONTENT, CONTENT).filter(lambda a: a.den != {0: 1})
# c*q^e / d, one term on both sides
TERM_VALUE = st.builds(
    lambda e, c, d: QScalar({e: c}, {0: d}), st.integers(-5, 5),
    st.integers(-36, 36).filter(bool), st.integers(1, 36))
VALUE = st.one_of(LAURENT_VALUE, RATIONAL_VALUE, TERM_VALUE)


def _assert_is_canonicalized(r, num, den):
    """r is the general canonical form of the unreduced num / den."""
    if num:
        assert (r.num, r.den) == _canonical_via_prs(num, den)
    else:
        assert r == ZERO
    _assert_canonical(r)


@prop
@given(st.one_of(LAURENT_VALUE, TERM_VALUE), VALUE)
def test_closed_forms_match_the_general_canonicalization(a, b):
    # L*L, L+L, L+R, R+L and a single term times anything, in both orders
    for x, y in ((a, b), (b, a)):
        _assert_is_canonicalized(x * y, sc.lp_mul(x.num, y.num),
                                 sc.lp_mul(x.den, y.den))
        _assert_is_canonicalized(
            x + y, sc.lp_add(sc.lp_mul(x.num, y.den), sc.lp_mul(y.num, x.den)),
            sc.lp_mul(x.den, y.den))


@prop
@given(VALUE, VALUE, st.integers(-3, 3))
def test_laurent_values_hold_the_shared_denominator(a, b, n):
    # the shortcuts find a Laurent operand by `den is _LDEN`, so every
    # result equal to a Laurent polynomial must hold it, also after a
    # cancellation: (a * b) / b and (a + b) - b are a again
    results = [a + b, a - b, a * b, -a, bar(a), (a + b) - b]
    if b:
        results += [a / b, b.inv(), (a * b) / b, b * b.inv()]
    if a:
        results.append(a ** n)
    for r in results:
        _assert_canonical(r)
    assert (a + b) - b == a
    if b:
        assert (a * b) / b == a and b * b.inv() == ONE
        assert (b * b.inv()).den is sc._LDEN


def test_constructors_give_laurent_values_the_shared_denominator():
    values = [QScalar({-2: 3, 1: 1}), QScalar({-2: 3}, {0: 1}),
              QScalar({3: 6, -1: 4}, {5: 2}), QScalar({2: 1, 0: -1},
                                                       {1: 1, 0: -1}),
              QScalar({0: 8}, {0: 4}), QScalar.from_int(-5),
              QScalar.laurent({-4: 1, 0: 0}), QScalar.q_power(-3),
              QScalar({0: 2}, {0: 6}) * QScalar.from_int(3),
              bar(QScalar({0: 1}, {1: 1, 0: 1}) * QScalar({1: 1, 0: 1}))]
    for a in values:
        assert a.den is sc._LDEN
    assert [a.num for a in values[:3]] == [{-2: 3, 1: 1}, {-2: 3},
                                           {-2: 3, -6: 2}]
