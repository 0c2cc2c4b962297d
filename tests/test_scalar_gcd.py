"""Property tests of the multi-term QScalar gcd (GCDHEU with the primitive
remainder sequence as fallback) and of the gcd-free inv and __pow__.

They need hypothesis and are skipped without it; the example-based QScalar
tests in test_scalar.py need only pytest.
"""
import pytest

from qch import scalar as sc
from qch.scalar import ONE, QScalar

from test_scalar import _canonical_via_prs

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
