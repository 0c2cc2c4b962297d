"""Coefficient domains: SpanDomain bounds and F_p pivots at a point."""
from __future__ import annotations

import pytest

from qch.domains import QQ, FpDomain, SpanDomain
from qch.ideal import QuadraticIdeal, point_bound
from qch.qma import AlgebraContext
from qch.rmatrix import build_standard_sp, flip_context
from qch.scalar import (InadmissiblePointError, PrimePoint, QScalar,
                        joint_point, sample_points)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings


def leaves():
    laurent = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                              min_size=1, max_size=3)
    return st.tuples(laurent, laurent).map(
        lambda nd: QScalar(nd[0], nd[1]) if any(nd[1].values())
        else QScalar.laurent(nd[0]))


# an expression tree: a leaf, or (op, subtree, subtree)
trees = st.recursive(
    leaves(),
    lambda sub: st.tuples(st.sampled_from("+-*"), sub, sub),
    max_leaves=10)


def evaluate(tree, dom):
    """(exact value, value in dom) of an expression tree."""
    if isinstance(tree, QScalar):
        return tree, dom.from_scalar(tree)
    op, left, right = tree
    (x, s), (y, t) = evaluate(left, dom), evaluate(right, dom)
    if op == "+":
        return x + y, dom.add(s, t)
    if op == "-":
        return x - y, dom.add(s, dom.neg(t))
    return x * y, dom.mul(s, t)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_span_bounds_exact_degree_span(tree):
    dom = SpanDomain()
    exact, bound = evaluate(tree, dom)
    assert bound.degree_span() >= exact.degree_span()
    assert exact.is_zero() or not dom.is_zero(bound)


def test_span_structural_zero():
    dom = SpanDomain()
    x = dom.from_scalar(QScalar.laurent({1: 1, 3: 2}))
    assert dom.is_zero(dom.from_scalar(QScalar.from_int(0)))
    assert dom.is_zero(dom.mul(x, dom.zero()))
    # a sum that cancels over Q(q) is still a bound, not a zero
    assert not dom.is_zero(dom.add(x, dom.neg(x)))
    assert dom.add(x, dom.neg(x)).degree_span() >= 0


@pytest.mark.parametrize("num, den, want", [
    # a Laurent value: no atom
    ({-2: 1, 3: -4}, {0: 1}, (-2, 3, {}, 0)),
    # a constant denominator is no atom either
    ({-1: 3, 2: 1}, {0: 2}, (-1, 2, {}, 0)),
    # (2q^-3 + 5q) / (3q^2 + 1): the denominator is an atom of degree 2
    ({-3: 2, 1: 5}, {0: 1, 2: 3}, (-3, 1, {(2, ((0, 1), (2, 3))): 1}, 2)),
    # given as (2 + 5q^4) / (q^5 + 3q^7): the same value and the same span
    ({0: 2, 4: 5}, {5: 1, 7: 3}, (-5, -1, {(2, ((0, 1), (2, 3))): 1}, 2)),
])
def test_span_from_scalar_with_negative_numerator_exponents(num, den, want):
    a = QScalar(num, den)
    assert min(a.num) < 0
    s = SpanDomain().from_scalar(a)
    assert (s.lo, s.hi, s.atoms, s.den) == want
    assert s.degree_span() >= a.degree_span()


def test_fp_zero_pivot_is_inadmissible_point():
    dom = FpDomain(PrimePoint(7, 3, 1))
    assert dom.inv(3) * 3 % 7 == 1
    for zero in (0, 7, -14):
        with pytest.raises(InadmissiblePointError):
            dom.inv(zero)


def test_fp_non_unit_at_joint_point_is_inadmissible():
    pts = sample_points(3, 3, 12)
    dom = FpDomain(joint_point(pts))
    assert dom.inv(5) * 5 % dom.p == 1
    # nonzero mod the product, zero mod one of its primes
    for non_unit in (pts[0].p, 7 * pts[1].p, dom.p - pts[2].p):
        with pytest.raises(InadmissiblePointError):
            dom.inv(non_unit)


def test_zero_pivot_in_point_build_resamples():
    """A candidate whose point build hits a zero pivot at the first point
    sampled costs that point, not the verdict: the joint point, whose
    modulus is a multiple of that prime, hits it too and hands over to
    the walk."""
    ctx = AlgebraContext(build_standard_sp(1), flip_context(QQ, 2))
    ideal = QuadraticIdeal(QQ, 2, ctx.defining_relations())
    entry = ctx.ch_identity(1).rows[0][0]
    bad = sample_points(9, 1, point_bound(2))[0]

    def candidate_at(pt):
        if pt.p % bad.p == 0:
            FpDomain(pt).inv(0)
        return [entry.reduce_at(pt)]

    cert = ideal.membership_family(candidate_at, 2, ideal._poly_span(entry),
                                   seed=9)
    assert cert.is_member and cert.kind == "modular"
    # the next pool points take its place
    assert [(pt.p, pt.qhat) for pt in cert.points] == [
        (pt.p, pt.qhat)
        for pt in sample_points(9, 4, point_bound(2))[1:]]
