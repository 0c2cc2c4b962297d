"""Integer word codes inside QuadraticIdeal: encoding, the rewriter on
codes against a tuple-keyed reference, and the counted degree bound."""
from __future__ import annotations

import heapq
import random

import pytest

from qch.domains import QQ
from qch.ideal import BudgetError, QuadraticIdeal
from qch.linalg import Echelon
from qch.ncpoly import NCPoly
from qch.qma import AlgebraContext
from qch.rmatrix import build_standard_sp, flip_context
from qch.scalar import QScalar, sample_points

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

EMPTY = {d: QuadraticIdeal(QQ, d, []) for d in (2, 4, 6)}


def words(dim, min_len=0, max_len=6):
    gens = [(a, b) for a in range(dim) for b in range(dim)]
    return st.lists(st.sampled_from(gens), min_size=min_len,
                    max_size=max_len).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 4, 6)).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(words(d), max_size=6))))
def test_code_round_trip_and_distinct(dim_words):
    dim, ws = dim_words
    ideal = EMPTY[dim]
    assert ideal.word_from_key(ideal.word_key(())) == ()
    codes = {}
    for w in ws:
        key = ideal.word_key(w)
        assert ideal.word_from_key(key) == w
        codes[key] = w
    # the leading 1 keeps words of different lengths apart
    assert len(codes) == len(set(ws))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 4, 6)).flatmap(
    lambda d: st.integers(0, 5).flatmap(
        lambda n: st.tuples(st.just(d), words(d, n, n), words(d, n, n)))))
def test_code_order_is_rank_order_within_a_length(dim_pair):
    dim, w1, w2 = dim_pair
    ideal = EMPTY[dim]
    ranks = lambda w: [a * dim + b for a, b in w]
    assert ((ideal.word_key(w1) < ideal.word_key(w2))
            == (ranks(w1) < ranks(w2)))


# -- the rewriter against a tuple-keyed reference --------------------------------

def reference_normal_order(ideal, p, budget=2_000_000):
    """The rewriter on tuple words, as it was before words became codes:
    rules keyed by letter pairs, re-keyed by rank tuples at every step."""
    dom, dim = ideal.dom, ideal.dim
    word_key = lambda w: tuple(a * dim + b for a, b in w)
    word_from_key = lambda key: tuple(divmod(r, dim) for r in key)
    ech = Echelon(dom)
    for _, rel in ideal.relations:
        ech.add_row({word_key(w): c for w, c in rel.terms.items()})
    rules = {word_from_key(lead): {word_from_key(col): dom.neg(c)
                                   for col, c in row.items() if col != lead}
             for lead, row in ech.pivots.items()}
    terms = dict(p.terms)
    heap = [(tuple(-r for r in word_key(w)), w) for w in terms]
    heapq.heapify(heap)
    out = {}
    steps = 0
    while heap:
        _, w = heapq.heappop(heap)
        c = terms.pop(w, None)
        if c is None:
            continue
        hit = None
        for pos in range(len(w) - 1):
            if (w[pos], w[pos + 1]) in rules:
                hit = pos
                break
        if hit is None:
            out[w] = c
            continue
        steps += 1
        if steps > budget:
            raise BudgetError(f"normal_order budget exceeded ({budget})")
        for w2, c2 in rules[(w[hit], w[hit + 1])].items():
            nw = w[:hit] + w2 + w[hit + 2:]
            v = dom.mul(c, c2)
            cur = terms.get(nw)
            if cur is None:
                terms[nw] = v
                heapq.heappush(heap, (tuple(-r for r in word_key(nw)), nw))
            else:
                s = dom.add(cur, v)
                if dom.is_zero(s):
                    terms.pop(nw, None)
                else:
                    terms[nw] = s
    return NCPoly(dom, out)


def _ideal(k, pair):
    r = build_standard_sp(k)
    ctx = AlgebraContext(r, r if pair == "re" else flip_context(QQ, 2 * k),
                         label=f"sp{2 * k}-{pair}")
    return QuadraticIdeal(QQ, 2 * k, ctx.defining_relations())


IDEALS = {(k, pair): _ideal(k, pair) for k in (1, 2) for pair in ("rtt", "re")}
POINT = sample_points(17, count=1, bound=40)[0]


def random_poly(rng, dom, dim, max_len):
    gens = [(a, b) for a in range(dim) for b in range(dim)]
    terms = {}
    for _ in range(rng.randint(1, 6)):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len)))
        c = dom.from_scalar(QScalar.from_int(rng.choice((-3, -2, -1, 1, 2)))
                            * QScalar.q_power(rng.randint(-2, 2)))
        s = dom.add(terms.get(w, dom.zero()), c)
        if dom.is_zero(s):
            terms.pop(w, None)
        else:
            terms[w] = s
    return NCPoly(dom, terms)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(IDEALS)), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_normal_order_matches_tuple_reference(which, at_point, seed):
    ideal = IDEALS[which]
    if at_point:
        ideal = ideal.at_point(POINT)
    rng = random.Random(seed)
    p = random_poly(rng, ideal.dom, ideal.dim, 4 if ideal.dim == 2 else 3)
    assert ideal.normal_order(p) == reference_normal_order(ideal, p)


def test_normal_order_budget_matches_reference():
    ideal = IDEALS[(2, "rtt")]
    p = NCPoly(QQ, {((2, 3), (1, 1), (0, 2)): QScalar.from_int(1),
                    ((3, 3), (2, 2), (1, 1)): QScalar.q_power(2)})

    def raises(fn, budget):
        try:
            fn(ideal, p, budget)
        except BudgetError:
            return True
        return False

    coded = lambda ideal, p, budget: ideal.normal_order(p, budget=budget)
    # the polynomial takes 39 rewriting steps
    flags = [raises(coded, b) for b in range(41)]
    assert flags == [raises(reference_normal_order, b) for b in range(41)]
    assert flags[0] and not flags[-1]


# -- the counted degree bound -------------------------------------------------------

def listed_dmax(ideal, degree):
    """The bound as it was: listed triples, summed per block."""
    return max((sum(max(ideal._rel_span[i], 1) for i, _, _ in rows)
                for rows in ideal._span_index_for(degree).values()),
               default=0)


def synthetic_ideal(dim, count, seed, weighted=True):
    """count quadratic relations, two or three terms each, with
    coefficients 1 - q**s of assorted spans s; weight-homogeneous when
    weighted."""
    rng = random.Random(seed)
    probe = QuadraticIdeal(QQ, dim, [])
    gens = [(a, b) for a in range(dim) for b in range(dim)]
    blocks = {}
    for a in gens:
        for b in gens:
            w = (a, b)
            key = probe.block_key(probe.word_key(w)) if weighted else (2,)
            blocks.setdefault(key, []).append(w)
    groups = [ws for ws in blocks.values() if len(ws) >= 3]
    rels = []
    for i in range(count):
        ws = rng.sample(rng.choice(groups), 3 if i % 2 else 2)
        if not weighted:
            ws[0] = ((0, 0), (0, 1))
            ws[1] = ((1, 1), (1, 1))
        terms = {w: QScalar.laurent({0: 1, rng.randint(1, 4): -1})
                 for w in ws}
        rels.append((f"r{i}", NCPoly(QQ, terms)))
    return QuadraticIdeal(QQ, dim, rels)


@pytest.mark.parametrize("dim,count,degrees", [
    (2, 4, (2, 3, 4, 5)), (4, 4, (2, 3, 4, 5)), (6, 2, (2, 3, 4, 5))])
def test_counted_dmax_equals_listed_sum(dim, count, degrees):
    ideal = synthetic_ideal(dim, count, seed=dim)
    assert ideal.weights is not None
    spans = set()
    for degree in degrees:
        got = ideal._degree_dmax(degree, 0) - 1
        assert got == listed_dmax(ideal, degree)
        spans.add(got)
        ideal._span_index.clear()
    assert len(spans) == len(degrees)


@pytest.mark.parametrize("which,degrees", [
    ((1, "rtt"), (2, 3, 4, 5)), ((1, "re"), (2, 3, 4, 5)),
    ((2, "rtt"), (2, 3))])
def test_counted_dmax_on_defining_relations(which, degrees):
    ideal = IDEALS[which]
    for degree in degrees:
        assert ideal._degree_dmax(degree, 0) - 1 == listed_dmax(ideal,
                                                                degree)


def test_counted_dmax_without_weights():
    ideal = synthetic_ideal(4, 3, seed=1, weighted=False)
    assert ideal.weights == [0, 0, 0, 0]
    for degree in (2, 3, 4):
        assert ideal._degree_dmax(degree, 0) - 1 == listed_dmax(ideal,
                                                                degree)
