from __future__ import annotations

import math
import random

import pytest

from qch.domains import QQ, FpDomain, SpanDomain
from qch.ideal import (FAILURE_TARGET, MAX_PRIME_COUNT, MIN_PRIME_COUNT,
                       POINT_LIMIT, BudgetError, MembershipCertificate,
                       MixedVerdictError, QuadraticIdeal, default_weights,
                       modular_bound, modular_verdict,
                       point_bound)
from qch.ncpoly import NCPoly
from qch.qma import AlgebraContext
from qch.rmatrix import build_standard_sp, flip_context
from qch.scalar import ONE, InadmissiblePointError, QScalar, sample_points


def qp(e):
    return QScalar.q_power(e)


def gen(a, b):
    return NCPoly.generator(QQ, a, b)


def word_poly(w):
    return NCPoly(QQ, {tuple(w): ONE})


def witness_to_json(witness):
    """Witness items as JSON-ready lists: [coeff, w1, relation id, w2]
    with 1-based generator labels, after a union item's entry index."""
    out = []
    for *entry, coeff, w1, rid, w2 in witness:
        enc = lambda w: [[a + 1, b + 1] for a, b in w]
        out.append([*entry, str(coeff), enc(w1), rid, enc(w2)])
    return out


def modular(ideal, p, **kw):
    """Modular membership of one polynomial: `membership_family` of the
    one-entry candidate [p], reduced at each point."""
    return ideal.membership_family(lambda pt: [p.reduce_at(pt)], p.degree(),
                                   ideal._poly_span(p), **kw)


# -- orders and gradings ---------------------------------------------------------

def test_letter_digit_is_row_major():
    for dim in (2, 4, 6):
        ideal = QuadraticIdeal(QQ, dim, [])
        base = dim * dim
        for a in range(dim):
            for b in range(dim):
                assert ideal.word_key(((a, b),)) == base + a * dim + b
                assert ideal.word_from_key(base + a * dim + b) == ((a, b),)


def test_default_weights():
    assert default_weights(2) == [1, -1]
    assert default_weights(4) == [2, 1, -1, -2]
    assert default_weights(3) == [0, 0, 0]


def test_weights_dropped_when_not_homogeneous(ideal2, ideal2_re):
    assert ideal2.weights == [1, -1]
    assert ideal2_re.weights == [0, 0]
    assert set(ideal2_re._span_index_for(3)) == {(3, 0, 0)}


# -- span ranks -------------------------------------------------------------------

def test_rank_dim2_degree2(ideal2, ideal2_re):
    stats = ideal2.rank_of_degree(2)
    assert stats == {"degree": 2, "rank": 6, "blocks": 5, "spanning": 12}
    stats_re = ideal2_re.rank_of_degree(2)
    assert stats_re["rank"] == 6
    assert stats_re["blocks"] == 1


def test_rank_dim4_degree2(ideal4):
    stats = ideal4.rank_of_degree(2)
    assert stats["rank"] == 130
    assert stats["degree"] == 2


def test_rank_dim2_degree3_exact_vs_modular(ideal2):
    stats = ideal2.rank_of_degree(3)
    assert stats == {"degree": 3, "rank": 44, "blocks": 12, "spanning": 96}
    for pt in sample_points(11, count=3, bound=point_bound(2)):
        assert ideal2.at_point(pt).rank_of_degree(3) == stats


# -- normal ordering ---------------------------------------------------------------

def test_normal_order_swaps_diagonal_pair(ideal2):
    p = gen(1, 1) * gen(0, 0)
    expect = gen(0, 0) * gen(1, 1) + (gen(0, 1) * gen(1, 0)).scale(
        qp(-2) - qp(2))
    assert (ideal2.normal_order(p) - expect).is_zero()


def test_normal_order_idempotent(ideal2):
    p = gen(1, 1) * gen(0, 0) * gen(0, 1) + gen(1, 0).scale(qp(3))
    once = ideal2.normal_order(p)
    assert (ideal2.normal_order(once) - once).is_zero()


def test_normal_order_congruent_mod_ideal(ideal2):
    rng = random.Random(20240814)
    gens = [(a, b) for a in range(2) for b in range(2)]
    for _ in range(5):
        terms = {}
        for _ in range(rng.randint(2, 5)):
            w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            c = QScalar.from_int(rng.randint(-3, 3)) * qp(rng.randint(-2, 2))
            terms[w] = terms.get(w, QScalar.from_int(0)) + c
        p = NCPoly(QQ, {w: c for w, c in terms.items() if not c.is_zero()})
        diff = ideal2.normal_order(p) - p
        cert = ideal2.membership(diff, witness=True)
        assert cert.is_member, cert


def test_normal_order_budget():
    r = build_standard_sp(1)
    ctx = AlgebraContext(r, flip_context(QQ, 2), label="sp2")
    ideal = QuadraticIdeal(QQ, 2, ctx.defining_relations())
    with pytest.raises(BudgetError):
        ideal.normal_order(gen(1, 1) * gen(0, 0), budget=1)


# -- membership --------------------------------------------------------------------

def test_zero_is_member(ideal2):
    cert = ideal2.membership(NCPoly.zero(QQ))
    assert cert.is_member and cert.status == "member"


def test_low_degree_part_rejected(ideal2):
    cert = ideal2.membership(gen(0, 0) + gen(0, 0) * gen(1, 1))
    assert not cert.is_member
    assert cert.detail == "nonzero part of degree < 2"


def test_commutator_not_member(ideal2):
    p = gen(0, 0) * gen(0, 1) - gen(0, 1) * gen(0, 0)
    cert = ideal2.membership(p)
    assert cert.status == "non-member"
    assert cert.residual is not None and not cert.residual.is_zero()


def test_ch_entries_member_with_witness(rtt2, ideal2):
    rels = dict(ideal2.relations)
    ch = rtt2.ch_identity(1)
    for row in ch.rows:
        for entry in row:
            cert = ideal2.membership(entry, witness=True)
            assert cert.is_member
            acc = NCPoly.zero(QQ)
            for coeff, w1, rid, w2 in cert.witness:
                term = word_poly(w1) * rels[rid] * word_poly(w2)
                acc = acc + term.scale(coeff)
            assert (acc - entry).is_zero()


def test_membership_matrix(rtt2, ideal2):
    cert = ideal2.membership_matrix(rtt2.ch_identity(1).entries())
    assert cert.is_member


def test_mixed_degree_member(ideal2):
    rel = ideal2.relations[0][1]
    p = rel * gen(1, 0) + rel.scale(qp(2))
    cert = ideal2.membership(p)
    assert cert.is_member


def test_modular_probable_member(rtt2, ideal2):
    entry = rtt2.ch_identity(1).rows[0][0]
    cert = modular(ideal2, entry, seed=3)
    assert cert.status == "probable-member" and cert.is_member
    assert cert.kind == "modular"
    assert len(cert.points) >= 3
    assert cert.bound < 1e-12


def test_modular_non_member(ideal2):
    p = gen(0, 0) * gen(0, 1) - gen(0, 1) * gen(0, 0)
    cert = modular(ideal2, p, seed=5)
    assert cert.status == "non-member"


def test_modular_prime_count_validated(rtt2, ideal2):
    entry = rtt2.ch_identity(1).rows[0][0]
    assert len(modular(ideal2, entry, min_points=4).points) >= 4
    for count in (1, 2, MAX_PRIME_COUNT + 1):
        with pytest.raises(ValueError, match="min_points"):
            modular(ideal2, entry, min_points=count)


def test_prime_count_capped_at_pool():
    assert len(sample_points(0, MAX_PRIME_COUNT, 40)) == MAX_PRIME_COUNT
    with pytest.raises(ValueError, match=f"<= {MAX_PRIME_COUNT}"):
        modular_verdict(lambda pt: True, 2, 40, 0, MAX_PRIME_COUNT + 1,
                        FAILURE_TARGET)


def test_membership_family(rtt2, ideal2):
    entry = rtt2.ch_identity(1).rows[1][0]
    cert = ideal2.membership_family(lambda pt: [entry.reduce_at(pt)], 2,
                                    ideal2._poly_span(entry), seed=9)
    assert cert.is_member
    assert cert.bound < 1e-12


def q_minus(qhat):
    """q - qhat, a polynomial over Z that vanishes at a point with that
    qhat."""
    return QScalar.laurent({1: 1, 0: -qhat})


def test_mixed_verdicts_raise_at_once(rtt2, ideal2):
    entry = rtt2.ch_identity(1).rows[1][0]
    outsider = word_poly([(0, 0), (0, 0)])
    assert not ideal2.membership(outsider).is_member
    first, second = sample_points(9, 2, point_bound(2))
    # one fixed exact candidate, a member only where q = qhat of the
    # second point: not at the first point, nor at the joint point
    candidate = entry + outsider.scale(q_minus(second.qhat))
    seen = []

    def candidate_at(pt):
        seen.append(pt.p)
        return [candidate.reduce_at(pt)]

    with pytest.raises(MixedVerdictError):
        ideal2.membership_family(candidate_at, 2, ideal2._poly_span(candidate),
                                 seed=9)
    # the joint point of the batch, then the walk up to the second point
    joint, *walk = seen
    assert joint % first.p == joint % second.p == 0 and joint > second.p
    assert walk == [first.p, second.p]


def test_small_target_takes_next_pool_points(rtt2, ideal2):
    entry = rtt2.ch_identity(1).rows[1][0]
    pool = [(pt.p, pt.qhat)
            for pt in sample_points(9, POINT_LIMIT, point_bound(2))]
    assert len({p for p, _ in pool}) == POINT_LIMIT
    span = ideal2._poly_span(entry)
    d_max = ideal2._degree_dmax(2, span)

    def at_target(target):
        return modular_verdict(
            lambda pt: ideal2._vanishes_at(pt, lambda pt: [
                entry.reduce_at(pt)]),
            d_max, point_bound(2), 9, MIN_PRIME_COUNT, target)

    _, least, least_bound = at_target(FAILURE_TARGET)
    assert len(least) == 3
    target = least_bound * 1e-20
    _, points, bound = at_target(target)
    n = len(points)
    assert 3 < n < POINT_LIMIT
    assert [(pt.p, pt.qhat) for pt in points] == pool[:n]
    assert bound <= target < modular_bound(points[:-1], d_max)
    # a target no bound reaches stops at POINT_LIMIT points
    member, capped, _ = at_target(0.0)
    assert member
    assert [(pt.p, pt.qhat) for pt in capped] == pool


def walk(ideal, p, seed):
    """The per-point walk's (verdict, points, bound) for one polynomial."""
    return modular_verdict(
        lambda pt: ideal._vanishes_at(pt, lambda pt: [p.reduce_at(pt)]),
        ideal._degree_dmax(p.degree(), ideal._poly_span(p)),
        point_bound(ideal.dim), seed, MIN_PRIME_COUNT, FAILURE_TARGET)


def pairs(points):
    return [(pt.p, pt.qhat) for pt in points]


def test_member_decided_by_one_vanishes_call(rtt2, ideal2, rtt4, ideal4,
                                             monkeypatch):
    calls = []
    vanishes_at = QuadraticIdeal._vanishes_at

    def count(self, pt, candidate_at):
        calls.append(pt)
        return vanishes_at(self, pt, candidate_at)
    monkeypatch.setattr(QuadraticIdeal, "_vanishes_at", count)
    entry = rtt2.ch_identity(1).rows[1][0]
    cert = modular(ideal2, entry, seed=9)
    # the joint point of the walk's points
    [joint] = calls
    assert cert.is_member and cert.kind == "modular"
    assert joint.p == math.prod(pt.p for pt in cert.points)
    assert pairs(cert.points) == pairs(walk(ideal2, entry, 9)[1])
    # the k = 2 characteristic identity, built at the joint point only
    calls.clear()
    cert = ideal4.identity_membership(
        rtt4, lambda c: c.ch_identity(2).entries(), 4, seed=1)
    assert (cert.status, len(cert.points), len(calls)) == (
        "probable-member", 3, 1)


def test_non_member_certificate_is_the_walks(ideal2):
    p = gen(0, 0) * gen(0, 1) - gen(0, 1) * gen(0, 0)
    cert = modular(ideal2, p, seed=5)
    verdict, points, bound = walk(ideal2, p, 5)
    assert not verdict
    assert (cert.status, cert.kind) == ("non-member", "modular")
    assert pairs(cert.points) == pairs(points)
    assert cert.bound == bound


def test_denominator_vanishing_at_a_batch_point_skips_it(rtt2, ideal2):
    entry = rtt2.ch_identity(1).rows[1][0]
    pool = sample_points(9, 4, point_bound(2))
    # a member with the denominator q - qhat of the second point
    candidate = entry.scale(ONE / q_minus(pool[1].qhat))
    raised = []

    def candidate_at(pt):
        try:
            return [candidate.reduce_at(pt)]
        except InadmissiblePointError:
            raised.append(pt.p)
            raise

    cert = ideal2.membership_family(candidate_at, 2,
                                    ideal2._poly_span(candidate), seed=9)
    # the joint run raises, and the walk skips that point only
    assert raised == [math.prod(pt.p for pt in pool[:3]), pool[1].p]
    verdict, points, bound = walk(ideal2, candidate, 9)
    assert verdict and cert.is_member and cert.kind == "modular"
    assert pairs(cert.points) == pairs(points) == pairs(
        [pool[0], pool[2], pool[3]])
    assert cert.bound == bound


def _relation_times_generator(ctx):
    """A degree-3 ideal member over ctx's domain, as a one-entry
    identity."""
    rel = ctx.defining_relations()[0][1]
    return [rel * NCPoly.generator(ctx.dom, 0, 0)]


def one_shot(build):
    """build as a generator function: each of its builds can be read once."""
    def gen(ctx):
        yield from build(ctx)
    return gen


def _mixed_verdict_fallback(rtt4, ideal4, wrap):
    # a non-member that vanishes at the second point only, so the joint
    # point and the first point reject it, the verdicts are mixed and the
    # identity goes to the exact build, listed once, and exact membership
    second = sample_points(5, 2, point_bound(4))[1]
    doms = []

    def build(ctx):
        doms.append(ctx.dom)
        x = NCPoly.generator(ctx.dom, 0, 0)
        c = ctx.dom.from_scalar(q_minus(second.qhat))
        return [_relation_times_generator(ctx)[0] + (x * x * x).scale(c)]

    assert ideal4.needs_modular(3)
    cert = ideal4.identity_membership(rtt4, wrap(build), 3, seed=5,
                                      min_points=3)
    assert [type(d) for d in doms[:4]] == [SpanDomain, FpDomain, FpDomain,
                                           FpDomain]
    assert doms[1].p > doms[3].p == second.p
    assert doms[4:] == [rtt4.dom]
    assert (cert.status, cert.kind) == ("non-member", "exact")
    assert cert.residual is not None and not cert.residual.is_zero()


def test_identity_membership_falls_back_on_mixed_verdicts(rtt4, ideal4):
    _mixed_verdict_fallback(rtt4, ideal4, lambda build: build)


def test_streamed_build_falls_back_on_mixed_verdicts(rtt4, ideal4):
    # a one-shot build read twice would leave the exact route nothing
    _mixed_verdict_fallback(rtt4, ideal4, one_shot)


def cert_fields(cert):
    return (cert.status, cert.kind, pairs(cert.points or []), cert.bound,
            cert.detail, len(cert.witness or []))


def test_streamed_build_gives_the_list_builds_certificate(rtt4, ideal4):
    # the k = 2 characteristic identity, on the modular route
    listed = lambda c: c.ch_identity(2).entries()
    cert = ideal4.identity_membership(rtt4, listed, 4, seed=1)
    assert cert.kind == "modular"
    for build in (one_shot(listed), lambda c: c.ch_entries(2)):
        assert cert_fields(ideal4.identity_membership(
            rtt4, build, 4, seed=1)) == cert_fields(cert)


def test_zero_entry_of_a_streamed_build_is_not_counted(rtt4, ideal4):
    def build(ctx):
        yield NCPoly.zero(ctx.dom)
        yield from _relation_times_generator(ctx)
        yield NCPoly.zero(ctx.dom)

    cert = ideal4.identity_membership(rtt4, build, 3, seed=2)
    alone = ideal4.identity_membership(rtt4, _relation_times_generator, 3,
                                       seed=2)
    assert cert.kind == "modular"
    # the bound is the union over one entry, not three
    assert cert_fields(cert) == cert_fields(alone)


def test_matrix_bound_is_union_over_entries(rtt2, ideal2):
    ch = rtt2.ch_identity(1).entries()
    polys = [p for p in ch if p]
    span = max(ideal2._poly_span(p) for p in polys)
    cert = ideal2.membership_family(
        lambda pt: [p.reduce_at(pt) for p in ch], 2, span,
        entries=len(polys), seed=9)
    # each entry alone, with its equal share of the target
    singles = [modular_verdict(
        lambda pt, p=p: ideal2._vanishes_at(pt, lambda pt: [p.reduce_at(pt)]),
        ideal2._degree_dmax(2, span), point_bound(2), 9, MIN_PRIME_COUNT,
        FAILURE_TARGET / len(polys)) for p in polys]
    assert (cert.status, cert.kind) == ("probable-member", "modular")
    points = [(pt.p, pt.qhat) for pt in cert.points]
    assert all([(pt.p, pt.qhat) for pt in pts] == points
               for _, pts, _ in singles)
    assert cert.bound == pytest.approx(
        sum(bound for _, _, bound in singles), rel=1e-12, abs=0)
    assert cert.bound > max(bound for _, _, bound in singles)
    assert cert.bound < FAILURE_TARGET


def test_union_is_first_non_member_or_exact_member():
    exact = MembershipCertificate("member", "exact", witness=[])
    miss = MembershipCertificate("non-member", "exact")
    both = MembershipCertificate.union([exact, exact])
    assert (both.status, both.kind) == ("member", "exact")
    assert MembershipCertificate.union([exact, miss, exact]) is miss


def test_degree_bound_per_degree(rtt2):
    ideal = QuadraticIdeal(QQ, 2, rtt2.defining_relations())

    def direct(degree, span):
        worst = max(sum(max(ideal._rel_span[i], 1) for i, _, _ in rows)
                    for rows in ideal._span_index_for(degree).values())
        return worst + max(span, 1)

    got = [ideal._degree_dmax(d, s)
           for d, s in ((3, 5), (2, 0), (4, 7), (3, 11), (2, 2))]
    assert got == [direct(d, s)
                   for d, s in ((3, 5), (2, 0), (4, 7), (3, 11), (2, 2))]
    assert len(set(got)) == len(got)


def test_sp4_parent_entry_exact_member(rtt4, ideal4):
    parent = rtt4.parent_identity(2)
    cert = ideal4.membership(parent.rows[0][0])
    assert cert.is_member


def test_witness_json_shape(rtt2, ideal2):
    entry = rtt2.ch_identity(1).rows[0][1]
    cert = ideal2.membership(entry, witness=True)
    data = witness_to_json(cert.witness)
    for item in data:
        coeff, w1, rid, w2 = item
        assert isinstance(coeff, str)
        assert isinstance(rid, str)
        for w in (w1, w2):
            assert all(len(pair) == 2 and all(1 <= x <= 2 for x in pair)
                       for pair in w)


def test_union_witness_is_every_entry_witness(rtt2, ideal2):
    entries = [p for p in rtt2.ch_identity(1).entries() if p]
    singles = [ideal2.membership(p, witness=True) for p in entries]
    cert = MembershipCertificate.union(singles)
    assert cert.kind == "exact"
    assert len(cert.witness) == sum(len(c.witness) for c in singles)
    assert cert.witness == [(entry, *item) for entry, c in enumerate(singles)
                            for item in c.witness]
    data = witness_to_json(cert.witness)
    assert [item[0] for item in data] == [item[0] for item in cert.witness]
    assert [item[1:] for item in data] == witness_to_json(
        [item[1:] for item in cert.witness])


@pytest.mark.parametrize("pair", ["rtt", "re"])
def test_sp4_parent_witness_replays(pair):
    """The union witness of the k = 2 parent identity, replayed entry by
    entry: its items c * w1 * r * w2 for each entry, summed over Q(q) with
    no elimination, give back that entry."""
    r = build_standard_sp(2)
    ctx = AlgebraContext(r, r if pair == "re" else flip_context(QQ, 4),
                         label=f"sp4-{pair}")
    ideal = QuadraticIdeal(QQ, 4, ctx.defining_relations())
    rels = dict(ideal.relations)
    parent = ctx.parent_identity(2)
    cert = ideal.membership_matrix(parent.entries(), witness=True)
    assert cert.kind == "exact" and cert.is_member
    assert len(cert.witness) == 187
    sums = {}
    for entry, coeff, w1, rid, w2 in cert.witness:
        term = (word_poly(w1) * rels[rid] * word_poly(w2)).scale(coeff)
        sums[entry] = sums.get(entry, NCPoly.zero(QQ)) + term
    for entry, p in enumerate(parent.entries()):
        assert sums.get(entry, NCPoly.zero(QQ)) == p
    assert set(sums) == {i for i, p in enumerate(parent.entries()) if p}


def test_non_member_residual_decodes_to_words(ideal2, ideal4):
    # a word that leads no relation is its own residual
    for ideal, dim in ((ideal2, 2), (ideal4, 4)):
        leads = {ideal.word_from_key(lead + dim ** 4)
                 for lead in ideal.ruleset()}
        gens = [(a, b) for a in range(dim) for b in range(dim)]
        free = [(g, h) for g in gens for h in gens if (g, h) not in leads]
        for w in free[:3] + free[-3:]:
            p = word_poly(w).scale(qp(1))
            cert = ideal.membership(p)
            assert cert.status == "non-member"
            assert cert.residual == p
    # any residual differs from its polynomial by an ideal member
    p = gen(0, 0) * gen(0, 1) * gen(1, 1) - gen(1, 1) * gen(0, 1) * gen(0, 0)
    cert = ideal2.membership(p, witness=True)
    assert cert.status == "non-member"
    gens = {(a, b) for a in range(2) for b in range(2)}
    assert all(len(w) == 3 and set(w) <= gens for w in cert.residual.terms)
    assert ideal2.membership(p - cert.residual).is_member
