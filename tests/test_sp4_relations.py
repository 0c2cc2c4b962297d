from __future__ import annotations

import pytest

from qch.domains import QQ
from qch.ideal import QuadraticIdeal
from qch.ncpoly import NCPoly
from qch.scalar import LAMBDA
from qch.sp4_relations import (all_relations, g_closed_forms,
                               invariance_conditions, permutation_relations)


@pytest.fixture(scope="module")
def defining(rtt4):
    return QuadraticIdeal(QQ, 4, rtt4.defining_relations(),
                          label="sp4-defining")


@pytest.fixture(scope="module")
def catalogue():
    return QuadraticIdeal(QQ, 4, all_relations(QQ), label="sp4-catalogue")


def test_counts():
    assert len(permutation_relations(QQ)) == 120
    assert len(invariance_conditions(QQ)) == 10
    labels = [lab for lab, _ in all_relations(QQ)]
    assert len(set(labels)) == 130


def test_permutation_relations_cover_every_generator_pair():
    pairs = set()
    for label, p in permutation_relations(QQ):
        swapped = {(w[1], w[0]) for w in p.terms if w[0] != w[1]}
        both = {frozenset(w) for w in p.terms if tuple(w) in swapped}
        assert len(both) == 1, label
        pairs.add(both.pop())
    assert len(pairs) == 120  # = C(16, 2)


def test_span_rank_matches(defining, catalogue):
    assert catalogue.rank_of_degree(2)["rank"] == 130
    assert defining.rank_of_degree(2)["rank"] == 130


def test_span_coincidence(rtt4, defining, catalogue):
    for label, p in all_relations(QQ):
        assert defining.membership(p).is_member, label
    for rid, p in rtt4.defining_relations():
        assert catalogue.membership(p).is_member, rid


def test_quotient_dimension(catalogue):
    # 16^2 degree-2 words modulo a rank-130 relation span
    assert 256 - catalogue.rank_of_degree(2)["rank"] == 126


def test_bc_commutator_sign_pinned_by_span(defining):
    rels = dict(permutation_relations(QQ))
    rel = rels["BC:long"]
    assert defining.membership(rel).is_member
    sq = (NCPoly.generator(QQ, 3, 0) * NCPoly.generator(QQ, 0, 3)).scale(
        LAMBDA * LAMBDA)
    flipped = rel - sq - sq
    assert defining.membership(flipped).status == "non-member"


def test_g_closed_forms_congruent(rtt4, defining):
    g1, g2 = g_closed_forms(QQ)
    assert defining.membership(g1 - rtt4.g).is_member
    assert defining.membership(g2 - rtt4.g).is_member
    assert not (g1 - g2).is_zero()
    assert defining.membership(g1 - g2).is_member
