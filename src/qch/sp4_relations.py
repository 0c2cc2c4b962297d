"""Catalogued quadratic relations of the standard Sp(4)-type RTT algebra.

The 16 generators form a 4x4 matrix of 2x2 blocks [[A, B], [C, D]];
X^i_j denotes the (i, j) entry of block X, 1-based.  The catalogue holds
the 120 permutation relations (one per unordered generator pair), the 10
invariance conditions of the symplectic form, and two closed forms of
the 2-contraction.
"""
from __future__ import annotations

from .ncpoly import NCPoly
from .scalar import LAMBDA, ONE, Q, QINV, QScalar

_BLOCK_ORIGIN = {"A": (0, 0), "B": (0, 2), "C": (2, 0), "D": (2, 2)}
TWO_Q = Q + QINV  # [2]_q


def _gen(dom, x, i, j):
    r0, c0 = _BLOCK_ORIGIN[x]
    return NCPoly.generator(dom, r0 + i - 1, c0 + j - 1)


def _binomial(dom, terms):
    """Sum of coeff * X^a_b Y^c_d products given as
    (coeff, (X, a, b), (Y, c, d)) triples."""
    acc = NCPoly.zero(dom)
    for coeff, (x, a, b), (y, c, d) in terms:
        acc = acc + (_gen(dom, x, a, b) * _gen(dom, y, c, d)).scale(coeff)
    return acc


def permutation_relations(dom):
    """The 120 permutation relations as (label, NCPoly) pairs."""
    rels = []

    def add(label, terms):
        rels.append((label, _binomial(dom, terms)))

    # Within each block: q-row, q-column, one commutator, one skewed
    # commutator.
    for x in "ABCD":
        for i in (1, 2):
            add(f"{x}:row{i}", [(Q, (x, i, 2), (x, i, 1)),
                                (-ONE, (x, i, 1), (x, i, 2))])
            add(f"{x}:col{i}", [(Q, (x, 2, i), (x, 1, i)),
                                (-ONE, (x, 1, i), (x, 2, i))])
        add(f"{x}:anti", [(ONE, (x, 2, 1), (x, 1, 2)),
                          (-ONE, (x, 1, 2), (x, 2, 1))])
        add(f"{x}:diag", [(ONE, (x, 2, 2), (x, 1, 1)),
                          (-ONE, (x, 1, 1), (x, 2, 2)),
                          (LAMBDA, (x, 1, 2), (x, 2, 1))])

    def comm(label, xg, yg, extra=()):
        add(label, [(ONE, xg, yg), (-ONE, yg, xg)] + list(extra))

    def qcomm(label, xg, yg, e, extra=()):
        add(label, [(ONE, xg, yg), (-QScalar.q_power(e), yg, xg)]
            + list(extra))

    # Commuting pairs.
    for i in (1, 2):
        comm(f"AB:comm{i}", ("A", 2, i), ("B", 1, i))
        comm(f"AC:comm{i}", ("A", i, 2), ("C", i, 1))
        comm(f"BD:comm{i}", ("B", i, 2), ("D", i, 1))
        comm(f"CD:comm{i}", ("C", 2, i), ("D", 1, i))
        for j in (1, 2):
            comm(f"BC:comm{i}{j}", ("B", i, j), ("C", i, j))
    comm("BC:comm-anti", ("B", 1, 2), ("C", 2, 1))

    # q-commuting pairs.
    for i in (1, 2):
        for j in (1, 2):
            qcomm(f"AB:q{i}{j}", ("A", i, j), ("B", i, j), 1)
            qcomm(f"AC:q{i}{j}", ("A", i, j), ("C", i, j), 1)
            qcomm(f"BD:q{i}{j}", ("B", i, j), ("D", i, j), 1)
            qcomm(f"CD:q{i}{j}", ("C", i, j), ("D", i, j), 1)
    qcomm("AB:q-anti", ("A", 2, 1), ("B", 1, 2), 1)
    qcomm("AC:q-anti", ("A", 1, 2), ("C", 2, 1), 1)
    qcomm("BD:q-anti", ("B", 1, 2), ("D", 2, 1), 1)
    qcomm("CD:q-anti", ("C", 2, 1), ("D", 1, 2), 1)
    for i in (1, 2):
        qcomm(f"BC:q-col{i}", ("B", 1, i), ("C", 2, i), 1)
        qcomm(f"BC:qinv-row{i}", ("B", i, 2), ("C", i, 1), -1)

    # q^2-commuting pairs.
    for i in (1, 2):
        qcomm(f"AB:qq{i}", ("A", i, 1), ("B", i, 2), 2)
        qcomm(f"AC:qq{i}", ("A", 1, i), ("C", 2, i), 2)
        qcomm(f"BD:qq{i}", ("B", 1, i), ("D", 2, i), 2)
        qcomm(f"CD:qq{i}", ("C", i, 1), ("D", i, 2), 2)

    # Commutators with a single lambda-weighted extra term.
    for i in (1, 2):
        comm(f"AB:comm-l{i}", ("A", 1, i), ("B", 2, i),
             [(-LAMBDA, ("B", 1, i), ("A", 2, i))])
        comm(f"AC:comm-l{i}", ("A", i, 1), ("C", i, 2),
             [(-LAMBDA, ("C", i, 1), ("A", i, 2))])
        comm(f"BD:comm-l{i}", ("B", i, 1), ("D", i, 2),
             [(-LAMBDA, ("D", i, 1), ("B", i, 2))])
        comm(f"CD:comm-l{i}", ("C", 1, i), ("D", 2, i),
             [(-LAMBDA, ("D", 1, i), ("C", 2, i))])
        for j in (1, 2):
            comm(f"AD:comm-l{i}{j}", ("A", i, j), ("D", i, j),
                 [(-LAMBDA, ("C", i, j), ("B", i, j))])
    comm("BC:comm-l+", ("B", 2, 2), ("C", 1, 1),
         [(-LAMBDA, ("C", 2, 1), ("B", 1, 2))])
    comm("BC:comm-l-", ("B", 1, 1), ("C", 2, 2),
         [(LAMBDA, ("C", 2, 1), ("B", 1, 2))])

    # q-commutators with a q^{+-1} lambda extra term.
    for i in (1, 2):
        ip = 3 - i
        qcomm(f"AB:q-l{i}", ("A", i, i), ("B", ip, ip), 1,
              [(-LAMBDA * Q, ("B", 1, 2), ("A", 2, 1))])
        qcomm(f"AC:q-l{i}", ("A", i, i), ("C", ip, ip), 1,
              [(-LAMBDA * Q, ("C", 2, 1), ("A", 1, 2))])
        qcomm(f"BD:q-l{i}", ("B", i, i), ("D", ip, ip), 1,
              [(-LAMBDA * Q, ("D", 2, 1), ("B", 1, 2))])
        qcomm(f"CD:q-l{i}", ("C", i, i), ("D", ip, ip), 1,
              [(-LAMBDA * Q, ("D", 1, 2), ("C", 2, 1))])
        qcomm(f"AD:q-l-col{i}", ("A", 1, i), ("D", 2, i), 1,
              [(-LAMBDA * Q, ("C", 2, i), ("B", 1, i))])
        qcomm(f"BC:q-l-col{i}", ("B", 2, i), ("C", 1, i), 1,
              [(-LAMBDA * Q, ("C", 2, i), ("B", 1, i))])
        qcomm(f"BC:qinv-l-row{i}", ("B", i, 1), ("C", i, 2), -1,
              [(LAMBDA * QINV, ("C", i, 1), ("B", i, 2))])

    # q-commutator with a plain lambda extra term.
    for i in (1, 2):
        qcomm(f"AD:q-l-row{i}", ("A", i, 1), ("D", i, 2), 1,
              [(-LAMBDA, ("C", i, 1), ("B", i, 2))])

    # q^2-commutators with a q^2 lambda extra term.
    for i in (1, 2):
        qcomm(f"AB:qq-l{i}", ("A", i, 2), ("B", i, 1), 2,
              [(-LAMBDA * QScalar.q_power(2), ("B", i, 2), ("A", i, 1))])
        qcomm(f"AC:qq-l{i}", ("A", 2, i), ("C", 1, i), 2,
              [(-LAMBDA * QScalar.q_power(2), ("C", 2, i), ("A", 1, i))])
        qcomm(f"BD:qq-l{i}", ("B", 2, i), ("D", 1, i), 2,
              [(-LAMBDA * QScalar.q_power(2), ("D", 2, i), ("B", 1, i))])
        qcomm(f"CD:qq-l{i}", ("C", i, 2), ("D", i, 1), 2,
              [(-LAMBDA * QScalar.q_power(2), ("D", i, 2), ("C", i, 1))])

    # Longer tails.
    lt = LAMBDA * TWO_Q
    for i in (1, 2):
        qcomm(f"AD:long-row{i}", ("A", i, 2), ("D", i, 1), -1,
              [(-LAMBDA * QScalar.q_power(-3), ("C", i, 1), ("B", i, 2)),
               (-lt * QINV, ("C", i, 2), ("B", i, 1))])
        qcomm(f"AD:long-col{i}", ("A", 2, i), ("D", 1, i), -1,
              [(-LAMBDA * QScalar.q_power(2), ("C", 2, i), ("B", 1, i)),
               (-lt, ("C", 1, i), ("B", 2, i))])
    qcomm("AB:long", ("A", 1, 2), ("B", 2, 1), -1,
          [(-LAMBDA * QScalar.q_power(2), ("B", 1, 2), ("A", 2, 1)),
           (-lt, ("B", 1, 1), ("A", 2, 2))])
    qcomm("AC:long", ("A", 2, 1), ("C", 1, 2), -1,
          [(-LAMBDA * QScalar.q_power(2), ("C", 2, 1), ("A", 1, 2)),
           (-lt, ("C", 1, 1), ("A", 2, 2))])
    qcomm("BD:long", ("B", 2, 1), ("D", 1, 2), -1,
          [(-LAMBDA * QScalar.q_power(2), ("D", 2, 1), ("B", 1, 2)),
           (-lt, ("D", 1, 1), ("B", 2, 2))])
    qcomm("CD:long", ("C", 1, 2), ("D", 2, 1), -1,
          [(-LAMBDA * QScalar.q_power(2), ("D", 1, 2), ("C", 2, 1)),
           (-lt, ("D", 1, 1), ("C", 2, 2))])
    # The lambda^2 coefficient sign below is pinned by span membership:
    # the opposite sign is not a relation of the algebra.
    comm("BC:long", ("B", 2, 1), ("C", 1, 2),
         [(-LAMBDA, ("C", 2, 2), ("B", 1, 1)),
          (LAMBDA, ("C", 1, 1), ("B", 2, 2)),
          (LAMBDA * LAMBDA, ("C", 2, 1), ("B", 1, 2))])
    comm("AD:long-11", ("A", 1, 1), ("D", 2, 2),
         [(LAMBDA, ("D", 1, 2), ("A", 2, 1)),
          (-LAMBDA * QScalar.q_power(-2), ("C", 1, 1), ("B", 2, 2)),
          (-lt, ("C", 2, 1), ("B", 1, 2))])
    comm("AD:long-12", ("A", 1, 2), ("D", 2, 1),
         [(-LAMBDA * QScalar.q_power(-2), ("C", 2, 1), ("B", 1, 2)),
          (-lt, ("C", 2, 2), ("B", 1, 1))])
    comm("AD:long-21", ("A", 2, 1), ("D", 1, 2),
         [(-LAMBDA * QScalar.q_power(2), ("C", 2, 1), ("B", 1, 2)),
          (-lt, ("C", 1, 1), ("B", 2, 2))])
    comm("AD:long-22", ("A", 2, 2), ("D", 1, 1),
         [(-LAMBDA, ("D", 2, 1), ("A", 1, 2)),
          (-LAMBDA * QScalar.q_power(-2), ("C", 1, 1), ("B", 2, 2)),
          (-lt, ("C", 1, 2), ("B", 2, 1)),
          (-LAMBDA * LAMBDA * QScalar.q_power(-2), ("C", 2, 1), ("B", 1, 2)),
          (-LAMBDA * LAMBDA * TWO_Q, ("C", 2, 2), ("B", 1, 1))])
    return rels


def invariance_conditions(dom):
    """The 10 invariance conditions of the symplectic form."""
    rels = []

    def add(label, terms):
        rels.append((label, _binomial(dom, terms)))

    add("inv:BA", [(ONE, ("B", 1, 1), ("A", 2, 2)), (Q, ("B", 1, 2), ("A", 2, 1)),
                   (-Q, ("B", 2, 1), ("A", 1, 2)),
                   (-QScalar.q_power(2), ("B", 2, 2), ("A", 1, 1))])
    add("inv:DC", [(ONE, ("D", 1, 1), ("C", 2, 2)), (Q, ("D", 1, 2), ("C", 2, 1)),
                   (-Q, ("D", 2, 1), ("C", 1, 2)),
                   (-QScalar.q_power(2), ("D", 2, 2), ("C", 1, 1))])
    add("inv:CA", [(ONE, ("C", 1, 1), ("A", 2, 2)), (Q, ("C", 2, 1), ("A", 1, 2)),
                   (-Q, ("C", 1, 2), ("A", 2, 1)),
                   (-QScalar.q_power(2), ("C", 2, 2), ("A", 1, 1))])
    add("inv:DB", [(ONE, ("D", 1, 1), ("B", 2, 2)), (Q, ("D", 2, 1), ("B", 1, 2)),
                   (-Q, ("D", 1, 2), ("B", 2, 1)),
                   (-QScalar.q_power(2), ("D", 2, 2), ("B", 1, 1))])
    for i in (1, 2):
        add(f"inv:row{i}", [(ONE, ("C", i, 1), ("B", i, 2)),
                            (Q, ("C", i, 2), ("B", i, 1)),
                            (-QScalar.q_power(3), ("D", i, 1), ("A", i, 2)),
                            (-QScalar.q_power(4), ("D", i, 2), ("A", i, 1))])
    for i in (1, 2):
        add(f"inv:col{i}", [(ONE, ("C", 1, i), ("B", 2, i)),
                            (Q, ("C", 2, i), ("B", 1, i)),
                            (-Q, ("D", 1, i), ("A", 2, i)),
                            (-QScalar.q_power(2), ("D", 2, i), ("A", 1, i))])
    add("inv:mix1", [(ONE, ("C", 1, 1), ("B", 2, 2)), (-ONE, ("C", 2, 2), ("B", 1, 1)),
                     (LAMBDA, ("C", 2, 1), ("B", 1, 2)),
                     (-QScalar.q_power(2), ("D", 1, 2), ("A", 2, 1)),
                     (QScalar.q_power(2), ("D", 2, 1), ("A", 1, 2))])
    add("inv:mix2", [(ONE, ("C", 1, 2), ("B", 2, 1)), (-ONE, ("C", 2, 1), ("B", 1, 2)),
                     (-QScalar.q_power(2), ("D", 1, 1), ("A", 2, 2)),
                     (QScalar.q_power(2), ("D", 2, 2), ("A", 1, 1)),
                     (-LAMBDA * QScalar.q_power(2), ("D", 1, 2), ("A", 2, 1))])
    return rels


def all_relations(dom):
    """All 130 catalogued relations."""
    return permutation_relations(dom) + invariance_conditions(dom)


def g_closed_forms(dom):
    """Two equivalent closed forms of the 2-contraction, each congruent
    to the K-contraction of M_1b M_2b modulo the relations."""
    first = _binomial(dom, [
        (QScalar.q_power(-10), ("D", 1, 1), ("A", 2, 2)),
        (QScalar.q_power(-9), ("D", 1, 2), ("A", 2, 1)),
        (-QScalar.q_power(-12), ("C", 1, 2), ("B", 2, 1)),
        (-QScalar.q_power(-13), ("C", 1, 1), ("B", 2, 2))])
    second = _binomial(dom, [
        (QScalar.q_power(-10), ("D", 2, 2), ("A", 1, 1)),
        (QScalar.q_power(-11), ("D", 1, 2), ("A", 2, 1)),
        (-QScalar.q_power(-12), ("C", 2, 1), ("B", 1, 2)),
        (-QScalar.q_power(-13), ("C", 1, 1), ("B", 2, 2))])
    return first, second
