from __future__ import annotations

from qch.domains import QQ
from qch.ncpoly import NCDomain, NCPoly, QMatrix
from qch.scalar import ONE, QScalar, sample_points


def qp(e):
    return QScalar.q_power(e)


def gen(a, b):
    return NCPoly.generator(QQ, a, b)


def test_words_concatenate_in_order():
    x, y = gen(0, 1), gen(1, 0)
    assert (x * y).terms == {((0, 1), (1, 0)): ONE}
    assert (y * x).terms == {((1, 0), (0, 1)): ONE}
    assert x * y != y * x


def test_ring_axioms_on_samples():
    x, y, z = gen(0, 0), gen(0, 1) + NCPoly.constant(QQ, qp(2)), gen(1, 1)
    assert (x + y) * z == x * z + y * z
    assert z * (x + y) == z * x + z * y
    assert (x * y) * z == x * (y * z)
    assert x - x == NCPoly.zero(QQ)
    assert x * NCPoly.one(QQ) == x


def test_scale_pow_degree():
    p = gen(0, 1) + gen(1, 0)
    assert p.scale(qp(3)).terms[((0, 1),)] == qp(3)
    q = p * p + p + NCPoly.constant(QQ, ONE)
    assert q.degree() == 2
    parts = q.graded_parts()
    assert sorted(parts) == [0, 1, 2]
    assert sum(parts.values(), NCPoly.zero(QQ)) == q


def test_text_form():
    p = (gen(0, 1) * gen(1, 1)).scale(qp(-2) - qp(2)) + gen(1, 0).scale(
        QScalar.from_int(3)) - NCPoly.one(QQ)
    assert p.to_text("T") == \
        "(-1) + (3) * T[2,1] + ((-q^4 + 1) / q^2) * T[1,2] T[2,2]"
    assert NCPoly.zero(QQ).to_text("T") == "0"


def test_reduce_at_is_homomorphic():
    pt = sample_points(3, count=1, bound=12)[0]
    x = gen(0, 1).scale(qp(-3)) + gen(1, 0)
    y = gen(0, 0).scale(qp(2) + ONE)
    lhs = (x * y).reduce_at(pt)
    rhs = x.reduce_at(pt) * y.reduce_at(pt)
    assert lhs == rhs


def test_ncdomain_multiplication_keeps_word_order():
    dom = NCDomain(QQ)
    a, b = gen(0, 1), gen(1, 0)
    assert dom.mul(a, b) == a * b
    assert dom.mul(a, b) != dom.mul(b, a)
    assert dom.is_zero(dom.add(a, dom.neg(a)))


def test_qmatrix_generators_and_matmul_order():
    m = QMatrix.generators(QQ, 2)
    assert m.rows[0][1] == gen(0, 1)
    sq = m @ m
    # row-by-column with the left factor's entries kept on the left
    assert sq.rows[0][0] == gen(0, 0) * gen(0, 0) + gen(0, 1) * gen(1, 0)
    ident = QMatrix.identity(QQ, 2)
    assert m @ ident == m
    assert ident @ m == m


def test_qmatrix_poly_sides():
    m = QMatrix.generators(QQ, 2)
    p = gen(1, 1)
    right = m.mul_poly_right(p)
    left = m.mul_poly_left(p)
    assert right.rows[0][0] == gen(0, 0) * p
    assert left.rows[0][0] == p * gen(0, 0)
    assert right != left


def test_qmatrix_trace_and_add():
    m = QMatrix.generators(QQ, 2)
    diag = QMatrix.identity(QQ, 2).mul_poly_right(gen(0, 0) + gen(1, 1))
    assert (m + m).rows[1][0] == gen(1, 0) + gen(1, 0)
    assert (m + diag).rows[1][1] == gen(0, 0) + gen(1, 1) + gen(1, 1)
    z = m - m
    assert z.is_zero()
