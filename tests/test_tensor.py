from __future__ import annotations

import pytest

from qch import rmatrix, tensor
from qch.domains import QQ
from qch.linalg import SingularMatrixError
from qch.scalar import ONE, QScalar, sample_points
from qch.tensor import TensorOperator


def qp(e):
    return QScalar.q_power(e)


def diag(entries):
    data = {((i,), (i,)): c for i, c in enumerate(entries) if not c.is_zero()}
    return TensorOperator(QQ, len(entries), 1, data)


def test_identity_and_flip_traces():
    ident = TensorOperator.identity(QQ, 2, 2)
    n2 = ident.partial_trace(2).partial_trace(1).scalar_value()
    assert n2 == QScalar.from_int(4)
    flip = TensorOperator.flip(QQ, 2)
    assert flip.partial_trace(2) == TensorOperator.identity(QQ, 2, 1)
    assert (flip @ flip) == ident


def test_composition_associative_and_disjoint_embed():
    ctx = rmatrix.build_standard_sp(1)
    a = ctx.r.embed(1, 3)
    b = ctx.k_op.embed(2, 3)
    c = TensorOperator.flip(QQ, 2).embed(1, 3)
    assert ((a @ b) @ c) == (a @ (b @ c))
    # operators with disjoint support commute
    r1 = ctx.r.embed(1, 4)
    k3 = ctx.k_op.embed(3, 4)
    assert (r1 @ k3) == (k3 @ r1)


@pytest.mark.parametrize("pos", [1, 2, 3])
def test_apply_at_matches_embedded_columns(pos):
    """Applying an operator at a factor position to a vector agrees with
    the embedded operator, one basis vector and one sum at a time."""
    ctx = rmatrix.build_standard_sp(1)
    op = ctx.r + ctx.k_op.scale(qp(2))
    big = op.embed(pos, 4)
    cols = big.columns()
    keys = sorted(cols)
    images = list(op.apply_at(pos, ({t: ONE} for t in keys)))
    assert images == [cols[t] for t in keys]
    vec = {keys[0]: qp(1), keys[5]: qp(-2), keys[-1]: ONE}
    (image,) = op.apply_at(pos, [vec])
    want = {}
    for t, c in vec.items():
        for tout, v in cols[t].items():
            want[tout] = want.get(tout, QScalar.from_int(0)) + v * c
    assert image == {t: c for t, c in want.items() if not c.is_zero()}


def test_trace_cyclicity_in_traced_factor():
    ctx = rmatrix.build_standard_sp(1)
    x = ctx.r
    y = ctx.d_r.embed(2, 2)
    assert (x @ y).partial_trace(2) == (y @ x).partial_trace(2)


def test_skew_inverse_of_flip_is_flip():
    flip = TensorOperator.flip(QQ, 2)
    psi = tensor.solve_skew_inverse(flip)
    assert psi == flip
    res1, res2 = tensor.verify_skew_inverse(flip, psi)
    assert res1.is_zero() and res2.is_zero()


@pytest.mark.parametrize("k,exponents", [
    (1, [-5, -1]),
    (2, [-9, -7, -3, -1]),
])
def test_skew_inverse_standard_sp(k, exponents):
    ctx = rmatrix.build_standard_sp(k)
    res1, res2 = tensor.verify_skew_inverse(ctx.r, ctx.psi)
    assert res1.is_zero() and res2.is_zero()
    assert ctx.d_r == diag([qp(e) for e in exponents])
    assert ctx.d_r == rmatrix.standard_sp_dtrace(k)


def test_plain_trace_of_contractor_k1():
    ctx = rmatrix.build_standard_sp(1)
    assert ctx.k_op.partial_trace(2) == diag([-qp(-2), -qp(2)])


def test_exact_rank_examples():
    flip = TensorOperator.flip(QQ, 2)
    assert tensor.exact_rank(flip) == 4
    ctx = rmatrix.build_standard_sp(1)
    assert tensor.exact_rank(ctx.k_op) == 1
    a2 = rmatrix.antisymmetrizer_tower(ctx, 2)[1]
    assert tensor.exact_rank(a2) == 0
    # the rank in the operator's own domain, here F_p at a prime point
    pt = sample_points(0, 1, 12)[0]
    assert tensor.rank_certificate(ctx.k_op.reduce_at(pt)) == 1


def test_singular_skew_inverse_reports_kernel():
    x = TensorOperator(QQ, 2, 2, {((0, 0), (0, 0)): ONE})
    with pytest.raises(SingularMatrixError) as err:
        tensor.solve_skew_inverse(x)
    assert err.value.kernel


def test_r_trace_matches_component_formula():
    ctx = rmatrix.build_standard_sp(1)
    lhs = ctx.tr_r(ctx.r, 2)
    acc = TensorOperator.zero(QQ, 2, 1)
    d = tensor.matrix_from_operator(ctx.d_r)
    for (tin, tout), c in ctx.r.data.items():
        if d[tin[1]][tout[1]].is_zero():
            continue
        acc.add_to_entry((tin[0],), (tout[0],), d[tin[1]][tout[1]] * c)
    assert lhs == acc
