"""The sparse-accumulation kernel against a naive dense reference."""
from __future__ import annotations

import importlib.util
import pathlib

import pytest

from qch import linalg, sparse
from qch.domains import QQ, FpDomain
from qch.ncpoly import NCDomain, NCPoly
from qch.scalar import PrimePoint, QScalar

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

# p = 7 makes cancellations common
FP = FpDomain(PrimePoint(7, 3, 1))
KEYS = st.integers(0, 5)


def qq_coeffs():
    laurent = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2),
                              max_size=2)
    return laurent.map(QScalar.laurent)


def fp_coeffs():
    return st.integers(0, FP.p - 1)


def nc_coeffs():
    # one generator times a constant: products of two do not commute
    gen = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 6))
    return gen.map(lambda t: NCPoly.generator(FP, t[0], t[1]).scale(t[2]))


# each property runs over Q(q), F_7 and noncommutative polynomials over F_7
over_domains = pytest.mark.parametrize(
    "dom,coeffs", [(QQ, qq_coeffs()), (FP, fp_coeffs()),
                   (NCDomain(FP), nc_coeffs())], ids=["QQ", "Fp", "NC"])
prop = settings(max_examples=60, deadline=None)


def sparse_maps(coeffs, dom):
    return st.dictionaries(KEYS, coeffs).map(
        lambda m: {k: v for k, v in m.items() if not dom.is_zero(v)})


def pair_lists(coeffs):
    return st.lists(st.tuples(KEYS, coeffs), max_size=8)


def dense(pairs, dom):
    """Accumulate without dropping, then filter the zeros out."""
    out = {}
    for k, v in pairs:
        out[k] = dom.add(out.get(k, dom.zero()), v)
    return {k: v for k, v in out.items() if not dom.is_zero(v)}


def assert_sparse(out, dom):
    assert not any(dom.is_zero(v) for v in out.values())


@over_domains
@prop
@given(data=st.data())
def test_add_into_matches_reference(dom, coeffs, data):
    dst = data.draw(sparse_maps(coeffs, dom))
    pairs = data.draw(pair_lists(coeffs))
    expected = dense(list(dst.items()) + pairs, dom)
    out = sparse.add_into(dict(dst), pairs, dom)
    assert out == expected
    assert_sparse(out, dom)


@over_domains
@prop
@given(data=st.data())
def test_axpy_into_matches_reference(dom, coeffs, data):
    dst = data.draw(sparse_maps(coeffs, dom))
    pairs = data.draw(pair_lists(coeffs))
    c = data.draw(coeffs)
    # src's coefficient stays on the left of c
    expected = dense(list(dst.items())
                     + [(k, dom.mul(v, c)) for k, v in pairs], dom)
    out = sparse.axpy_into(dict(dst), pairs, c, dom)
    assert out == expected
    assert_sparse(out, dom)


@over_domains
@prop
@given(data=st.data())
def test_product_matches_reference(dom, coeffs, data):
    a = data.draw(sparse_maps(coeffs, dom))
    b = data.draw(sparse_maps(coeffs, dom))
    combine = lambda x, y: (x + y) % 4
    # a's coefficient stays on the left
    expected = dense([(combine(ka, kb), dom.mul(ca, cb))
                      for ka, ca in a.items() for kb, cb in b.items()], dom)
    out = sparse.product(a, b, combine, dom)
    assert out == expected
    assert_sparse(out, dom)


@over_domains
@prop
@given(data=st.data())
def test_product_into_dst_adds_the_product(dom, coeffs, data):
    dst = data.draw(sparse_maps(coeffs, dom))
    a = data.draw(sparse_maps(coeffs, dom))
    b = data.draw(sparse_maps(coeffs, dom))
    combine = lambda x, y: (x + y) % 4
    expected = sparse.add_into(dict(dst),
                               sparse.product(a, b, combine, dom).items(), dom)
    out = dict(dst)
    assert sparse.product(a, b, combine, dom, out) is out
    assert out == expected
    assert_sparse(out, dom)


def test_product_into_dst_removes_cancelled_keys():
    # dst[0] + 2 * 3 = 0 mod 7, and key 1 is new
    dst = {0: 1, 2: 5}
    sparse.product({0: 2}, {0: 3, 1: 4}, lambda x, y: x + y, FP, dst)
    assert list(dst.items()) == [(2, 5), (1, 1)]


@pytest.mark.parametrize("dom,coeffs", [(QQ, qq_coeffs()), (FP, fp_coeffs())],
                         ids=["QQ", "Fp"])
@prop
@given(data=st.data())
def test_invert_matrix_inverse_or_kernel(dom, coeffs, data):
    """A^-1 A = I, or a nonzero v with A v = 0 for a singular A."""
    n = data.draw(st.integers(1, 4))
    # stored zeros are allowed: invert_matrix drops them
    rows = [data.draw(st.dictionaries(st.integers(0, n - 1), coeffs))
            for _ in range(n)]
    try:
        inv = linalg.invert_matrix(rows, n, dom)
    except linalg.SingularMatrixError as err:
        kernel = err.kernel
        assert any(not dom.is_zero(v) for v in kernel.values())
        for row in rows:
            assert not dense([(0, dom.mul(v, kernel[c]))
                              for c, v in row.items() if c in kernel], dom)
        return
    for i, inv_row in enumerate(inv):
        assert dense([(col, dom.mul(c, v)) for r, c in inv_row.items()
                      for col, v in rows[r].items()], dom) == {i: dom.one()}


def test_cancelled_key_is_removed_and_new_key_appended():
    dst = {1: 2, 2: 3, 3: 4}
    sparse.add_into(dst, [(2, 4), (5, 1), (2, 1)], FP)
    assert list(dst.items()) == [(1, 2), (3, 4), (5, 1), (2, 1)]


# -- benchmark tracer targets ------------------------------------------------

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    """Every entry point perfbench/tracer.py wraps still exists: a module
    function in qch.<layer>, a method in its class's own __dict__, which
    is where the tracer reads it.  A missing class counts as missing."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, targets in tracer.TARGETS.items():
        module = importlib.import_module(f"qch.{layer}")
        for owner, names in targets.items():
            if owner is None:
                scope = vars(module)
            else:
                cls = getattr(module, owner, None)
                scope = vars(cls) if isinstance(cls, type) else {}
            missing += [f"{layer}.{owner or ''}.{n}" for n in names
                        if n not in scope]
    assert not missing
