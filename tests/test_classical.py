"""Classical-limit similitude sampling, pi map, wedge traces, and the
parent trace identity over exact rationals."""
from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from qch import classical as cl


def minor_sum(m, i):
    """Independent wedge-trace oracle: sum of principal i x i minors."""
    if i == 0:
        return Fraction(1)
    tot = Fraction(0)
    for rows in itertools.combinations(range(m.dim), i):
        sub = cl.RationalMatrix([[m.rows[a][b] for b in rows]
                                 for a in rows])
        tot += sub.det()
    return tot


# -- omega ---------------------------------------------------------------------

def test_omega_k1():
    assert cl.omega(1).rows == ((Fraction(0), Fraction(1)),
                                (Fraction(-1), Fraction(0)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_omega_antisymmetric_square(k):
    om = cl.omega(k)
    assert (om.transpose() + om).is_zero()
    assert (om @ om + cl.RationalMatrix.identity(2 * k)).is_zero()


# -- sampling ------------------------------------------------------------------

def test_trivial_sample():
    for k in (1, 2):
        g = Fraction(5, 2)
        s = cl.SimilitudeSample(cl.RationalMatrix.identity(k),
                                cl.RationalMatrix.zero(k),
                                cl.RationalMatrix.zero(k), g)
        m = s.matrix()
        assert (cl.block(m, "a") - cl.RationalMatrix.identity(k)).is_zero()
        assert cl.block(m, "b").is_zero() and cl.block(m, "c").is_zero()
        assert (cl.block(m, "d")
                - cl.RationalMatrix.identity(k).scale(g)).is_zero()
        left, right = cl.invariance_residuals(m, g)
        assert left.is_zero() and right.is_zero()


def test_constructor_rejects_bad_blocks():
    bad_x = cl.RationalMatrix([[1, 0], [0, 0]])  # X' != X
    eye = cl.RationalMatrix.identity(2)
    zero = cl.RationalMatrix.zero(2)
    with pytest.raises(ValueError):
        cl.SimilitudeSample(eye, bad_x, zero, 1)
    with pytest.raises(ValueError):
        cl.SimilitudeSample(zero, zero, zero, 1)


def test_sample_deterministic():
    m1 = cl.sample_similitude(2, Fraction(7, 3), seed=5)
    m2 = cl.sample_similitude(2, Fraction(7, 3), seed=5)
    assert (m1 - m2).is_zero()


@pytest.mark.parametrize("g", [Fraction(7, 3), Fraction(0), Fraction(-3)])
def test_invariance_both_sides(g):
    m = cl.sample_similitude(2, g, seed=11)
    left, right = cl.invariance_residuals(m, g)
    assert left.is_zero() and right.is_zero()


def test_triple_product_factorization():
    rng = random.Random(17)
    for k in (1, 2, 3):
        for g in (Fraction(0), Fraction(4, 7)):
            s = cl.sample_blocks(k, g, rng)
            assert (s.triple_product() - s.matrix()).is_zero()


def test_battery_inverts_each_block_once(monkeypatch):
    # 8 of the 10 samples have g != 0; each inverts A' once for both
    # matrix() and triple_product()
    calls = []
    inverse = cl.RationalMatrix.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)
    monkeypatch.setattr(cl.RationalMatrix, "inverse", counted)
    assert cl.check_samples(4, 10, 1)["ok"]
    assert len(calls) == 8


# -- pi map --------------------------------------------------------------------

def test_classical_pi_k1():
    m = cl.RationalMatrix([[3, 5], [7, 11]])
    p = cl.classical_pi(m)
    assert p.rows == ((Fraction(11), Fraction(-5)),
                      (Fraction(-7), Fraction(3)))
    # 2x2 adjugate identity M + pi(M) = tr(M) I
    assert (m + p - cl.RationalMatrix.identity(2).scale(m.trace())).is_zero()


def test_classical_pi_involution_and_blocks():
    m = cl.sample_similitude(2, Fraction(2, 5), seed=23)
    p = cl.classical_pi(m)
    assert (cl.classical_pi(p) - m).is_zero()
    assert (cl.block(p, "a") - cl.prime(cl.block(m, "d"))).is_zero()
    assert (cl.block(p, "b") + cl.prime(cl.block(m, "b"))).is_zero()
    assert (cl.block(p, "c") + cl.prime(cl.block(m, "c"))).is_zero()
    assert (cl.block(p, "d") - cl.prime(cl.block(m, "a"))).is_zero()


# -- wedge traces --------------------------------------------------------------

def test_wedge_trace_anchors():
    m = cl.sample_similitude(2, Fraction(3), seed=31)
    assert cl.wedge_trace(m, 0) == 1
    assert cl.wedge_trace(m, 1) == m.trace()
    assert cl.wedge_trace(m, m.dim) == m.det()
    with pytest.raises(ValueError):
        cl.wedge_trace(m, m.dim + 1)


def test_wedge_trace_against_minor_oracle():
    rng = random.Random(37)
    m = cl._rand_block(4, rng)
    for i in range(5):
        assert cl.wedge_trace(m, i) == minor_sum(m, i)


def test_char_coefficients_against_sympy_charpoly():
    # det(x I - M) = sum_i (-1)^i e_i x^(n - i)
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(53)
    for n in (1, 2, 3, 4, 5):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for _ in range(n)] for _ in range(n)]
        coeffs = sympy.Matrix(rows).charpoly(x).all_coeffs()
        got = cl.char_coefficients(cl.RationalMatrix(rows))
        assert len(got) == len(coeffs) == n + 1
        for i, (e, c) in enumerate(zip(got, coeffs)):
            assert sympy.Rational(e.numerator, e.denominator) == (-1) ** i * c


@pytest.mark.parametrize("g", [Fraction(7, 3), Fraction(0), Fraction(-5, 2)])
def test_similitude_determinant(g):
    for k in (1, 2):
        m = cl.sample_similitude(k, g, seed=41 + k)
        assert m.det() == g ** k


# -- integer-cleared products and the power chains ---------------------------

def _naive_matmul(a, b):
    n = a.dim
    return tuple(tuple(sum((a.rows[i][l] * b.rows[l][j] for l in range(n)),
                           Fraction(0))
                       for j in range(n)) for i in range(n))


def _rand_matrix(rng, n):
    kind = rng.randrange(3)
    if kind == 0:    # integers
        return cl.RationalMatrix([[rng.randint(-9, 9) for _ in range(n)]
                                  for _ in range(n)])
    if kind == 1:    # sparse, mixed denominators
        return cl.RationalMatrix([[Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 60))
                                   if rng.random() < 0.4 else 0
                                   for _ in range(n)] for _ in range(n)])
    return cl._rand_block(n, rng)


def test_matmul_equals_naive_fraction_product():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 6)
        a, b = _rand_matrix(rng, n), _rand_matrix(rng, n)
        assert (a @ b).rows == _naive_matmul(a, b)
    z = cl.RationalMatrix.zero(3)
    assert (z @ _rand_matrix(rng, 3)).is_zero()


def _entrywise(a, b, op):
    return tuple(tuple(op(x, y) for x, y in zip(r1, r2))
                 for r1, r2 in zip(a.rows, b.rows))


def _leibniz_det(rows):
    n = len(rows)
    tot = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        tot += term
    return tot


def _assert_lowest_terms(m):
    assert m.den > 0
    assert math.gcd(m.den, *(x for row in m.num for x in row)) == 1


def test_operations_against_fraction_entries():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(1, 5)
        a, b = _rand_matrix(rng, n), _rand_matrix(rng, n)
        c = Fraction(-rng.randint(1, 40), rng.randint(1, 40))
        eye = tuple(tuple(Fraction(int(i == j)) for j in range(n))
                    for i in range(n))
        results = {
            "add": (a + b, _entrywise(a, b, operator.add)),
            "sub": (a - b, _entrywise(a, b, operator.sub)),
            "scale": (a.scale(c), tuple(tuple(c * x for x in row)
                                        for row in a.rows)),
            "scale0": (a.scale(0), cl.RationalMatrix.zero(n).rows),
            "transpose": (a.transpose(), tuple(zip(*a.rows))),
        }
        for name, (got, want) in results.items():
            assert got.rows == want, name
            _assert_lowest_terms(got)
            assert got == cl.RationalMatrix(want), name
        assert a.trace() == sum(a.rows[i][i] for i in range(n))
        det = _leibniz_det(a.rows)
        assert a.det() == det
        if det:
            inv = a.inverse()
            _assert_lowest_terms(inv)
            assert _naive_matmul(a, inv) == eye
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        assert (a == b) == (a.rows == b.rows)
    assert cl.RationalMatrix.zero(3).scale(Fraction(-2, 3)).den == 1


def test_equal_matrices_by_different_paths():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 5)
        a, b = _rand_matrix(rng, n), _rand_matrix(rng, n)
        c = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        assert (a + b) - b == a
        assert a - a == cl.RationalMatrix.zero(n)
        assert (a - a).den == 1
        assert a.scale(c).scale(1 / c) == a
        assert a.transpose().transpose() == a
        assert (a + b).scale(c) == a.scale(c) + b.scale(c)
        assert a @ cl.RationalMatrix.identity(n) == a
    # a common factor of the entries moves into the denominator
    m = cl.RationalMatrix([[Fraction(1, 2), Fraction(1, 2)],
                           [Fraction(1, 2), Fraction(1, 2)]])
    doubled = m + m
    assert (doubled.num, doubled.den) == (((1, 1), (1, 1)), 1)


def _dense_omega(k):
    w = [[int(i + j == k - 1) for j in range(k)] for i in range(k)]
    return cl.RationalMatrix([[0] * k + row for row in w]
                             + [[-x for x in row] + [0] * k for row in w])


def test_index_forms_equal_dense_products():
    rng = random.Random(73)
    for k in (1, 2, 3):
        om = _dense_omega(k)
        assert cl.omega(k) == om
        w = cl.RationalMatrix([[int(i + j == k - 1) for j in range(k)]
                               for i in range(k)])
        for _ in range(6):
            x = _rand_matrix(rng, k)
            assert cl.prime(x) == w @ x.transpose() @ w
            m = _rand_matrix(rng, 2 * k)
            assert cl.classical_pi(m) == (om @ m.transpose() @ om).scale(-1)
            assert cl._omega_times(m) == om @ m
            # pi reverses products, so its powers are the pi of powers
            for j in (2, 3):
                assert cl.classical_pi(m).power(j) == cl.classical_pi(
                    m.power(j))
        g = Fraction(-7, 3)
        m = cl.sample_similitude(k, g, seed=79 + k)
        mt, target = m.transpose(), om.scale(g)
        left, right = cl.invariance_residuals(m, g)
        assert left == mt @ om @ m - target
        assert right == m @ om @ mt - target


def _parent_ch_by_power(m):
    """The parent residual summed with RationalMatrix.power per term."""
    k = m.dim // 2
    eps = cl.char_coefficients(m)
    pim = cl.classical_pi(m)
    out = cl.RationalMatrix.zero(m.dim)
    for i in range(k + 1):
        out = out + m.power(k - i).scale((-1) ** i * eps[i])
    for i in range(k):
        out = out + pim.power(k - i).scale((-1) ** i * eps[i])
    return out


def test_parent_ch_equals_power_sum():
    rng = random.Random(67)
    for k in (1, 2, 3):
        # a similitude (zero residual) and a generic matrix (nonzero)
        for m in (cl.sample_similitude(k, Fraction(5, 3), seed=71 + k),
                  cl._rand_block(2 * k, rng)):
            assert cl.classical_parent_ch(m) == _parent_ch_by_power(m)
    assert not cl.classical_parent_ch(cl._rand_block(4, rng)).is_zero()


# -- parent identity -----------------------------------------------------------

def test_parent_identity_k1_adjugate():
    m = cl.sample_similitude(1, Fraction(9, 4), seed=43)
    res = cl.classical_parent_ch(m)
    assert res.is_zero()
    direct = (m + cl.classical_pi(m)
              - cl.RationalMatrix.identity(2).scale(m.trace()))
    assert direct.is_zero()


def test_parent_identity_k2():
    m = cl.sample_similitude(2, Fraction(7, 3), seed=47)
    assert cl.classical_parent_ch(m).is_zero()


def test_parent_identity_g_zero():
    for k in (1, 2, 3):
        m = cl.sample_similitude(k, Fraction(0), seed=53 + k)
        left, right = cl.invariance_residuals(m, Fraction(0))
        assert left.is_zero() and right.is_zero()
        assert cl.classical_parent_ch(m).is_zero()
        assert m.det() == 0


def test_battery_small_k():
    for k in (1, 2):
        assert cl.check_samples(k, 100, seed=1000 + k)["ok"]


def test_battery_large_k_smoke():
    for k in (3, 4):
        assert cl.check_samples(k, 10, seed=2000 + k)["ok"]
