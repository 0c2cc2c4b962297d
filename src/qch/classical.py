"""Classical limit over exact rationals: symplectic-similitude samples,
the classical pi map, wedge traces, and the parent trace identity.

A similitude matrix satisfies M^t Omega M = g Omega = M Omega M^t for
the standard antidiagonal symplectic form Omega; samples are assembled
from the explicit block solution M = [[A, AY], [XA, XAY + g A'^{-1}]]
with A invertible and X' = X, Y' = Y (prime = antidiagonal transpose).
"""
from __future__ import annotations

import math
import operator
import random
from fractions import Fraction


class RationalMatrix:
    """Dense matrix with exact rational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)]
                    for i in range(n)])

    @classmethod
    def zero(cls, n):
        return cls([[0] * n for _ in range(n)])

    @property
    def dim(self):
        return len(self.rows)

    def __add__(self, other):
        return RationalMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return RationalMatrix([[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __matmul__(self, other):
        # rows of self and columns of other as integers over one
        # denominator each; one Fraction per output entry
        rows = [_cleared(row) for row in self.rows]
        cols = [_cleared(col) for col in zip(*other.rows)]
        return RationalMatrix([[Fraction(sum(map(operator.mul, r, c)),
                                         dr * dc)
                                for c, dc in cols] for r, dr in rows])

    def scale(self, c):
        c = Fraction(c)
        return RationalMatrix([[c * x for x in row] for row in self.rows])

    def transpose(self):
        return RationalMatrix(list(zip(*self.rows)))

    def power(self, n):
        out = RationalMatrix.identity(self.dim)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.dim))

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def __eq__(self, other):
        return self.rows == other.rows

    def det(self):
        # Gaussian elimination with exact fractions.
        n = self.dim
        a = [list(row) for row in self.rows]
        out = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                out = -out
            out *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                f = a[r][col] * inv
                if f:
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return out

    def inverse(self):
        n = self.dim
        a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
             for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            a[col], a[piv] = a[piv], a[col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return RationalMatrix([row[n:] for row in a])

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, r)) for r in self.rows]})"


def _cleared(xs):
    """(integers, d) with d the lcm of the denominators and xs = ints / d."""
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def antidiagonal_unit(k):
    return RationalMatrix([[1 if i + j == k - 1 else 0 for j in range(k)]
                           for i in range(k)])


def prime(x):
    """Antidiagonal transpose X' = w X^t w."""
    w = antidiagonal_unit(x.dim)
    return w @ x.transpose() @ w


def omega(k):
    """Block matrix [[0, w], [-w, 0]] of the symplectic form."""
    w = antidiagonal_unit(k)
    z = RationalMatrix.zero(k)
    return assemble_blocks(z, w, w.scale(-1), z)


def assemble_blocks(a, b, c, d):
    k = a.dim
    rows = []
    for i in range(k):
        rows.append(list(a.rows[i]) + list(b.rows[i]))
    for i in range(k):
        rows.append(list(c.rows[i]) + list(d.rows[i]))
    return RationalMatrix(rows)


def block(m, corner):
    """Extract the k x k block "a", "b", "c", or "d" of a 2k x 2k matrix."""
    k = m.dim // 2
    r0 = 0 if corner in ("a", "b") else k
    c0 = 0 if corner in ("a", "c") else k
    return RationalMatrix([[m.rows[r0 + i][c0 + j] for j in range(k)]
                           for i in range(k)])


class SimilitudeSample:
    """Blocks of the explicit similitude solution."""

    __slots__ = ("k", "a", "x", "y", "g")

    def __init__(self, a, x, y, g):
        self.k = a.dim
        self.a = a
        self.x = x
        self.y = y
        self.g = Fraction(g)
        if a.det() == 0:
            raise ValueError("block A must be invertible")
        if not (prime(x) - x).is_zero():
            raise ValueError("block X must satisfy X' = X")
        if not (prime(y) - y).is_zero():
            raise ValueError("block Y must satisfy Y' = Y")

    def matrix(self):
        """M = [[A, AY], [XA, XAY + g A'^{-1}]]; the g-term is dropped
        entirely when g = 0."""
        a, x, y = self.a, self.x, self.y
        d = x @ a @ y
        if self.g:
            d = d + prime(a).inverse().scale(self.g)
        return assemble_blocks(a, a @ y, x @ a, d)

    def triple_product(self):
        """The lower-diagonal-upper factorization of the sample."""
        k = self.k
        i = RationalMatrix.identity(k)
        z = RationalMatrix.zero(k)
        lower = assemble_blocks(i, z, self.x, i)
        mid = assemble_blocks(self.a, z, z,
                              prime(self.a).inverse().scale(self.g)
                              if self.g else z)
        upper = assemble_blocks(i, self.y, z, i)
        return lower @ mid @ upper


def _rand_fraction(rng):
    return Fraction(rng.randint(-99, 99), rng.randint(1, 99))


def _rand_block(k, rng):
    return RationalMatrix([[_rand_fraction(rng) for _ in range(k)]
                           for _ in range(k)])


def _rand_primed_symmetric(k, rng):
    m = _rand_block(k, rng)
    return (m + prime(m)).scale(Fraction(1, 2))


def sample_blocks(k, g, rng):
    for _ in range(100):
        a = _rand_block(k, rng)
        if a.det() != 0:
            return SimilitudeSample(a, _rand_primed_symmetric(k, rng),
                                    _rand_primed_symmetric(k, rng), g)
    raise ValueError("no invertible A found within retry budget")


def sample_similitude(k, g, seed):
    return sample_blocks(k, g, random.Random(seed)).matrix()


def invariance_residuals(m, g):
    """Both sides of the similitude condition: M^t Om M - g Om and
    M Om M^t - g Om."""
    k = m.dim // 2
    om = omega(k)
    target = om.scale(g)
    return (m.transpose() @ om @ m - target, m @ om @ m.transpose() - target)


def classical_pi(m):
    """pi(M) = -Omega M^t Omega."""
    om = omega(m.dim // 2)
    return (om @ m.transpose() @ om).scale(-1)


def char_coefficients(m):
    """[e_0, .., e_n] with e_i the i-th wedge trace, via Newton's
    identities on the power-sum traces."""
    n = m.dim
    power = RationalMatrix.identity(n)
    psums = [Fraction(n)]
    for _ in range(n):
        power = power @ m
        psums.append(power.trace())
    coeffs = [Fraction(1)]
    for i in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, i + 1):
            acc += (-1) ** (j - 1) * coeffs[i - j] * psums[j]
        coeffs.append(acc / i)
    return coeffs


def wedge_trace(m, i):
    """Trace of the i-th wedge power of M."""
    if not 0 <= i <= m.dim:
        raise ValueError("wedge index out of range")
    return char_coefficients(m)[i]


def classical_parent_ch(m):
    """Residual of the classical parent trace identity
    sum_{i=0}^{k} (-1)^i M^{k-i} e_i + sum_{i=0}^{k-1} (-1)^i pi(M)^{k-i} e_i.
    """
    k = m.dim // 2
    eps = char_coefficients(m)
    pim = classical_pi(m)
    out = RationalMatrix.zero(m.dim)
    for base, top in ((m, k), (pim, k - 1)):
        powers = _powers(base, k)
        for i in range(top + 1):
            sign = 1 if i % 2 == 0 else -1
            out = out + powers[k - i].scale(sign * eps[i])
    return out


def _powers(m, n):
    """[M^0, M^1, .., M^n], each from the one before."""
    out = [RationalMatrix.identity(m.dim), m]
    while len(out) <= n:
        out.append(out[-1] @ m)
    return out[:n + 1]


# Default similitude-factor cycle: includes the degenerate g = 0 and a
# negative value so both invariance equalities are exercised independently.
DEFAULT_G_VALUES = (Fraction(0), Fraction(-3), Fraction(7, 3),
                    Fraction(-5, 2), Fraction(1))


def check_samples(k, count, seed, g_values=None):
    """Run the full classical check battery over seeded samples."""
    rng = random.Random(seed)
    if g_values is None:
        g_values = DEFAULT_G_VALUES
    results = {"k": k, "samples": count, "ok": True}
    for idx in range(count):
        g = Fraction(g_values[idx % len(g_values)])
        sample = sample_blocks(k, g, rng)
        m = sample.matrix()
        left, right = invariance_residuals(m, g)
        checks = {
            "invariance-left": left.is_zero(),
            "invariance-right": right.is_zero(),
            "det": m.det() == g ** k,
            "parent": classical_parent_ch(m).is_zero(),
            "factorization": (sample.triple_product() - m).is_zero(),
        }
        if not all(checks.values()):
            results["ok"] = False
            results["failed_at"] = {"index": idx, "g": str(g),
                                    **{c: bool(v) for c, v in checks.items()}}
            return results
    return results
