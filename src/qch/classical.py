"""Classical limit over exact rationals: symplectic-similitude samples,
the classical pi map, wedge traces, and the parent trace identity.

A similitude matrix satisfies M^t Omega M = g Omega = M Omega M^t for
the standard antidiagonal symplectic form Omega; samples are assembled
from the explicit block solution M = [[A, AY], [XA, XAY + g A'^{-1}]]
with A invertible and X' = X, Y' = Y (prime = antidiagonal transpose).

A `RationalMatrix` is integer rows over one denominator in lowest terms,
so products, sums and comparisons run on integers with one gcd per
result.  The structured factors are applied by index, not multiplied:
prime reverses indices, Omega M and pi(M) are signed permutations, and
the parent identity reads every power it needs from one chain M .. M^k.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction


class RationalMatrix:
    """Dense square matrix of rationals: integer rows `num` over one
    positive denominator `den`, in lowest terms (no prime divides `den`
    and every entry of `num`), so equal matrices have equal parts."""

    __slots__ = ("num", "den")

    def __init__(self, rows):
        rows = [[Fraction(x) for x in row] for row in rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        # over the lcm of lowest-term denominators the parts are coprime
        den = math.lcm(*(x.denominator for row in rows for x in row))
        self.num = tuple(tuple(x.numerator * (den // x.denominator)
                               for x in row) for row in rows)
        self.den = den

    @classmethod
    def identity(cls, n):
        return _exact(tuple(tuple(int(i == j) for j in range(n))
                            for i in range(n)), 1)

    @classmethod
    def zero(cls, n):
        return _exact(((0,) * n,) * n, 1)

    @property
    def dim(self):
        return len(self.num)

    @property
    def rows(self):
        """The entries as Fractions (a read-only view)."""
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.num)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def _combine(self, other, op):
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return _reduced(tuple(tuple(op(a * f, b * g) for a, b in zip(r1, r2))
                              for r1, r2 in zip(self.num, other.num)), den)

    def __matmul__(self, other):
        cols = tuple(zip(*other.num))
        return _reduced(tuple(tuple(sum(map(operator.mul, r, c))
                                    for c in cols) for r in self.num),
                        self.den * other.den)

    def scale(self, c):
        c = Fraction(c)
        a = c.numerator
        return _reduced(tuple(tuple(a * x for x in row) for row in self.num),
                        self.den * c.denominator)

    def transpose(self):
        return _exact(tuple(zip(*self.num)), self.den)

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
        return Fraction(sum(row[i] for i, row in enumerate(self.num)),
                        self.den)

    def is_zero(self):
        return not any(map(any, self.num))

    def __eq__(self, other):
        return self.den == other.den and self.num == other.num

    def det(self):
        # Bareiss fraction-free elimination on num: each division is
        # exact, and the last pivot is det(num) = det * den^n.
        n = self.dim
        a = [list(row) for row in self.num]
        sign, prev = 1, 1
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                sign = -sign
            p, top = a[col][col], a[col]
            for r in range(col + 1, n):
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], top)]
            prev = p
        return Fraction(sign * prev, self.den ** n)

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


def _exact(num, den):
    """The matrix num / den, with (num, den) already in lowest terms."""
    m = object.__new__(RationalMatrix)
    m.num = num
    m.den = den
    return m


def _reduced(num, den):
    """The matrix num / den for den > 0, brought to lowest terms by one
    gcd over den and every entry."""
    g = math.gcd(den, *itertools.chain.from_iterable(num)) if den > 1 else 1
    if g > 1:
        num = tuple(tuple(x // g for x in row) for row in num)
        den //= g
    return _exact(num, den)


def prime(x):
    """Antidiagonal transpose X' = w X^t w by index: entry (i, j) is
    X[n-1-j][n-1-i], so row i is column n-1-i of X read bottom-up."""
    return _exact(tuple(zip(*x.num[::-1]))[::-1], x.den)


def omega(k):
    """Block matrix [[0, w], [-w, 0]] of the symplectic form."""
    return _omega_times(RationalMatrix.identity(2 * k))


def _omega_times(m):
    """Omega M by index: row i is row n-1-i of M, negated in the bottom
    half."""
    k = m.dim // 2
    rows = m.num[::-1]
    return _exact(rows[:k] + tuple(tuple(-x for x in row) for row in rows[k:]),
                  m.den)


def assemble_blocks(a, b, c, d):
    den = math.lcm(a.den, b.den, c.den, d.den)
    return _reduced(tuple(tuple(x * (den // m.den) for m in pair
                                for x in m.num[i])
                          for pair in ((a, b), (c, d)) for i in range(a.dim)),
                    den)


def block(m, corner):
    """Extract the k x k block "a", "b", "c", or "d" of a 2k x 2k matrix."""
    k = m.dim // 2
    r0 = 0 if corner in ("a", "b") else k
    c0 = 0 if corner in ("a", "c") else k
    return _reduced(tuple(row[c0:c0 + k] for row in m.num[r0:r0 + k]),
                    m.den)


class SimilitudeSample:
    """Blocks of the explicit similitude solution."""

    __slots__ = ("k", "a", "x", "y", "g", "corner")

    def __init__(self, a, x, y, g):
        self.k = a.dim
        self.a = a
        self.x = x
        self.y = y
        self.g = Fraction(g)
        if a.det() == 0:
            raise ValueError("block A must be invertible")
        if prime(x) != x:
            raise ValueError("block X must satisfy X' = X")
        if prime(y) != y:
            raise ValueError("block Y must satisfy Y' = Y")
        # g A'^{-1}, inverted once for both factorizations
        self.corner = (prime(a).inverse().scale(self.g) if self.g
                       else RationalMatrix.zero(self.k))

    def matrix(self):
        """M = [[A, AY], [XA, XAY + g A'^{-1}]]; the g-term is dropped
        entirely when g = 0."""
        a, x, y = self.a, self.x, self.y
        xa = x @ a
        d = xa @ y
        if self.g:
            d = d + self.corner
        return assemble_blocks(a, a @ y, xa, d)

    def triple_product(self):
        """The lower-diagonal-upper factorization of the sample."""
        k = self.k
        i = RationalMatrix.identity(k)
        z = RationalMatrix.zero(k)
        lower = assemble_blocks(i, z, self.x, i)
        mid = assemble_blocks(self.a, z, z, self.corner)
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
    M Om M^t - g Om, with Om applied by index."""
    target = omega(m.dim // 2).scale(g)
    mt = m.transpose()
    return (mt @ _omega_times(m) - target, m @ _omega_times(mt) - target)


def classical_pi(m):
    """pi(M) = -Omega M^t Omega = (Omega (Omega M^t)^t)^t, by index.
    pi reverses products (Omega^2 = -1), hence pi(M)^j = pi(M^j)."""
    return _omega_times(_omega_times(m.transpose()).transpose()).transpose()


def _elementary(psums):
    """[e_0, .., e_m] from the power sums [p_1, .., p_m] by Newton's
    identities; e_i needs only p_1 .. p_i."""
    coeffs = [Fraction(1)]
    for i in range(1, len(psums) + 1):
        acc = Fraction(0)
        for j in range(1, i + 1):
            acc += (-1) ** (j - 1) * coeffs[i - j] * psums[j - 1]
        coeffs.append(acc / i)
    return coeffs


def char_coefficients(m):
    """[e_0, .., e_n] with e_i the i-th wedge trace, via Newton's
    identities on the power-sum traces."""
    return _elementary([p.trace() for p in _powers(m, m.dim)[1:]])


def wedge_trace(m, i):
    """Trace of the i-th wedge power of M."""
    if not 0 <= i <= m.dim:
        raise ValueError("wedge index out of range")
    return char_coefficients(m)[i]


def classical_parent_ch(m):
    """Residual of the classical parent trace identity
    sum_{i=0}^{k} (-1)^i M^{k-i} e_i + sum_{i=0}^{k-1} (-1)^i pi(M)^{k-i} e_i.

    One power chain M^0 .. M^k serves all of it: e_0 .. e_k come from
    the traces of M .. M^k, and pi(M)^j is pi(M^j)."""
    k = m.dim // 2
    powers = _powers(m, k)
    eps = _elementary([p.trace() for p in powers[1:]])
    out = RationalMatrix.zero(m.dim)
    for i in range(k + 1):
        sign = 1 if i % 2 == 0 else -1
        out = out + powers[k - i].scale(sign * eps[i])
        if i < k:
            out = out + classical_pi(powers[k - i]).scale(sign * eps[i])
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
