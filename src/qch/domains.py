"""Coefficient domains: the exact field Q(q), Z/m at a point (a prime
field, or the product of several at a joint point), and degree-span
bounds.

Every higher layer (tensor operators, noncommutative polynomials, the
elimination routines) is generic over this small protocol, so the same
construction code runs exactly over Q(q) or fast over F_p at a PrimePoint.
Their sparse sums and products all go through the one kernel in
`qch.sparse`, which reaches coefficients only through a domain.

The protocol, with the layer that calls each member:

  * every domain: `name`, `zero()`, `one()`, `is_zero`, `add`, `neg` and
    `mul` (`qch.sparse`, `tensor`, `ncpoly`, `linalg`); operator
    coefficients are a domain too (`ncpoly.NCDomain`);
  * the scalar domains (`QDomain`, `FpDomain`, `SpanDomain`) also
    `from_scalar`, which sends an exact QScalar in (the contexts' `over`
    and the scalar constants of their constructions), and `can_pivot`
    (the contexts' `over`);
  * the pivoting domains (`QDomain`, `FpDomain`) also `inv` (`Echelon`),
    `exact` (`QuadraticIdeal.membership`) and `to_text`
    (`NCPoly.to_text`, `rmatrix.check_bmw`).

A new domain implements its part of this and nothing more.

SpanDomain runs the same construction code once more to bound, without
computing them, the Laurent degree spans of the exact Q(q) coefficients.
That bound is the candidate degree of a modular verdict whose candidate is
only ever built at prime points.  Its elements cannot decide equality, so
it cannot pivot: objects that need elimination are built over Q(q) first
(`can_pivot` below).
"""

from __future__ import annotations

import operator

from . import scalar
from .scalar import InadmissiblePointError, QScalar


class QDomain:
    """Q(q) with QScalar elements.  Each operation is QScalar's own, with
    no wrapper call: the generic sparse loops call them once per term."""

    name = "Q(q)"
    exact = True
    can_pivot = True

    is_zero = staticmethod(QScalar.is_zero)
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    inv = staticmethod(QScalar.inv)
    to_text = staticmethod(scalar.scalar_to_text)

    def zero(self):
        return scalar.ZERO

    def one(self):
        return scalar.ONE

    def from_scalar(self, a):
        return a


class FpDomain:
    """Z/m with q evaluated at a PrimePoint, m = point.p: a prime, so F_p,
    or at a joint point the product of a batch of pool primes.  Elements
    are plain ints in [0, m).  Only units have inverses."""

    exact = False
    can_pivot = True

    def __init__(self, point):
        self.point = point
        self.p = point.p
        self.name = f"Z/{point.p}(qhat={point.qhat})"

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        # a pivot that is nonzero over Q(q) but vanishes here (at a joint
        # point: at one of its primes): the point is not admissible for
        # this computation
        try:
            return pow(a, -1, self.p)
        except ValueError:
            raise InadmissiblePointError(
                f"{a} is not a unit in {self.name}") from None

    def from_scalar(self, a):
        return self.point.reduce(a)

    def to_text(self, a):
        return str(a)


class Span:
    """An upper bound on an element x of Q(q), not x itself.

    x = N / D, where N is a Laurent polynomial with exponents in [lo, hi]
    and D is, up to a constant, the product of the denominator atoms raised
    to their multiplicities.  An atom is the denominator of an exact
    coefficient (`SpanDomain.from_scalar`), a polynomial with a nonzero
    constant term, keyed (degree, coefficients); `den` is the degree bound
    of D.
    """

    __slots__ = ("lo", "hi", "atoms", "den")

    def __init__(self, lo, hi, atoms, den):
        self.lo = lo
        self.hi = hi
        self.atoms = atoms
        self.den = den

    def degree_span(self):
        """At least the `degree_span()` of the canonical form of x: the
        canonical numerator divides q^s N and the denominator q^t D."""
        return max(self.hi - self.lo, self.den)

    def __repr__(self):
        return f"Span([{self.lo}, {self.hi}], den {self.den})"


# the structural zero: the only element known to be 0
SPAN_ZERO = Span(0, 0, {}, 0)
SPAN_ONE = Span(0, 0, {}, 0)


class SpanDomain:
    """Degree-span bounds of Q(q) values (see `Span`).

    Sums take each atom's larger multiplicity, a common multiple of the two
    denominators, and widen the numerator range by the cofactors; products
    add ranges and multiplicities.  Negation changes no bound, and only the
    structural zero is zero, so a sum that cancels over Q(q) stays a
    (valid, loose) bound here.  There is no inverse: nothing is eliminated
    over this domain (`can_pivot`).
    """

    name = "span"
    can_pivot = False

    def zero(self):
        return SPAN_ZERO

    def one(self):
        return SPAN_ONE

    def is_zero(self, a):
        return a is SPAN_ZERO

    def add(self, a, b):
        if a is SPAN_ZERO:
            return b
        if b is SPAN_ZERO:
            return a
        if a.atoms == b.atoms:
            return Span(min(a.lo, b.lo), max(a.hi, b.hi), a.atoms, a.den)
        atoms = dict(a.atoms)
        for key, m in b.atoms.items():
            if atoms.get(key, 0) < m:
                atoms[key] = m
        den = sum(key[0] * m for key, m in atoms.items())
        # N_a * (D / D_a) + N_b * (D / D_b): each cofactor is a polynomial
        # of degree at most den - den_a (den - den_b)
        return Span(min(a.lo, b.lo),
                    max(a.hi + den - a.den, b.hi + den - b.den), atoms, den)

    def neg(self, a):
        return a

    def mul(self, a, b):
        if a is SPAN_ZERO or b is SPAN_ZERO:
            return SPAN_ZERO
        if not b.atoms:
            atoms = a.atoms
        elif not a.atoms:
            atoms = b.atoms
        else:
            atoms = dict(a.atoms)
            for key, m in b.atoms.items():
                atoms[key] = atoms.get(key, 0) + m
        return Span(a.lo + b.lo, a.hi + b.hi, atoms, a.den + b.den)

    def from_scalar(self, a):
        if a.is_zero():
            return SPAN_ZERO
        # x = num / den with den(0) != 0
        num_lo, num_hi = min(a.num), max(a.num)
        width = max(a.den)
        if not width:
            return Span(num_lo, num_hi, {}, 0)
        key = (width, tuple(sorted(a.den.items())))
        return Span(num_lo, num_hi, {key: 1}, width)


QQ = QDomain()
