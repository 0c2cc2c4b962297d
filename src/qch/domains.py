"""Coefficient domains: the exact field Q(q) and prime fields at a point.

Every higher layer (tensor operators, noncommutative polynomials, the
elimination routines) is generic over this small protocol, so the same
construction code runs exactly over Q(q) or fast over F_p at a PrimePoint.
Their sparse sums and products all go through the one kernel in
`qch.sparse`, which reaches coefficients only through a domain.
"""

from __future__ import annotations

from . import scalar
from .scalar import QScalar


class QDomain:
    """Q(q) with QScalar elements."""

    name = "Q(q)"
    exact = True
    point = None

    def zero(self):
        return scalar.ZERO

    def one(self):
        return scalar.ONE

    def is_zero(self, a):
        return a.is_zero()

    def is_one(self, a):
        return a.is_one()

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inv()

    def from_scalar(self, a):
        return a

    def from_int(self, n):
        return QScalar.from_int(n)

    def to_text(self, a):
        return scalar.scalar_to_text(a)


class FpDomain:
    """F_p with q evaluated at a PrimePoint; elements are plain ints."""

    exact = False

    def __init__(self, point):
        self.point = point
        self.p = point.p
        self.name = f"F_{point.p}(qhat={point.qhat})"

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in " + self.name)
        return pow(a, -1, self.p)

    def from_scalar(self, a):
        return self.point.reduce(a)

    def from_int(self, n):
        return n % self.p

    def to_text(self, a):
        return str(a)


QQ = QDomain()
