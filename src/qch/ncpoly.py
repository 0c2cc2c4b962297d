"""Noncommutative polynomials in the N^2 matrix generators.

A generator is labelled by a 0-based pair (a, b), standing for the entry
in row a, column b of the generating matrix.  A word is a tuple of
labels; words are never reordered here (all reduction is delegated to
the ideal machinery).  Coefficients live in a scalar domain and commute
with the generators.
"""

from __future__ import annotations

import operator

from .sparse import add_into, product


class NCPoly:
    __slots__ = ("dom", "terms")

    def __init__(self, dom, terms=None):
        self.dom = dom
        self.terms = terms if terms is not None else {}

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero(dom):
        return NCPoly(dom)

    @staticmethod
    def one(dom):
        return NCPoly(dom, {(): dom.one()})

    @staticmethod
    def constant(dom, c):
        if dom.is_zero(c):
            return NCPoly(dom)
        return NCPoly(dom, {(): c})

    @staticmethod
    def generator(dom, a, b):
        return NCPoly(dom, {((a, b),): dom.one()})

    # -- predicates ----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        return NCPoly(self.dom, add_into(dict(self.terms),
                                         other.terms.items(), self.dom))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        dom = self.dom
        return NCPoly(dom, {w: dom.neg(c) for w, c in self.terms.items()})

    def __mul__(self, other):
        # operator.add concatenates the words
        return NCPoly(self.dom, product(self.terms, other.terms, operator.add,
                                        self.dom))

    def scale(self, c):
        dom = self.dom
        if dom.is_zero(c):
            return NCPoly(dom)
        return NCPoly(dom, {w: dom.mul(c, v) for w, v in self.terms.items()})

    # -- structure ------------------------------------------------------------
    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def graded_parts(self):
        parts = {}
        for w, c in self.terms.items():
            parts.setdefault(len(w), {})[w] = c
        return {d: NCPoly(self.dom, t) for d, t in sorted(parts.items())}

    def map_coefficients(self, dom, fn):
        terms = {}
        for w, c in self.terms.items():
            v = fn(c)
            if not dom.is_zero(v):
                terms[w] = v
        return NCPoly(dom, terms)

    def over(self, dom):
        """self with each exact coefficient sent into dom."""
        return self.map_coefficients(dom, dom.from_scalar)

    def reduce_at(self, point):
        from .domains import FpDomain
        return self.over(FpDomain(point))

    # -- text ------------------------------------------------------------------
    def to_text(self, name="M"):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.dom.to_text(self.terms[w])
            gens = " ".join(f"{name}[{a + 1},{b + 1}]" for a, b in w)
            bits.append(f"({c}) * {gens}" if gens else f"({c})")
        return " + ".join(bits)

    def __repr__(self):
        return f"NCPoly({len(self.terms)} terms, deg {self.degree()})"


def sum_of_products(dom, pairs):
    """sum x * y over the NCPoly pairs (x, y), accumulated in one dict."""
    acc = {}
    for x, y in pairs:
        if x.terms and y.terms:
            product(x.terms, y.terms, operator.add, dom, acc)
    return NCPoly(dom, acc)


def right_sum(dom, n, terms):
    """The entries, row-major, of sum m e over the pairs (m, e) of terms:
    an n x n QMatrix m and an NCPoly e that multiplies each entry of m on
    the right.  Each entry is built by `sum_of_products` and yielded when
    it is complete, so only one is held at a time."""
    terms = [(m.rows, e) for m, e in terms if e]
    for a in range(n):
        for b in range(n):
            yield sum_of_products(dom, [(rows[a][b], e) for rows, e in terms])


class NCDomain:
    """NCPoly as the coefficient domain of tensor operators: only the
    members every domain has (`qch.domains`)."""

    def __init__(self, base):
        self.base = base
        self.name = f"NC({base.name})"

    def zero(self):
        return NCPoly.zero(self.base)

    def one(self):
        return NCPoly.one(self.base)

    def is_zero(self, p):
        return p.is_zero()

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b


class QMatrix:
    """A square matrix of noncommutative polynomials."""

    __slots__ = ("dom", "size", "rows")

    def __init__(self, dom, rows):
        self.dom = dom
        self.size = len(rows)
        self.rows = rows

    @staticmethod
    def zero(dom, n):
        return QMatrix(dom, [[NCPoly.zero(dom) for _ in range(n)]
                             for _ in range(n)])

    @staticmethod
    def identity(dom, n):
        m = QMatrix.zero(dom, n)
        for i in range(n):
            m.rows[i][i] = NCPoly.one(dom)
        return m

    @staticmethod
    def generators(dom, n):
        """The matrix of generators: entry (a, b) is the generator M^a_b."""
        return QMatrix(dom, [[NCPoly.generator(dom, a, b) for b in range(n)]
                             for a in range(n)])

    def __add__(self, other):
        return QMatrix(self.dom, [[x + y for x, y in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return QMatrix(self.dom, [[x - y for x, y in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    @staticmethod
    def from_entries(dom, n, entries):
        """The n x n matrix of entries, given row-major."""
        it = iter(entries)
        return QMatrix(dom, [[next(it) for _ in range(n)] for _ in range(n)])

    def __matmul__(self, other):
        n, dom = self.size, self.dom
        return QMatrix(dom, [[sum_of_products(dom, [
            (self.rows[a][c], other.rows[c][b]) for c in range(n)])
            for b in range(n)] for a in range(n)])

    def scale(self, c):
        return QMatrix(self.dom, [[x.scale(c) for x in row]
                                  for row in self.rows])

    def mul_poly_right(self, p):
        """Entrywise right multiplication by an algebra element."""
        return QMatrix(self.dom, [[x * p for x in row] for row in self.rows])

    def mul_poly_left(self, p):
        return QMatrix(self.dom, [[p * x for x in row] for row in self.rows])

    def is_zero(self):
        return all(x.is_zero() for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    def map_entries(self, fn):
        return QMatrix(self.dom, [[fn(x) for x in row] for row in self.rows])

    def over(self, dom):
        """self with each exact coefficient sent into dom."""
        return QMatrix(dom, [[x.over(dom) for x in row] for row in self.rows])

    def entries(self):
        return [x for row in self.rows for x in row]

    def __repr__(self):
        return f"QMatrix({self.size}x{self.size})"
