"""Sparse exact linear operators on tensor powers of a base space V.

An operator on V^(⊗n) is a sparse map {(input multi-index, output
multi-index): coefficient}; multi-indices are tuples of 0-based factor
indices.

The product A @ B is the usual operator product (apply B, then A); for
noncommutative coefficient domains the entry products keep A's
coefficients on the left, matching matrix-product component order.
"""

from __future__ import annotations

import itertools

from . import linalg
from .domains import FpDomain
from .sparse import add_into, axpy_into


class TensorOperator:
    __slots__ = ("dom", "dim", "arity", "data")

    def __init__(self, dom, dim, arity, data=None):
        self.dom = dom
        self.dim = dim
        self.arity = arity
        self.data = data if data is not None else {}

    # -- constructors --------------------------------------------------------
    @staticmethod
    def identity(dom, dim, arity):
        one = dom.one()
        data = {(t, t): one
                for t in itertools.product(range(dim), repeat=arity)}
        return TensorOperator(dom, dim, arity, data)

    @staticmethod
    def flip(dom, dim):
        """The permutation operator P on V tensor V."""
        one = dom.one()
        data = {((i, j), (j, i)): one
                for i in range(dim) for j in range(dim)}
        return TensorOperator(dom, dim, 2, data)

    @staticmethod
    def zero(dom, dim, arity):
        return TensorOperator(dom, dim, arity, {})

    def copy(self):
        return TensorOperator(self.dom, self.dim, self.arity, dict(self.data))

    # -- basic structure -----------------------------------------------------
    def add_to_entry(self, tin, tout, coeff):
        add_into(self.data, (((tin, tout), coeff),), self.dom)

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return (self.dim == other.dim and self.arity == other.arity
                and self.data == other.data)

    __hash__ = None

    # -- linear operations ---------------------------------------------------
    def __add__(self, other):
        assert self.arity == other.arity and self.dim == other.dim
        data = add_into(dict(self.data), other.data.items(), self.dom)
        return TensorOperator(self.dom, self.dim, self.arity, data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        dom = self.dom
        return TensorOperator(dom, self.dim, self.arity,
                              {k: dom.neg(v) for k, v in self.data.items()})

    def scale(self, c):
        dom = self.dom
        if dom.is_zero(c):
            return TensorOperator(dom, self.dim, self.arity, {})
        return TensorOperator(dom, self.dim, self.arity,
                              {k: dom.mul(c, v) for k, v in self.data.items()})

    # -- composition ---------------------------------------------------------
    def __matmul__(self, other):
        """Operator product self . other (apply other first)."""
        assert self.arity == other.arity and self.dim == other.dim
        dom = self.dom
        cols = self.columns()
        data = {}
        for (bin_, bmid), bc in other.data.items():
            hits = cols.get(bmid)
            if hits:
                axpy_into(data, (((bin_, aout), ac)
                                 for aout, ac in hits.items()),
                          bc, dom)
        return TensorOperator(dom, self.dim, self.arity, data)

    def apply_at(self, pos, vectors):
        """Apply self on factors pos .. pos+arity-1 (1-based) of each
        sparse vector {multi-index: coeff} in an iterable; yields the
        images in order, without embedding self into a larger arity."""
        lo, hi = pos - 1, pos - 1 + self.arity
        dom = self.dom
        cols = self.columns()
        for vec in vectors:
            out = {}
            for t, c in vec.items():
                hits = cols.get(t[lo:hi])
                if hits:
                    head, tail = t[:lo], t[hi:]
                    axpy_into(out, ((head + tout + tail, ac)
                                    for tout, ac in hits.items()), c, dom)
            yield out

    # -- embeddings and traces -----------------------------------------------
    def embed(self, pos, arity):
        """Embed at 1-based factor position pos into a larger tensor power."""
        k = self.arity
        assert 1 <= pos and pos + k - 1 <= arity
        rest = arity - k
        if rest == 0:
            return self.copy()
        dom, dim = self.dom, self.dim
        left = pos - 1
        right = arity - left - k
        data = {}
        for (tin, tout), c in self.data.items():
            for ext in itertools.product(range(dim), repeat=rest):
                lext, rext = ext[:left], ext[left:]
                key = (lext + tin + rext, lext + tout + rext)
                data[key] = c
        return TensorOperator(dom, dim, arity, data)

    def partial_trace(self, pos):
        """Plain trace over 1-based factor pos; arity drops by one."""
        i = pos - 1
        traced = (((tin[:i] + tin[i + 1:], tout[:i] + tout[i + 1:]), c)
                  for (tin, tout), c in self.data.items()
                  if tin[i] == tout[i])
        data = add_into({}, traced, self.dom)
        return TensorOperator(self.dom, self.dim, self.arity - 1, data)

    def r_trace(self, d_op, pos):
        """Trace over factor pos twisted by the arity-1 operator D."""
        return (d_op.embed(pos, self.arity) @ self).partial_trace(pos)

    def r_trace_many(self, d_op, positions):
        out = self
        for pos in sorted(positions, reverse=True):
            out = out.r_trace(d_op, pos)
        return out

    def scalar_value(self):
        """The coefficient of an arity-0 operator."""
        assert self.arity == 0
        return self.data.get(((), ()), self.dom.zero())

    # -- conversions ----------------------------------------------------------
    def map_coefficients(self, dom, fn):
        data = {}
        for k, v in self.data.items():
            w = fn(v)
            if not dom.is_zero(w):
                data[k] = w
        return TensorOperator(dom, self.dim, self.arity, data)

    def over(self, dom):
        """self with each exact coefficient sent into dom."""
        return self.map_coefficients(dom, dom.from_scalar)

    def reduce_at(self, point):
        return self.over(FpDomain(point))

    # -- linear algebra views --------------------------------------------------
    def rows(self):
        """Matrix rows {input multi-index: coeff} keyed by output index."""
        rows = {}
        for (tin, tout), c in self.data.items():
            rows.setdefault(tout, {})[tin] = c
        return rows

    def columns(self):
        """Matrix columns {output multi-index: coeff} keyed by input index."""
        cols = {}
        for (tin, tout), c in self.data.items():
            cols.setdefault(tin, {})[tout] = c
        return cols

    def rank_in_domain(self):
        return linalg.rank_of_rows(list(self.rows().values()), self.dom)

    def __repr__(self):
        return (f"TensorOperator(dim={self.dim}, arity={self.arity}, "
                f"nnz={len(self.data)}, dom={self.dom.name})")


def matrix_unit(dom, dim, i, j):
    """E_ij as an arity-1 operator (maps basis vector j to i); 0-based."""
    return TensorOperator(dom, dim, 1, {((j,), (i,)): dom.one()})


def matrix_from_operator(x):
    """Dense entries[out][in] of an arity-1 operator."""
    dom, dim = x.dom, x.dim
    m = [[dom.zero()] * dim for _ in range(dim)]
    for ((j,), (i,)), c in x.data.items():
        m[i][j] = c
    return m


def _invert_reshaped(x, cell, entry):
    """Exact inverse of x read as a dim**arity square matrix: x's entry
    (tin, tout) sits at cell(tin, tout) = (row, column), and the inverse's
    cell (row, column) is the result's entry entry(row, column)."""
    n = x.dim ** x.arity
    rows = [{} for _ in range(n)]
    for (tin, tout), c in x.data.items():
        r, col = cell(tin, tout)
        rows[r][col] = c
    inv = linalg.invert_matrix(rows, n, x.dom)
    return TensorOperator(x.dom, x.dim, x.arity,
                          {entry(r, col): c for r, row in enumerate(inv)
                           for col, c in row.items()})


def invert_arity1(x):
    return _invert_reshaped(x, lambda tin, tout: (tout[0], tin[0]),
                            lambda i, j: ((j,), (i,)))


def invert_arity2(x):
    """Exact inverse of an arity-2 operator via its dim^2 matrix."""
    dim = x.dim
    return _invert_reshaped(
        x, lambda tin, tout: (tout[0] * dim + tout[1], tin[0] * dim + tin[1]),
        lambda r, c: (divmod(c, dim), divmod(r, dim)))


# ---------------------------------------------------------------------------
# Skew inverse.

def solve_skew_inverse(r_op):
    """Solve Tr_(2) R_12 Psi_23 = P_13 for Psi.

    In the reshuffled matrix form M(X)[(out1,in1)][(in2,out2)] = X^(out1
    out2)_(in1 in2) the equation reads M(R) M(Psi) = Id, so Psi is found by
    one exact matrix inversion.  Raises SingularMatrixError with a kernel
    witness when R is not skew invertible.
    """
    dim, m = r_op.dim, r_op.dim - 1
    # M(Psi)[(r1,r2)][(c1,c2)] = Psi^(r1 c2)_(r2 c1).  The columns of M(R)
    # count down, so the echelon, which pivots on a row's largest column,
    # meets the rows of the Sp(2k) R-matrices with little fill-in.
    return _invert_reshaped(
        r_op,
        lambda tin, tout: (tout[0] * dim + tin[0],
                           (m - tin[1]) * dim + m - tout[1]),
        lambda r, c: ((m - r % dim, c // dim), (m - r // dim, c % dim)))


def verify_skew_inverse(r_op, psi):
    """Residuals of Tr_(2) R_12 Psi_23 - P_13 and Tr_(2) Psi_12 R_23 - P_13.

    After the trace over the middle factor both sides live on factors
    (1,3), where P_13 restricts to the plain flip.
    """
    dom, dim = r_op.dom, r_op.dim
    flip = TensorOperator.flip(dom, dim)
    lhs1 = (r_op.embed(1, 3) @ psi.embed(2, 3)).partial_trace(2)
    lhs2 = (psi.embed(1, 3) @ r_op.embed(2, 3)).partial_trace(2)
    return lhs1 - flip, lhs2 - flip


# ---------------------------------------------------------------------------
# Rank.  perfbench/tracer.py wraps both names.

def rank_certificate(x):
    """The rank of x over its own coefficient domain: exact over Q(q)."""
    return x.rank_in_domain()


def exact_rank(x):
    return rank_certificate(x)
