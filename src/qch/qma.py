"""Quantum matrix algebras over a compatible R-matrix pair.

The algebra is generated by the entries of an N x N matrix M subject to
R1 M_1b M_2b = M_1b M_2b R1, where the matrix copies are built with the
second operator F of the pair.  This module constructs the generators,
the characteristic elements, the rotation maps phi / xi / pi, the
star-products and descendants, and the two matrix identities (the
Cayley-Hamilton identity and its lower-degree parent).  No reduction
modulo the defining ideal happens here; identity residuals are handed
to the ideal module for membership testing.
"""

from __future__ import annotations

import functools

from . import tensor
from .domains import FpDomain
from .ncpoly import NCDomain, NCPoly, QMatrix, right_sum, sum_of_products
from .rmatrix import (GuardError, check_compatible, compute_g_operator,
                      tower_level, twist)
from .scalar import LAMBDA, Q, QINV, QScalar, q_int
from .sparse import axpy_into
from .tensor import TensorOperator

# lifted operators: name -> (context, attribute of that RMatrixContext)
_NC_SOURCES = {"r": ("r_ctx", "r"), "r_inv": ("r_ctx", "r_inv"),
               "f": ("f_ctx", "r"), "f_inv": ("f_ctx", "r_inv"),
               "k": ("r_ctx", "k_op"), "d_r": ("r_ctx", "d_r")}


def _cached(method):
    """Build a method's value once per instance: it is kept in the
    instance's `_cache`, keyed on the method name and positional arguments."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self, *args):
        key = (name, *args)
        if key not in self._cache:
            self._cache[key] = method(self, *args)
        return self._cache[key]

    return cached


def _alt_q(i, e):
    """(-1)^i q^e: the sign and power of a term of the identities and
    expansions."""
    c = QScalar.q_power(e)
    return -c if i % 2 else c


class AlgebraContext:
    """A certified pair (R, F) with all derived algebra machinery.

    Immutable after construction; every derived object is built once, on
    first use, and cached.
    """

    def __init__(self, r_ctx, f_ctx, label="", certify=True):
        if f_ctx.dim != r_ctx.dim:
            raise ValueError("pair dimensions differ")
        self.r_ctx = r_ctx
        self.f_ctx = f_ctx
        self.dom = r_ctx.dom
        self.dim = r_ctx.dim
        self.ncdom = NCDomain(self.dom)
        self.label = label or f"qma({r_ctx.label}; {f_ctx.label})"
        if certify:
            cert = check_compatible(r_ctx, f_ctx)
            if not cert.ok:
                raise GuardError(f"incompatible pair: {cert.failures()}")
        self._cache = {}

    # -- lifting scalar operators to polynomial coefficients -------------------
    def lift(self, op):
        base = self.dom
        return op.map_coefficients(self.ncdom,
                                   lambda c: NCPoly.constant(base, c))

    @_cached
    def _nc(self, name):
        ctx, attr = _NC_SOURCES[name]
        return self.lift(getattr(getattr(self, ctx), attr))

    # -- generators and matrix copies ------------------------------------------
    @property
    def m_matrix(self):
        return QMatrix.generators(self.dom, self.dim)

    def matrix_to_operator(self, m):
        data = {}
        for a in range(self.dim):
            for b in range(self.dim):
                p = m.rows[a][b]
                if not p.is_zero():
                    data[((b,), (a,))] = p
        return TensorOperator(self.ncdom, self.dim, 1, data)

    def matrix_from_operator(self, op):
        m = QMatrix.zero(self.dom, self.dim)
        for ((b,), (a,)), p in op.data.items():
            m.rows[a][b] = p
        return m

    @_cached
    def mbar_ops(self, n):
        """The matrix copies M_1b .. M_nb as arity-n operators."""
        ops = [self.matrix_to_operator(self.m_matrix).embed(1, n)]
        for i in range(2, n + 1):
            f = self._nc("f").embed(i - 1, n)
            fi = self._nc("f_inv").embed(i - 1, n)
            ops.append(f @ ops[-1] @ fi)
        return ops

    @_cached
    def chain_product(self, n, start=1):
        """M_{start}b ... M_nb; the empty product is the identity."""
        ops = (self.mbar_ops(n)[start - 1:]
               or [TensorOperator.identity(self.ncdom, self.dim, n)])
        prod = ops[0]
        for x in ops[1:]:
            prod = prod @ x
        return prod

    def tr_r(self, x, positions):
        return x.r_trace_many(self._nc("d_r"), positions)

    # -- characteristic elements ------------------------------------------------
    def braid_image(self, word, n):
        """rho_R of a braid word, letters (i, +-1) acting on (i, i+1)."""
        out = TensorOperator.identity(self.ncdom, self.dim, n)
        for i, e in word:
            if not 1 <= i < n:
                raise ValueError(f"strand {i} outside 1..{n - 1}")
            op = self._nc("r") if e > 0 else self._nc("r_inv")
            out = out @ op.embed(i, n)
        return out

    def char_element(self, op, n):
        """ch(alpha) = R-trace over all n factors of the chain times alpha."""
        prod = self.chain_product(n) @ op
        return self.tr_r(prod, range(1, n + 1)).scalar_value()

    def char_braid(self, word, n):
        return self.char_element(self.braid_image(word, n), n)

    @_cached
    def p_elem(self, i):
        """Power sums: p_0 = Tr_R I, p_i = ch(sigma_{i-1} ... sigma_1)."""
        if i == 0:
            val = self.r_ctx.d_r.partial_trace(1).scalar_value()
            return NCPoly.constant(self.dom, val)
        return self.char_braid([(j, 1) for j in range(i - 1, 0, -1)], i)

    @_cached
    def antisymmetrizer(self, i):
        """a^(i), level i of the antisymmetrizer tower."""
        return tower_level(self.r_ctx, i)

    @_cached
    def wedge_power(self, i):
        """M^{a^(i)} = Tr_{R(2..i)}(M_1b ... M_ib rho(a^(i)))."""
        if i == 0:
            return QMatrix.identity(self.dom, self.dim)
        # a zero a^(i) (i above the height) needs no chain
        a_i = self.lift(self.antisymmetrizer(i))
        if a_i.is_zero():
            return QMatrix.zero(self.dom, self.dim)
        prod = self.chain_product(i) @ a_i
        return self.matrix_from_operator(self.tr_r(prod, range(2, i + 1)))

    @_cached
    def a_elem(self, i):
        """a_i = ch(a^(i)); a_0 = 1."""
        if i == 0:
            return NCPoly.one(self.dom)
        op = self.matrix_to_operator(self.wedge_power(i))
        return self.tr_r(op, (1,)).scalar_value()

    # -- the 2-contraction -------------------------------------------------------
    @property
    @_cached
    def g(self):
        mu = self.r_ctx.mu_scalar
        pref = mu * LAMBDA / ((Q - mu) * (QINV + mu))
        val = self.tr_r(self.chain_product(2) @ self._nc("k"), (1, 2))
        return val.scalar_value().scale(self.dom.from_scalar(pref))

    def two_contraction_residuals(self):
        """K1 M1b M2b - mu^-2 K1 g and M1b M2b K1 - mu^-2 K1 g."""
        mu = self.r_ctx.mu_scalar
        k = self._nc("k")
        ch2 = self.chain_product(2)
        target = k.scale(self.g.scale(self.dom.from_scalar((mu * mu).inv())))
        return (k @ ch2) - target, (ch2 @ k) - target

    # -- rotation maps -----------------------------------------------------------
    @functools.cached_property
    def d_rf(self):
        """R-trace operator of the twisted matrix F^-1 R F."""
        return twist(self.r_ctx, self.f_ctx).d_r

    def d_rf_factorized(self):
        """The product form D_{F^-1} (D_{R^-1})^-1 D_F of the twisted trace."""
        tr1_psi = self.r_ctx.psi.partial_trace(1)
        return self.f_ctx.d_rinv @ tr1_psi @ self.f_ctx.d_r

    @_cached
    def map_tensor(self, kind):
        """Structure constants of a rotation map: {(c,d): {(a,b): coeff}}
        with map(E_cd) = sum coeff E_ab."""
        dom, dim = self.dom, self.dim
        r_ctx, f_ctx = self.r_ctx, self.f_ctx
        mu = r_ctx.mu_scalar
        if kind == "pi":
            # F-free form, authoritative: pi(N)_1 = Tr_R(2) R N_1 K.
            combine = lambda e1: (r_ctx.r @ e1 @ r_ctx.k_op).r_trace(
                r_ctx.d_r, 2)
        elif kind == "pi_inv":
            pref = dom.from_scalar((mu * mu).inv())
            combine = lambda e1: ((r_ctx.r_inv @ e1 @ r_ctx.k_op).r_trace(
                r_ctx.d_r, 2)).scale(pref)
        elif kind in ("phi", "xi"):
            tail = r_ctx.r if kind == "phi" else r_ctx.k_op
            combine = lambda e1: (f_ctx.r @ e1 @ f_ctx.r_inv @ tail).r_trace(
                r_ctx.d_r, 2)
        elif kind in ("phi_inv", "xi_inv"):
            tail = r_ctx.r_inv if kind == "phi_inv" else r_ctx.k_op
            pref = dom.from_scalar((mu * mu).inv())
            combine = lambda e1: ((f_ctx.r_inv @ e1 @ tail @ f_ctx.r).r_trace(
                self.d_rf, 2)).scale(pref)
        else:
            raise ValueError(f"unknown map {kind!r}")
        out = {}
        for c in range(dim):
            for d in range(dim):
                img = combine(tensor.matrix_unit(dom, dim, c, d).embed(1, 2))
                cell = {(a, b): v for ((b,), (a,)), v in img.data.items()}
                if cell:
                    out[(c, d)] = cell
        return out

    def apply_map(self, kind, nmat):
        dom, dim = self.dom, self.dim
        out = [[{} for _ in range(dim)] for _ in range(dim)]
        for (c, d), cell in self.map_tensor(kind).items():
            x = nmat.rows[c][d].terms
            if x:
                for (a, b), t in cell.items():
                    axpy_into(out[a][b], x.items(), t, dom)
        return QMatrix(dom, [[NCPoly(dom, t) for t in row] for row in out])

    def phi(self, nmat):
        return self.apply_map("phi", nmat)

    def xi(self, nmat):
        return self.apply_map("xi", nmat)

    def phi_inv(self, nmat):
        return self.apply_map("phi_inv", nmat)

    def xi_inv(self, nmat):
        return self.apply_map("xi_inv", nmat)

    def pi(self, nmat):
        return self.apply_map("pi", nmat)

    def pi_composed_tensor(self):
        """mu phi^-1 after xi, for cross-checking the F-free pi."""
        dom = self.dom
        mu = dom.from_scalar(self.r_ctx.mu_scalar)
        mu_phi_inv = {ef: {ab: dom.mul(mu, s) for ab, s in cell.items()}
                      for ef, cell in self.map_tensor("phi_inv").items()}
        out = {}
        for (c, d), cell in self.map_tensor("xi").items():
            acc = {}
            for ef, t in cell.items():
                axpy_into(acc, mu_phi_inv.get(ef, {}).items(), t, dom)
            if acc:
                out[(c, d)] = acc
        return out

    # -- star products and descendants --------------------------------------------
    def star_multiply(self, amat, bmat):
        """A * B = A phi(B); valid when A lies in the star-closed span."""
        return amat @ self.phi(bmat)

    @_cached
    def star_power(self, n):
        """M^{nb}: M^{0b} = I, M^{n+1b} = M phi(M^{nb})."""
        if n == 0:
            return QMatrix.identity(self.dom, self.dim)
        return self.m_matrix @ self.phi(self.star_power(n - 1))

    def m_power(self, word, n):
        """M^{(alpha)}: R-trace over factors 2..n of M_1b..M_nb rho(alpha)."""
        op = self.chain_product(n) @ self.braid_image(word, n)
        return self.matrix_from_operator(self.tr_r(op, range(2, n + 1)))

    def t_map(self, nmat):
        return self.m_matrix @ self.xi(nmat)

    @_cached
    def g_conjugators(self):
        """G and G^-1 as constant matrices."""
        dom = self.dom
        return tuple(QMatrix(dom, [[NCPoly.constant(dom, c) for c in row]
                                   for row in tensor.matrix_from_operator(op)])
                     for op in compute_g_operator(self.r_ctx, self.f_ctx))

    def pi_star(self, nmat):
        """pi(M) * N = mu phi^-1(xi(M) G^-1 N G); the star action with
        pi(M) on the left."""
        g_mat, g_inv_mat = self.g_conjugators()
        inner = self.xi(self.m_matrix) @ (g_inv_mat @ nmat @ g_mat)
        return self.phi_inv(inner).scale(
            self.dom.from_scalar(self.r_ctx.mu_scalar))

    @_cached
    def pi_star_power(self, n):
        """pi(M)^{nb} for n >= 1."""
        if n < 1:
            raise ValueError("pi star powers start at 1")
        if n == 1:
            return self.pi(self.m_matrix)
        return self.pi_star(self.pi_star_power(n - 1))

    def descendant_a(self, m, i):
        """A^{(m,i)} = i_q M^{mb} * M^{a^(i)}; m = -1 is the boundary case."""
        if i == 0:
            return QMatrix.zero(self.dom, self.dim)
        if m < -1:
            raise ValueError("descendant index m >= -1")
        if m == -1:
            return self.boundary_a(i)
        out = self.wedge_power(i)
        for _ in range(m):
            out = self.m_matrix @ self.phi(out)
        return out.scale(self.dom.from_scalar(q_int(i)))

    def boundary_a(self, i):
        """A^{(-1,i)} = i_q phi^-1(Tr_{R(2..i)} M_2b ... M_ib rho(a^(i)))."""
        if i == 0:
            return QMatrix.zero(self.dom, self.dim)
        a_i = self.lift(self.antisymmetrizer(i))
        if a_i.is_zero():  # i above the height: no chain needed
            return QMatrix.zero(self.dom, self.dim)
        prod = self.chain_product(i, 2) @ a_i
        mat = self.matrix_from_operator(self.tr_r(prod, range(2, i + 1)))
        return self.phi_inv(mat).scale(self.dom.from_scalar(q_int(i)))

    def descendant_b(self, m, i):
        """B^{(m,i)}, m >= 0: the t_map companion series of descendant_a."""
        if i == 0:
            return QMatrix.zero(self.dom, self.dim)
        if m < 0:
            raise ValueError("descendant index m >= 0")
        if m == 0:
            out = self.phi_inv(self.xi(self.wedge_power(i)))
        else:
            out = self.t_map(self.wedge_power(i))
            for _ in range(m - 1):
                out = self.m_matrix @ self.phi(out)
        return out.scale(self.dom.from_scalar(q_int(i)))

    # -- matrix identities ----------------------------------------------------------
    def _sum(self, terms):
        """The QMatrix sum m e over the pairs (m, e) of terms (`right_sum`)."""
        return QMatrix.from_entries(self.dom, self.dim,
                                    right_sum(self.dom, self.dim, terms))

    def _scaled(self, p, c):
        """p times the exact scalar c, sent into the domain."""
        return p.scale(self.dom.from_scalar(c))

    def epsilon_elements(self, k):
        """eps_0..eps_2k: eps_i = sum_j a_{i-2j} g^j, eps_{k+i} = eps_{k-i} g^i."""
        g_pows = [NCPoly.one(self.dom)]
        for _ in range(k):
            g_pows.append(g_pows[-1] * self.g)
        eps = [sum_of_products(self.dom, [(self.a_elem(i - 2 * j), g_pows[j])
                                          for j in range(i // 2 + 1)])
               for i in range(k + 1)]
        for i in range(1, k + 1):
            eps.append(eps[k - i] * g_pows[i])
        return eps

    def ch_entries(self, k):
        """Entries of the LHS of the degree-2k Cayley-Hamilton identity,
        row-major, each yielded when it is complete."""
        eps = self.epsilon_elements(k)
        return right_sum(self.dom, self.dim, [
            (self.star_power(2 * k - i), self._scaled(eps[i], _alt_q(i, i)))
            for i in range(2 * k + 1)])

    def ch_identity(self, k):
        """LHS of the degree-2k Cayley-Hamilton identity."""
        return QMatrix.from_entries(self.dom, self.dim, self.ch_entries(k))

    def parent_entries(self, k):
        """Entries of the LHS of the degree-k parent identity, mixing M and
        pi(M) powers, row-major, each yielded when it is complete."""
        eps = self.epsilon_elements(k)
        terms = [(self.star_power(k - i), self._scaled(eps[i], _alt_q(i, i)))
                 for i in range(k + 1)]
        terms += [(self.pi_star_power(k - i),
                   self._scaled(eps[i], _alt_q(i, 2 * k - i)))
                  for i in range(k)]
        return right_sum(self.dom, self.dim, terms)

    def parent_identity(self, k):
        """LHS of the degree-k parent identity mixing M and pi(M) powers."""
        return QMatrix.from_entries(self.dom, self.dim, self.parent_entries(k))

    # -- defining relations ------------------------------------------------------------
    def defining_relations(self):
        """Entries of R1 M1b M2b - M1b M2b R1, as (id, polynomial) pairs."""
        r = self._nc("r")
        ch2 = self.chain_product(2)
        rel_op = (r @ ch2) - (ch2 @ r)
        rels = []
        for key in sorted(rel_op.data):
            tin, tout = key
            rels.append((f"rel[{tout[0] + 1}{tout[1] + 1}|"
                         f"{tin[0] + 1}{tin[1] + 1}]", rel_op.data[key]))
        return rels

    def recursion_residuals(self, m, i):
        """LHS - RHS of the two descendant recursions at (m, i)."""
        mu = self.r_ctx.mu_scalar
        den = (QScalar.from_int(1) + mu * QScalar.q_power(2 * i - 1))
        if den.is_zero():
            raise GuardError(f"recursion denominator vanishes at i={i}")
        one, g, a_i = NCPoly.one(self.dom), self.g, self.a_elem(i)
        m_pow = self.star_power(m)
        a_mi = self.descendant_a(m, i)
        b_mi = self.descendant_b(m, i)
        c1 = mu * QScalar.q_power(2 * i - 1) * LAMBDA / den
        res1 = self._sum([(self.descendant_a(m - 1, i + 1), one),
                          (m_pow, -self._scaled(a_i, QScalar.q_power(i))),
                          (a_mi, one),
                          (b_mi, self._scaled(one, c1))])
        # minus (M^{mb} a_i mu^-1 q^-i + A^{(m,i)} lambda/den - B^{(m,i)}) g
        res2 = self._sum([
            (self.descendant_b(m + 1, i + 1), one),
            (m_pow, -self._scaled(a_i * g, mu.inv() * QScalar.q_power(-i))),
            (a_mi, -self._scaled(g, LAMBDA / den)),
            (b_mi, g)])
        return res1, res2

    def _expansion(self, m, i, lead, inner_c):
        """The terms (matrix, right factor) of minus the alternating sum
        shared by both expansions,
        (-1)^(i-1) sum_j (-q)^j (lead(j) + inner_c S_j) a_j, where
        S_j = sum_{r=1}^{i-j-1} M^{(m+i-j-2r)b} (q^2 g)^r and lead(j) is
        one such term."""
        q2g = self._scaled(self.g, QScalar.q_power(2))
        terms = []
        for j in range(i):
            # (-1)^(i-1) (-q)^j a_j, negated
            a_j = self._scaled(self.a_elem(j), _alt_q(i + j, j))
            lead_m, lead_e = lead(j)
            terms.append((lead_m, lead_e * a_j))
            gp = NCPoly.one(self.dom)
            for r in range(1, i - j):
                gp = gp * q2g
                terms.append((self.star_power(m + i - j - 2 * r),
                              self._scaled(gp * a_j, inner_c)))
        return terms

    def expansion_residual_a(self, m, i):
        """descendant_a(m, i) minus its alternating-sum expansion; m >= i-2."""
        if m < i - 2:
            raise ValueError("expansion requires m >= i-2")
        mu = self.r_ctx.mu_scalar
        den = QScalar.from_int(1) + mu * QScalar.q_power(2 * i - 3)
        inner_c = (QScalar.from_int(1) - QScalar.q_power(-2)) / den
        one = NCPoly.one(self.dom)
        terms = self._expansion(
            m, i, lambda j: (self.star_power(m + i - j), one), inner_c)
        return self._sum([(self.descendant_a(m, i), one)] + terms)

    def expansion_residual_b(self, m, i):
        """descendant_b(m, i) minus its alternating-sum expansion; m >= i."""
        if m < i:
            raise ValueError("expansion requires m >= i")
        mu = self.r_ctx.mu_scalar
        den = QScalar.from_int(1) + mu * QScalar.q_power(2 * i - 3)
        inner_c = QScalar.q_power(-1) * (
            QScalar.q_power(-2) - QScalar.from_int(1)) / den
        g_pows = [NCPoly.one(self.dom)]
        for _ in range(i):
            g_pows.append(g_pows[-1] * self.g)

        def lead(j):
            lead_c = mu.inv() * QScalar.q_power(-2 * j)
            return (self.star_power(m - i + j),
                    self._scaled(g_pows[i - j], lead_c))

        terms = self._expansion(m, i, lead, inner_c)
        return self._sum([(self.descendant_b(m, i), NCPoly.one(self.dom))]
                         + terms)

    def recursion_entries(self):
        """Entries of every descendant recursion and expansion residual
        that qma.recursions checks, yielded one residual matrix at a time:
        each is an ideal member.  The largest degree, 5, is that of the
        second recursion at m = 2, i = 1."""
        for m in (0, 1, 2):
            for i in (0, 1):
                for res in self.recursion_residuals(m, i):
                    yield from res.entries()
        for m, i in ((-1, 1), (0, 2)):
            yield from self.expansion_residual_a(m, i).entries()
        for m, i in ((1, 1), (2, 2)):
            yield from self.expansion_residual_b(m, i).entries()

    def cutting_dependency(self, m, k):
        """B^{(m+1,k+1)} + q A^{(m-1,k+1)} g, which vanishes at Sp(2k)."""
        return self._sum([
            (self.descendant_b(m + 1, k + 1), NCPoly.one(self.dom)),
            (self.descendant_a(m - 1, k + 1), self._scaled(self.g, Q))])

    def g_permutation_residual(self, nmat):
        """N g - g (G^-1 N G); entries are ideal members."""
        g_mat, g_inv_mat = self.g_conjugators()
        conj = g_inv_mat @ nmat @ g_mat
        return nmat.mul_poly_right(self.g) - conj.mul_poly_left(self.g)

    def over(self, dom, label=None):
        """The same algebra with every scalar mapped into dom.  Both
        R-matrix contexts, the twisted trace operator and G, G^-1 are
        mapped from their Q(q) builds, so none is ever built over dom."""
        r_ctx = self.r_ctx.over(dom)
        f_ctx = r_ctx if self.f_ctx is self.r_ctx else self.f_ctx.over(dom)
        ctx = AlgebraContext(r_ctx, f_ctx,
                             label=label or f"{self.label} over {dom.name}",
                             certify=False)
        ctx.d_rf = self.d_rf.over(dom)
        ctx._cache[("g_conjugators",)] = tuple(
            m.over(dom) for m in self.g_conjugators())
        return ctx

    def at_point(self, pt):
        """The same algebra with every scalar reduced at a prime point."""
        return self.over(FpDomain(pt), label=f"{self.label} @ {pt!r}")

    def __repr__(self):
        return f"AlgebraContext({self.label}, dim={self.dim})"
