"""Standard symplectic R-matrices and their structure theory.

Builds the standard Sp(2k) braid-form R-matrix on (C^2k)^(⊗2), certifies
the braid relation, the cubic characteristic identity and the tangle
relations of the rank-1 contractor K, and runs the one tower recursion,
`_apply_tower`, on vectors: on a basis for the levels of the
antisymmetrizer and symmetrizer towers, on image bases for the height
(the level at which the antisymmetrizer tower degenerates).
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import tensor
from .domains import QQ, FpDomain
from .ideal import (FAILURE_TARGET, MIN_PRIME_COUNT, IdealError,
                    modular_verdict, point_bound)
from .linalg import Echelon
from .scalar import LAMBDA, ONE, Q, QScalar, q_int
from .tensor import TensorOperator


class GuardError(ArithmeticError):
    """A parameter guard (vanishing q-integer or tower denominator) failed."""


class Certificate:
    """Accumulated pass/fail entries for a named verification run."""

    def __init__(self, name):
        self.name = name
        self.entries = []

    def record(self, label, ok, detail=""):
        self.entries.append((label, bool(ok), detail))

    def record_zero(self, label, op):
        self.record(label, op.is_zero(),
                    "" if op.is_zero() else f"{len(op.data)} nonzero entries")

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.entries)

    def failures(self):
        return [(label, detail) for label, ok, detail in self.entries
                if not ok]

    def __repr__(self):
        state = "ok" if self.ok else f"FAIL {self.failures()}"
        return f"Certificate({self.name}: {state})"


class RMatrixContext:
    """An R-matrix with its derived structure operators.

    Holds the braid-form operator R, the designated eigenvalue mu of the
    cubic (q I - R)(q^-1 I + R)(mu I - R) = 0, and lazily computed
    derived data: R^-1, the contractor K, the skew inverse Psi with its
    trace operators D_R and D_{R^-1}.  mu is stored explicitly because at
    k=1 the minimal polynomial degenerates to a quadratic and -q^-3 must
    still be designated.
    """

    def __init__(self, r_op, mu_scalar, label=""):
        self.r = r_op
        self.dom = r_op.dom
        self.dim = r_op.dim
        self.mu_scalar = mu_scalar
        self.label = label

    def coeff(self, s):
        return self.dom.from_scalar(s)

    @cached_property
    def r_inv(self):
        return tensor.invert_arity2(self.r)

    @cached_property
    def k_op(self):
        return contractor(self)

    @cached_property
    def psi(self):
        return tensor.solve_skew_inverse(self.r)

    @cached_property
    def d_r(self):
        return self.psi.partial_trace(2)

    @cached_property
    def d_rinv(self):
        return tensor.invert_arity1(self.psi.partial_trace(1))

    def identity(self, arity=2):
        return TensorOperator.identity(self.dom, self.dim, arity)

    def scaled_identity(self, s, arity=2):
        return TensorOperator.identity(self.dom, self.dim,
                                       arity).scale(self.coeff(s))

    def tr_r(self, x, *positions):
        """R-trace over the given 1-based factors of x."""
        return x.r_trace_many(self.d_r, positions)

    def over(self, dom, label=None):
        """The same context with every operator mapped into dom.

        Operators already built are mapped, the rest are built over dom
        when used.  A domain that cannot pivot first gets the ones that
        need elimination (R^-1, Psi, D_R, D_{R^-1}) built here.
        """
        if not dom.can_pivot:
            # reading them builds and caches them over Q(q)
            self.r_inv, self.d_r, self.d_rinv
        ctx = RMatrixContext(self.r.over(dom), self.mu_scalar,
                             label=label or f"{self.label} over {dom.name}")
        built = vars(self)
        for name, attr in vars(RMatrixContext).items():
            if isinstance(attr, cached_property) and name in built:
                setattr(ctx, name, built[name].over(dom))
        return ctx

    def at_point(self, pt):
        """The same context with all operators reduced at a prime point."""
        return self.over(FpDomain(pt), label=f"{self.label} @ {pt!r}")

    def __repr__(self):
        return f"RMatrixContext({self.label or 'unnamed'}, dim={self.dim})"


def contractor(ctx):
    """K := mu^-1 (q-q^-1)^-1 (qI - R)(q^-1 I + R)."""
    f1 = ctx.scaled_identity(Q) - ctx.r
    f2 = ctx.scaled_identity(QScalar.q_power(-1)) + ctx.r
    pref = ctx.mu_scalar.inv() * LAMBDA.inv()
    return (f1 @ f2).scale(ctx.coeff(pref))


# ---------------------------------------------------------------------------
# Standard Sp(2k) family.

def _sp_index_data(k):
    """1-based tables i', eps_i, rho_i for the Sp(2k) conventions."""
    dim = 2 * k
    iprime = {i: dim + 1 - i for i in range(1, dim + 1)}
    eps = {i: (1 if i <= k else -1) for i in range(1, dim + 1)}
    rho = {}
    for i in range(1, k + 1):
        rho[i] = k + 1 - i
        rho[dim + 1 - i] = -(k + 1 - i)
    return dim, iprime, eps, rho


def build_standard_sp(k):
    """The standard Sp(2k)-type R-matrix context (braid form)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dim, iprime, eps, rho = _sp_index_data(k)
    lam = LAMBDA
    r_op = TensorOperator(QQ, dim, 2)
    put = r_op.add_to_entry
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            e = (1 if i == j else 0) - (1 if j == iprime[i] else 0)
            # E_ij (x) E_ji sends v_j (x) v_i to v_i (x) v_j
            put((j - 1, i - 1), (i - 1, j - 1), QScalar.q_power(e))
    for i in range(1, dim + 1):
        for j in range(1, i):
            put((j - 1, i - 1), (j - 1, i - 1), lam)
            c = lam * QScalar.q_power(rho[i] - rho[j]) \
                * QScalar.from_int(eps[i] * eps[j])
            # E_{i'j} (x) E_{ij'} sends v_j (x) v_{j'} to v_{i'} (x) v_i
            put((j - 1, iprime[j] - 1), (iprime[i] - 1, i - 1), -c)

    mu = -QScalar.q_power(-1 - 2 * k)
    return RMatrixContext(r_op, mu, label=f"standard Sp({dim})")


def standard_sp_contractor(k):
    """Closed form of K for the standard Sp(2k) R-matrix."""
    dim, iprime, eps, rho = _sp_index_data(k)
    data = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            c = QScalar.q_power(-(rho[i] + rho[j])) \
                * QScalar.from_int(eps[i] * eps[iprime[j]])
            # E_ij (x) E_{i'j'} sends v_j (x) v_{j'} to v_i (x) v_{i'}
            data[((j - 1, iprime[j] - 1), (i - 1, iprime[i] - 1))] = c
    return TensorOperator(QQ, dim, 2, data)


def standard_sp_dtrace(k):
    """Closed form of D_R for the standard Sp(2k) R-matrix."""
    dim, _, _, rho = _sp_index_data(k)
    data = {((i - 1,), (i - 1,)): QScalar.q_power(-(2 * k + 2 * rho[i] + 1))
            for i in range(1, dim + 1)}
    return TensorOperator(QQ, dim, 1, data)


# ---------------------------------------------------------------------------
# Certification.

def check_ybe(r_op, name="ybe"):
    cert = Certificate(name)
    r1 = r_op.embed(1, 3)
    r2 = r_op.embed(2, 3)
    r12 = r1 @ r2
    cert.record_zero("braid relation R1 R2 R1 = R2 R1 R2",
                     (r12 @ r1) - (r2 @ r12))
    return cert


def check_cubic(ctx, name="cubic"):
    cert = Certificate(name)
    f1 = ctx.scaled_identity(Q) - ctx.r
    f2 = ctx.scaled_identity(QScalar.q_power(-1)) + ctx.r
    f3 = ctx.scaled_identity(ctx.mu_scalar) - ctx.r
    cert.record_zero("(qI-R)(q^-1 I+R)(mu I-R) = 0", f1 @ f2 @ f3)
    return cert


def check_bmw(ctx, name="bmw"):
    """Cubic plus the tangle relations of K, rank(K) = 1, trace values."""
    cert = check_cubic(ctx, name)
    k1 = ctx.k_op.embed(1, 3)
    k2 = ctx.k_op.embed(2, 3)
    r1, r1i = ctx.r.embed(1, 3), ctx.r_inv.embed(1, 3)
    r2, r2i = ctx.r.embed(2, 3), ctx.r_inv.embed(2, 3)
    k21 = k2 @ k1
    cert.record_zero("K2 K1 = K2 R1 R2", k21 - (k2 @ r1 @ r2))
    cert.record_zero("K2 K1 = K2 R1^-1 R2^-1", k21 - (k2 @ r1i @ r2i))
    cert.record_zero("K1 K2 K1 = K1", (k1 @ k2 @ k1) - k1)
    rank = tensor.exact_rank(ctx.k_op)
    cert.record("rank(K) = 1", rank == 1, f"rank={rank}")
    mu = ctx.mu_scalar
    cert.record_zero("Tr_R(2) K1 = mu I",
                     ctx.tr_r(ctx.k_op, 2) - ctx.scaled_identity(mu, 1))
    weight = (Q - mu) * (QScalar.q_power(-1) + mu) / LAMBDA
    tr_id = ctx.tr_r(ctx.identity(1), 1).scalar_value()
    cert.record("Tr_R I = (q-mu)(q^-1+mu)/(q-q^-1)",
                tr_id == ctx.coeff(weight),
                f"got {ctx.dom.to_text(tr_id)}")
    cert.record_zero("Tr_R(2) R1 = I",
                     ctx.tr_r(ctx.r, 2) - ctx.identity(1))
    return cert


def check_compatible(r_ctx, f_ctx, name="compatible"):
    """The twist relations R1 F2 F1 = F2 F1 R2 and R2 F1 F2 = F1 F2 R1."""
    cert = Certificate(name)
    r1, r2 = r_ctx.r.embed(1, 3), r_ctx.r.embed(2, 3)
    f1, f2 = f_ctx.r.embed(1, 3), f_ctx.r.embed(2, 3)
    cert.record_zero("R1 F2 F1 = F2 F1 R2", (r1 @ f2 @ f1) - (f2 @ f1 @ r2))
    cert.record_zero("R2 F1 F2 = F1 F2 R1", (r2 @ f1 @ f2) - (f1 @ f2 @ r1))
    return cert


def twist(r_ctx, f_ctx):
    """The twisted R-matrix F^-1 R F of a compatible pair."""
    r_f = f_ctx.r_inv @ r_ctx.r @ f_ctx.r
    return RMatrixContext(r_f, r_ctx.mu_scalar,
                          label=f"twist({r_ctx.label}; {f_ctx.label})")


def flip_context(dom, dim):
    """The permutation operator P as a context (mu designated as -q^-1
    is irrelevant; P is not BMW certified)."""
    return RMatrixContext(TensorOperator.flip(dom, dim),
                          -QScalar.q_power(-1), label="flip")


def compute_g_operator(r_ctx, f_ctx):
    """G1 = Tr_(23) K2 F1^-1 F2^-1 and G1^-1 = Tr_(23) F2 F1 K2."""
    k2 = r_ctx.k_op.embed(2, 3)
    f1i, f2i = f_ctx.r_inv.embed(1, 3), f_ctx.r_inv.embed(2, 3)
    f1, f2 = f_ctx.r.embed(1, 3), f_ctx.r.embed(2, 3)
    g = (k2 @ f1i @ f2i).partial_trace(3).partial_trace(2)
    g_inv = (f2 @ f1 @ k2).partial_trace(3).partial_trace(2)
    prod = g @ g_inv
    if not (prod - TensorOperator.identity(r_ctx.dom, r_ctx.dim, 1)).is_zero():
        raise GuardError("G G^-1 is not the identity; inconsistent pair")
    return g, g_inv


# ---------------------------------------------------------------------------
# Projector towers.

def _sigma(ctx, i, sign=-1):
    """sigma_i^+-(x) = 1 + (x-1)/(q-q^-1) R + mu(x-1)/(mu -+ q^-+1 x) K at
    x = q^(2 sign i), on the two factors it acts on: the sigma of the tower
    step from level i, by default the antisymmetrizer's."""
    x = QScalar.q_power(2 * sign * i)
    den = ctx.mu_scalar - QScalar.from_int(sign) * QScalar.q_power(-sign) * x
    if den.is_zero():
        raise GuardError(f"tower denominator mu - q^{-sign} x vanishes "
                         f"at level {i}")
    c_r = (x - ONE) / LAMBDA
    c_k = ctx.mu_scalar * (x - ONE) / den
    return (ctx.identity() + ctx.r.scale(ctx.coeff(c_r))
            + ctx.k_op.scale(ctx.coeff(c_k)))


def _apply_tower(sigmas, i, vectors):
    """a^(i) on factors 1..i of each vector, up to a unit, through the
    recursion a^(j+1) = c_j (a^(j) (x) 1) sigma_j (a^(j) (x) 1), with
    sigma_j = sigmas[j - 1]: chained `TensorOperator.apply_at` generators
    with one vector in flight.  `tower_level` and `_height_scan` run it."""
    if i == 1:
        return vectors
    inner = _apply_tower(sigmas, i - 1, vectors)
    return _apply_tower(sigmas, i - 1, sigmas[i - 2].apply_at(i - 1, inner))


def tower_level(ctx, i, sign=-1):
    """Level i of the antisymmetrizer (sign -1) or symmetrizer (+1) tower:
    `_apply_tower` on the standard basis of V^(⊗i), each column times the
    unit it drops, prod_{j<i} c_j^(2^(i-1-j)), c_j = q^(-sign j)/(j+1)_q,
    built factor by factor (a `SpanDomain` keeps each c_j's atom)."""
    dom = ctx.dom
    unit, sigmas = dom.one(), []
    for j in range(1, i):
        sigmas.append(_sigma(ctx, j, sign))
        c_j = QScalar.q_power(-sign * j) / q_int(j + 1)
        unit = dom.mul(dom.mul(unit, unit), ctx.coeff(c_j))
    basis = list(itertools.product(range(ctx.dim), repeat=i))
    cols = _apply_tower(sigmas, i, ({t: dom.one()} for t in basis))
    return TensorOperator(dom, ctx.dim, i, {
        (t, tout): dom.mul(unit, c)
        for t, col in zip(basis, cols) for tout, c in col.items()})


def antisymmetrizer_tower(ctx, n):
    """[a^(1), ..., a^(n)] with a^(i+1) = q^i/(i+1)_q a^(i) sigma_i^-(q^-2i) a^(i)."""
    return [tower_level(ctx, i) for i in range(1, n + 1)]


def symmetrizer_tower(ctx, n):
    """[s^(1), ..., s^(n)] with s^(i+1) = q^-i/(i+1)_q s^(i) sigma_i^+(q^2i) s^(i)."""
    return [tower_level(ctx, i, +1) for i in range(1, n + 1)]


def height_probe(ctx, tower, i):
    """The tower step a^(i) sigma_i^-(q^-2i) a^(i), a^(i) = tower[i - 1],
    composed as operators: level i + 1 up to its unit c_i."""
    a_i = tower[i - 1].embed(1, i + 1)
    return a_i @ _sigma(ctx, i).embed(i, i + 1) @ a_i


# ---------------------------------------------------------------------------
# Delta scalars and height.

def delta(mu, i):
    """The trace eigenvalue: Tr_R(i) a^(i) = delta_i a^(i-1)."""
    num = -(QScalar.q_power(i - 1) * (mu + QScalar.q_power(1 - 2 * i))
            * (mu * mu - QScalar.q_power(4 - 2 * i)))
    den = (mu + QScalar.q_power(3 - 2 * i)) * LAMBDA * q_int(i)
    if den.is_zero():
        raise GuardError(f"delta denominator vanishes at level {i}")
    return num / den


def big_delta(mu, i):
    out = ONE
    for j in range(1, i + 1):
        out = out * delta(mu, j)
    return out


def _height_scan(ctx, bound):
    """Smallest i <= bound at which the tower step a^(i) sigma_i a^(i)
    (`height_probe`) vanishes, or None, from image bases alone.

    B_1 is the standard basis of V.  W_i = (a^(i) (x) 1) sigma_i (B_i (x) V)
    spans Im a^(i+1), so the step vanishes exactly when W_i is all zero;
    otherwise the pivots of its echelon are B_(i+1), and level i + 1 is
    nonzero.  Exact in ctx's domain; at a joint point a pivot that is not
    a unit raises InadmissiblePointError.
    """
    dom, dim = ctx.dom, ctx.dim
    basis = [{(j,): dom.one()} for j in range(dim)]
    sigmas = []
    for i in range(1, bound + 1):
        sigmas.append(_sigma(ctx, i))
        vectors = ({t + (j,): c for t, c in b.items()}
                   for b in basis for j in range(dim))
        ech = Echelon(dom)
        for w in _apply_tower(sigmas, i, sigmas[-1].apply_at(i, vectors)):
            ech.add_row(w)
        if not ech.rank:
            return i
        basis = list(ech.pivots.values())
    return None


def height(ctx, seed=0, min_points=MIN_PRIME_COUNT):
    """(height, type tag, failure bound) of the R-matrix.

    For dim <= 4 the scan runs over the exact field, with bound None.
    Above that it runs at the prime points of `modular_verdict`, first at
    their joint point, whose verdict it keeps: an echelon whose pivots are
    units mod P has the same rank mod each prime, and a level vanishing at
    one prime only shows as a non-unit pivot.  Mixed scans on the walk
    raise GuardError.
    """
    # two levels past k = dim / 2, the height of an Sp(2k) R-matrix
    bound = ctx.dim // 2 + 2
    if ctx.dim <= 4:
        k, failure = _height_scan(ctx, bound), None
    else:
        try:
            k, _, failure = modular_verdict(
                lambda pt: _height_scan(ctx.at_point(pt), bound),
                point_bound(ctx.dim), point_bound(ctx.dim), seed, min_points,
                FAILURE_TARGET)
        except IdealError as exc:
            raise GuardError(f"height undecided: {exc}") from None
    if k is None:
        raise GuardError(f"height > bound {bound}")
    sp = ctx.mu_scalar == -QScalar.q_power(-1 - 2 * k)
    return k, f"Sp({2 * k})" if sp else "custom", failure
