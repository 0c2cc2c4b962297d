"""Exact arithmetic over Q(q) and modular evaluation points.

A scalar is a fraction N / D with integer coefficients, kept in a
canonical form so that equality is structural:

  * the numerator N is a Laurent polynomial (exponents of either sign),
  * the denominator D is an ordinary polynomial with a positive constant
    term,
  * N and D are coprime, and their joint integer content is 1.

So a value that is a Laurent polynomial over Z has D = 1, and every such
value holds the one shared denominator `_LDEN`, an immutable {0: 1}; the
shortcuts test it by identity.  These reach the form without a
polynomial gcd:

  * Laurent values (L): L*L is `lp_mul` and L+L is `lp_add`.  L + N/D is
    (N_L*D + N)/D: gcd(N_L*D + N, D) = gcd(N, D) = 1, and a prime dividing
    both contents would divide every coefficient of N_L*D, hence cont N,
    so the joint content is still 1.
  * A single-term side c*q^e needs none: q^e is a unit of Z[q, q^-1], so
    the gcd is a constant.  Dividing both sides by the lowest power of q
    in D, one joint integer content and the sign fix build the dicts.
  * `inv` and `__pow__` start from a canonical form.  Swapping its sides
    keeps it coprime and content-free, so after the q-power that gives the
    new denominator a constant term, `inv` needs only the sign fix.  N^n
    and D^n stay coprime, their joint content is 1 by Gauss's lemma and
    D^n has the positive constant term D(0)^n, so `__pow__` needs nothing.
  * A product by exactly 1 or -1 is the other operand or its negation.
    A canonical single-term m = c*q^e / d (gcd(c, d) = 1, d > 0) times a
    canonical N/D: N and D are coprime, so c*q^e*N and d*D share only a
    constant, the joint content g = gcd(c, cont D) * gcd(d, cont N), as no
    prime divides both c and d or both cont N and cont D.  Division is
    multiplication by `inv`.
  * The remaining products and sums, with several terms on both sides,
    take the gcd from GCDHEU (Char, Geddes & Gonnet, JSC 1989): an integer
    gcd at a large point x, interpolated in balanced base-x digits.  It is
    accepted only after it divides both sides exactly, which proves it is
    the gcd, and those quotients are the canonical sides.  After six
    rejected points the primitive remainder sequence (`_pl_gcd_prs`)
    decides instead.

Report text (`scalar_to_text`) multiplies both sides by the q-power that
makes the numerator a polynomial as well.

Laurent polynomials are dicts {exponent: coefficient} with no zero entries.
No floating point is used anywhere.
"""

from __future__ import annotations

import math
import random
from types import MappingProxyType


class ScalarError(ArithmeticError):
    pass


class InadmissiblePointError(ValueError):
    """A denominator vanished at a modular evaluation point."""


# ---------------------------------------------------------------------------
# Laurent polynomial helpers (dict {exp: coeff}).  lp_add and lp_mul keep
# their own integer loops rather than use qch.sparse: they sit under every
# QScalar construction, the hottest code, and need no domain.

def lp_add(a, b):
    r = dict(a)
    for e, c in b.items():
        s = r.get(e, 0) + c
        if s:
            r[e] = s
        else:
            r.pop(e, None)
    return r


def lp_neg(a):
    return {e: -c for e, c in a.items()}


def lp_mul(a, b):
    r = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = r.get(e, 0) + ca * cb
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return r


def lp_eval_mod(a, qhat, m):
    """a(qhat) mod m.  m need not be prime (`joint_point`), so exponents
    are not reduced mod m - 1; a negative one needs qhat to be a unit,
    whose inverse is taken once."""
    v = 0
    inv = pow(qhat, -1, m) if a and min(a) < 0 else None
    for e, c in a.items():
        v += c * (pow(qhat, e, m) if e >= 0 else pow(inv, -e, m))
    return v % m


# ---------------------------------------------------------------------------
# Dense integer polynomial helpers (lists, index = exponent).

def _pl_strip(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pl_primitive(a):
    g = math.gcd(*a) or 1
    if a and a[-1] < 0:
        g = -g
    if g != 1:
        a = [c // g for c in a]
    return a


def _pl_pseudo_rem(a, b):
    # primitive pseudo-remainder of a by b, deg a >= deg b >= 0
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        shift = da - db
        for i, c in enumerate(b):
            a[i + shift] -= la * c
        _pl_strip(a)
        a = _pl_primitive(a)
    return a


def _pl_gcd_prs(a, b):
    a = _pl_primitive(_pl_strip(list(a)))
    b = _pl_primitive(_pl_strip(list(b)))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _pl_pseudo_rem(a, b)
    return _pl_primitive(a)


def _pl_div_exact(a, b):
    # exact quotient of integer polynomials, None if b does not divide a
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        if c % lb:
            return None
        q[i] = c // lb
        if q[i]:
            for j, bc in enumerate(b):
                a[i + j] -= q[i] * bc
    if any(a):
        return None
    return _pl_strip(q)


def _pl_eval(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _pl_interpolate(v, x):
    # the polynomial with balanced base-x digits (|digit| <= x/2) of v
    out = []
    while v:
        d = v % x
        if d > x // 2:
            d -= x
        out.append(d)
        v = (v - d) // x
    return out


def _pl_gcd_heu(a, b):
    """Cofactors (a/g, b/g) of g = gcd(a, b) by GCDHEU, or None.

    With x >= 2*min(|a|, |b|) + 2 (max norms), the primitive part of the
    interpolated gcd(a(x), b(x)) is gcd(a, b) as soon as it divides both
    (Char, Geddes & Gonnet, JSC 1989); the two divisions are that check.
    x starts 27 above it: at a tiny x, spurious integer factors of a(x)
    and b(x) would reject more candidates.
    """
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        va, vb = _pl_eval(a, x), _pl_eval(b, x)
        if va and vb:
            h = _pl_interpolate(math.gcd(va, vb), x)
            if len(h) == 1:
                return a, b
            if len(h) <= min(len(a), len(b)):
                cont = math.gcd(*h)
                h = [c // cont for c in h]
                ca = _pl_div_exact(a, h)
                cb = None if ca is None else _pl_div_exact(b, h)
                if cb is not None:
                    return ca, cb
        x = 2 * x + 7
    return None


def _lp_to_list(a, shift, g):
    r = [0] * (max(a) + shift + 1)
    for e, c in a.items():
        r[e + shift] = c // g
    return r


# ---------------------------------------------------------------------------

# the denominator of every Laurent value: shared, immutable, tested by `is`
_LDEN = MappingProxyType({0: 1})


class QScalar:
    """Element of Q(q) in canonical form (module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_LDEN, _canonical=False):
        if _canonical:
            self.num = num
            self.den = den
            return
        if 0 in num.values():  # else kept: callers pass new dicts
            num = {e: c for e, c in num.items() if c}
        if den is _LDEN:
            self.num, self.den = num, _LDEN
            return
        if 0 in den.values():
            den = {e: c for e, c in den.items() if c}
        if not den:
            raise ScalarError("zero denominator")
        if not num:
            self.num, self.den = {}, _LDEN
            return
        t = min(den)
        g = math.gcd(*num.values(), *den.values())
        if len(num) > 1 and len(den) > 1:
            s = min(num)
            ln, ld = _lp_to_list(num, -s, g), _lp_to_list(den, -t, g)
            r = _pl_gcd_heu(ln, ld)
            if r is None:  # the heuristic gave up: the PRS gcd decides
                h = _pl_gcd_prs(ln, ld)
                r = _pl_div_exact(ln, h), _pl_div_exact(ld, h)
            ln, ld = r
            # ld keeps a constant term: times h(0) it is den's, not 0
            sign = -1 if ld[0] < 0 else 1
            s -= t
            self.num = {e + s: sign * c for e, c in enumerate(ln) if c}
            self.den = _LDEN if ld == [sign] else {
                e: sign * c for e, c in enumerate(ld) if c}
            return
        # a single-term side leaves a constant gcd (module docstring)
        if den[t] < 0:
            g = -g
        if len(den) == 1 and den[t] == g:
            den = _LDEN
        elif t or g != 1:
            den = {e - t: c // g for e, c in den.items()}
        if t or g != 1:
            num = {e - t: c // g for e, c in num.items()}
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_int(n):
        if n == 0:
            return _ZERO
        return QScalar({0: n}, _LDEN, _canonical=True)

    @staticmethod
    def q_power(e):
        return QScalar({e: 1}, _LDEN, _canonical=True)

    @staticmethod
    def laurent(d):
        return QScalar({e: c for e, c in d.items() if c})

    # -- predicates ----------------------------------------------------------
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())),
                     tuple(sorted(self.den.items()))))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        a, b = self.num, other.num
        if not a:
            return other
        if not b:
            return self
        # closed forms with a Laurent operand (module docstring)
        da, db = self.den, other.den
        if da is _LDEN:
            if db is _LDEN:
                s = lp_add(a, b)
                return QScalar(s, _LDEN, _canonical=True) if s else _ZERO
            return QScalar(lp_add(lp_mul(a, db), b), db, _canonical=True)
        if db is _LDEN:
            return QScalar(lp_add(a, lp_mul(b, da)), da, _canonical=True)
        if da == db:
            return QScalar(lp_add(a, b), da)
        return QScalar(lp_add(lp_mul(a, db), lp_mul(b, da)), lp_mul(da, db))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        # negating the numerator preserves canonical form
        return QScalar(lp_neg(self.num), self.den, _canonical=True)

    def __mul__(self, other):
        a, b = self.num, other.num
        if not a or not b:
            return _ZERO
        # shortcuts that skip the canonicalization (module docstring)
        if len(b) == 1 and len(other.den) == 1:
            return _times_term(self, other)
        if len(a) == 1 and len(self.den) == 1:
            return _times_term(other, self)
        if self.den is _LDEN and other.den is _LDEN:
            return QScalar(lp_mul(a, b), _LDEN, _canonical=True)
        return QScalar(lp_mul(a, b), lp_mul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ScalarError(f"division by zero: ({self}) / ({other})")
        if not self.num:
            return _ZERO
        return self * other.inv()

    def inv(self):
        num = self.num
        if not num:
            raise ScalarError("inverse of zero")
        # the swapped sides, times q^-t so that the new denominator has a
        # constant term, need only the sign fix (module docstring)
        t = min(num)
        s = -1 if num[t] < 0 else 1
        den = _LDEN if len(num) == 1 and num[t] == s else {
            e - t: s * c for e, c in num.items()}
        return QScalar({e - t: s * c for e, c in self.den.items()}, den,
                       _canonical=True)

    def __pow__(self, n):
        if n == 0:
            return _ONE
        if n < 0:
            return self.inv() ** (-n)
        # num^n and den^n of a canonical form are canonical (module docstring)
        num, den = self.num, self.den
        for _ in range(n - 1):
            num = lp_mul(num, self.num)
            if den is not _LDEN:
                den = lp_mul(den, self.den)
        return QScalar(num, den, _canonical=True)

    # -- size ----------------------------------------------------------------
    def degree_span(self):
        """Max exponent spread of numerator and denominator (for SZ bounds)."""
        s = 0
        for part in (self.num, self.den):
            if part:
                s = max(s, max(part) - min(part))
        return s

    # -- text ----------------------------------------------------------------
    def __repr__(self):
        return f"QScalar({self})"

    def __str__(self):
        return scalar_to_text(self)


def _times_term(x, m):
    """x * m for a canonical x and a canonical single-term m = c*q^e / d,
    in closed form (module docstring)."""
    (e, c), = m.num.items()
    d = m.den[0]
    if d == 1 and e == 0 and (c == 1 or c == -1):
        return x if c == 1 else -x
    num, den = x.num, x.den
    if den is _LDEN:
        if num in _UNITS:
            return m if num[0] == 1 else -m
        if d == 1:
            return QScalar({k + e: v * c for k, v in num.items()}, _LDEN,
                           _canonical=True)
    g = math.gcd(c, *den.values()) * math.gcd(d, *num.values())
    den = {k: v * d // g for k, v in den.items()}
    return QScalar({k + e: v * c // g for k, v in num.items()},
                   _LDEN if den == _LDEN else den, _canonical=True)


_UNITS = ({0: 1}, {0: -1})
_ZERO = QScalar({}, _LDEN, _canonical=True)
_ONE = QScalar({0: 1}, _LDEN, _canonical=True)

ZERO = _ZERO
ONE = _ONE
Q = QScalar.q_power(1)
QINV = QScalar.q_power(-1)
LAMBDA = Q - QINV  # q - q^-1


def q_int(n):
    """The symmetric q-integer (q^n - q^-n)/(q - q^-1) as a QScalar."""
    if n == 0:
        return _ZERO
    if n < 0:
        return -q_int(-n)
    return QScalar.laurent({n - 1 - 2 * j: 1 for j in range(n)})


# ---------------------------------------------------------------------------
# Scalar text form: integer-coefficient Laurent terms `c*q^e` joined by
# +/-, fractions as `num / den` (parenthesized when composite).

def _lp_to_text(a):
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        c = a[e]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            qp = "q" if e == 1 else f"q^{e}"
            body = qp if c == 1 else f"{c}*{qp}"
        parts.append((sign, body))
    sign, body = parts[0]
    out = body if sign == "+" else "-" + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def scalar_to_text(a):
    # both sides times q^s, the least power (s >= 0) that leaves no
    # negative exponent in the numerator
    num, den = a.num, a.den
    s = -min(num, default=0)
    if s > 0:
        num = {e + s: c for e, c in num.items()}
        den = {e + s: c for e, c in den.items()}
    elif den is _LDEN:
        return _lp_to_text(num)
    n, d = _lp_to_text(num), _lp_to_text(den)
    if len(num) > 1:
        n = f"({n})"
    # a sum, or a coefficient times a power of q
    if len(den) > 1 or "*" in d:
        d = f"({d})"
    return f"{n} / {d}"


# ---------------------------------------------------------------------------
# Modular evaluation points.

# the 24 largest primes below 2^31, in decreasing order; sample_points
# takes at most one point per prime of the pool
_PRIME_POOL = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059)
PRIME_POOL_SIZE = len(_PRIME_POOL)


class PrimePoint:
    """A prime p with an evaluation value qhat and a guard bound.

    The guard requires qhat^(2j) != 1 mod p for 1 <= j <= bound, which keeps
    every q-integer up to the bound and every tower/recursion denominator of
    the symplectic family invertible at the point.
    """

    __slots__ = ("p", "qhat", "bound")

    def __init__(self, p, qhat, bound):
        self.p = p
        self.qhat = qhat
        self.bound = bound
        err = self.check()
        if err:
            raise InadmissiblePointError(err)

    def check(self):
        p, qh = self.p, self.qhat
        if qh % p in (0, 1, p - 1):
            return f"qhat={qh} is 0 or a square root of 1 mod {p}"
        sq = qh * qh % p
        v = 1
        for j in range(1, self.bound + 1):
            v = v * sq % p
            if v == 1:
                return f"qhat^(2*{j}) = 1 mod {p}"
        return None

    def reduce(self, a):
        """Reduce a QScalar at this point; a ring homomorphism into Z/p
        (F_p for a prime p).  A denominator that is not a unit mod p, at
        a prime p one that vanishes, makes the point inadmissible."""
        if a.den is _LDEN:
            return lp_eval_mod(a.num, self.qhat, self.p)
        d = lp_eval_mod(a.den, self.qhat, self.p)
        try:
            d = pow(d, -1, self.p)
        except ValueError:
            raise InadmissiblePointError(
                f"denominator of {a} is not a unit at "
                f"(p={self.p}, qhat={self.qhat})") from None
        return lp_eval_mod(a.num, self.qhat, self.p) * d % self.p

    def __repr__(self):
        return f"PrimePoint(p={self.p}, qhat={self.qhat}, bound={self.bound})"


class JointPoint(PrimePoint):
    """A `joint_point`: p is the product of several pool primes, and it
    evaluates at all of their points at once."""

    __slots__ = ()


def joint_point(points):
    """One point standing for a batch of points of distinct primes: p is
    the product P of their primes and qhat the CRT lift of their qhats,
    built in Garner's mixed-radix form (IRE Trans. 1959).

    Z/P -> F_p_i is a ring homomorphism that sends qhat to qhat_i, so a
    value computed at the joint point by ring operations reduces mod p_i
    to the value at point i.  Each qhat_i is a unit, so qhat is a unit mod
    P; `check` is not run on the composite P (each point passed it).
    """
    m, x = 1, 0
    for pt in points:
        x += (pt.qhat - x) * pow(m, -1, pt.p) % pt.p * m
        m *= pt.p
    joint = JointPoint.__new__(JointPoint)
    joint.p, joint.qhat, joint.bound = m, x, points[0].bound
    return joint


def sample_points(seed, count, bound):
    """Deterministically sample admissible PrimePoints (one per pool prime)."""
    rng = random.Random(seed)
    pts = []
    for p in _PRIME_POOL:
        if len(pts) == count:
            break
        for _ in range(1000):
            qh = rng.randrange(2, p - 1)
            cand = PrimePoint.__new__(PrimePoint)
            cand.p, cand.qhat, cand.bound = p, qh, bound
            if cand.check() is None:
                pts.append(cand)
                break
        else:
            continue
    if len(pts) < count:
        raise InadmissiblePointError("could not sample enough admissible points")
    return pts

