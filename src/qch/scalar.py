"""Exact arithmetic over Q(q) and modular evaluation points.

A scalar is a fraction of Laurent polynomials in q with integer
coefficients, kept in a canonical form so that equality is structural:

  * numerator and denominator are ordinary polynomials (lowest exponent 0
    on at least one of them, none negative),
  * their polynomial gcd and common integer content are removed,
  * the lowest-degree nonzero coefficient of the denominator is positive.

The polynomial gcd is skipped when numerator or denominator is a single
term c*q^e.  After the q-shift at least one side has a nonzero constant
term.  If the single term has e > 0, the other side is that one: q does not
divide it, so it shares no nonconstant factor with c*q^e.  If e = 0, the
single term is a constant.  Either way the gcd is a constant, and removing
the integer content below gives the same canonical form as the full
remainder sequence.

Laurent polynomials are dicts {exponent: coefficient} with no zero entries.
No floating point is used anywhere.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


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


def lp_shift(a, s):
    if s == 0:
        return dict(a)
    return {e + s: c for e, c in a.items()}


def lp_bar(a):
    return {-e: c for e, c in a.items()}


def lp_eval_mod(a, qhat, p):
    v = 0
    m = p - 1  # exponents reduce mod p-1 for qhat != 0
    for e, c in a.items():
        v = (v + c * pow(qhat, e % m, p)) % p
    return v


# ---------------------------------------------------------------------------
# Dense integer polynomial helpers (lists, index = exponent).

def _pl_strip(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pl_content(a):
    return math.gcd(*a) or 1


def _pl_primitive(a):
    g = _pl_content(a)
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


def _pl_gcd(a, b):
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
    # exact division of integer polynomials, raises if not exact
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        if c % lb:
            raise ScalarError("inexact polynomial division")
        q[i] = c // lb
        if q[i]:
            for j, bc in enumerate(b):
                a[i + j] -= q[i] * bc
    if any(a):
        raise ScalarError("inexact polynomial division")
    return _pl_strip(q)


def _lp_to_list(a):
    n = max(a) + 1
    r = [0] * n
    for e, c in a.items():
        r[e] = c
    return r


def _list_to_lp(a):
    return {e: c for e, c in enumerate(a) if c}


# ---------------------------------------------------------------------------

class QScalar:
    """Element of Q(q) in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = {0: 1}
        if _canonical:
            self.num = num
            self.den = den
            return
        num = {e: c for e, c in num.items() if c}
        den = {e: c for e, c in den.items() if c}
        if not den:
            raise ScalarError("zero denominator")
        if not num:
            self.num = {}
            self.den = {0: 1}
            return
        shift = -min(min(num), min(den))
        if shift:
            num = lp_shift(num, shift)
            den = lp_shift(den, shift)
        ln, ld = _lp_to_list(num), _lp_to_list(den)
        if len(num) > 1 and len(den) > 1:
            # a single-term side leaves a constant gcd (module docstring)
            g = _pl_gcd(ln, ld)
            if len(g) > 1 or g[0] != 1:
                ln = _pl_div_exact(ln, g)
                ld = _pl_div_exact(ld, g)
        cg = math.gcd(*ln, *ld)
        if cg > 1:
            ln = [c // cg for c in ln]
            ld = [c // cg for c in ld]
        low = next(c for c in ld if c)
        if low < 0:
            ln = [-c for c in ln]
            ld = [-c for c in ld]
        self.num = _list_to_lp(ln)
        self.den = _list_to_lp(ld)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_int(n):
        if n == 0:
            return _ZERO
        return QScalar({0: n}, {0: 1}, _canonical=True)

    @staticmethod
    def from_fraction(f):
        f = Fraction(f)
        return QScalar({0: f.numerator}, {0: f.denominator})

    @staticmethod
    def q_power(e):
        if e >= 0:
            return QScalar({e: 1}, {0: 1}, _canonical=True)
        return QScalar({0: 1}, {-e: 1}, _canonical=True)

    @staticmethod
    def laurent(d):
        return QScalar({e: c for e, c in d.items() if c}, {0: 1})

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
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return QScalar(lp_add(self.num, other.num), dict(self.den))
        return QScalar(
            lp_add(lp_mul(self.num, other.den), lp_mul(other.num, self.den)),
            lp_mul(self.den, other.den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        # negating the numerator preserves canonical form
        return QScalar(lp_neg(self.num), dict(self.den), _canonical=True)

    def __mul__(self, other):
        if not self.num or not other.num:
            return _ZERO
        return QScalar(lp_mul(self.num, other.num), lp_mul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ScalarError(f"division by zero: ({self}) / ({other})")
        if not self.num:
            return _ZERO
        return QScalar(lp_mul(self.num, other.den), lp_mul(self.den, other.num))

    def inv(self):
        if not self.num:
            raise ScalarError("inverse of zero")
        return QScalar(dict(self.den), dict(self.num))

    def __pow__(self, n):
        if n == 0:
            return _ONE
        if n < 0:
            return self.inv() ** (-n)
        r = self
        for _ in range(n - 1):
            r = r * self
        return r

    def bar(self):
        """The involution q -> q^-1."""
        return QScalar(lp_bar(self.num), lp_bar(self.den))

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


_ZERO = QScalar({}, {0: 1}, _canonical=True)
_ONE = QScalar({0: 1}, {0: 1}, _canonical=True)

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
    n = _lp_to_text(a.num)
    if a.den == {0: 1}:
        return n
    d = _lp_to_text(a.den)
    if len(a.num) > 1:
        n = f"({n})"
    if len(a.den) > 1:
        d = f"({d})"
    return f"{n} / {d}"


_TERM_RE = None


def _lp_from_text(s):
    import re
    global _TERM_RE
    if _TERM_RE is None:
        _TERM_RE = re.compile(
            r"\s*([+-]?)\s*(?:(\d+)\s*\*\s*)?(?:(\d+)|q(?:\^(-?\d+))?)")
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if s in ("0", ""):
        return {}
    out = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ScalarError(f"cannot parse scalar text: {s!r} at offset {pos}")
        sign_s, cmul, cint, exp = m.groups()
        if not first and sign_s == "":
            raise ScalarError(f"missing sign in scalar text: {s!r}")
        sign = -1 if sign_s == "-" else 1
        if cint is not None:
            c, e = int(cint), 0
        else:
            c = int(cmul) if cmul is not None else 1
            e = 1 if exp is None else int(exp)
        out[e] = out.get(e, 0) + sign * c
        pos = m.end()
        first = False
    return {e: c for e, c in out.items() if c}


def scalar_from_text(s):
    s = s.strip()
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return QScalar(_lp_from_text(s[:i]), _lp_from_text(s[i + 1:]))
    return QScalar(_lp_from_text(s))


# ---------------------------------------------------------------------------
# Modular evaluation points.

def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below_2_31(count):
    out = []
    n = 2 ** 31 - 1
    while len(out) < count:
        if _is_probable_prime(n):
            out.append(n)
        n -= 2
    return out


# sample_points takes at most one point per prime of the pool
PRIME_POOL_SIZE = 24
_PRIME_POOL = _primes_below_2_31(PRIME_POOL_SIZE)


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
        """Reduce a QScalar at this point; a ring homomorphism into F_p."""
        d = lp_eval_mod(a.den, self.qhat, self.p)
        if d == 0:
            raise InadmissiblePointError(
                f"denominator of {a} vanishes at (p={self.p}, qhat={self.qhat})")
        if not a.num:
            return 0
        n = lp_eval_mod(a.num, self.qhat, self.p)
        return n * pow(d, -1, self.p) % self.p

    def __repr__(self):
        return f"PrimePoint(p={self.p}, qhat={self.qhat}, bound={self.bound})"


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

