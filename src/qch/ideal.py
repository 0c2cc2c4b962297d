"""Membership in the two-sided ideal generated by the defining relations.

The relations are homogeneous of degree 2, so the ideal is graded and
the degree-d component is spanned by {w1 * r * w2} over relations r and
word pairs with |w1| + |w2| = d - 2.  Membership is decided by sparse
elimination inside (degree, row-weight, column-weight) blocks: for one
polynomial exactly over the rational function field, and for a matrix
identity of large degree at >= 3 admissible prime points shared by all
its entries, with the failure probability of that modular route
reported.  `modular_verdict` is the one walk over the prime points that
every modular verdict takes (membership here, the height in
`qch.rmatrix`); each first tries the walk's points all at once, at their
joint point modulo the product of their primes.  An
echelon-oriented rewriting system provides a sound fast path (a zero
normal form proves membership; a nonzero one decides nothing).  Words
are coded once, on entry, as integers (`word_key`) that order words of
one length lexicographically, generators (a, b) row-major.
"""

from __future__ import annotations

import heapq
from collections import Counter

from .domains import FpDomain, SpanDomain
from .linalg import Echelon
from .ncpoly import NCPoly
from .scalar import (PRIME_POOL_SIZE, InadmissiblePointError, JointPoint,
                     joint_point, sample_points)

FAILURE_TARGET = 1e-12
# fewest prime points a modular verdict may rest on, and most
MIN_PRIME_COUNT = 3
MAX_PRIME_COUNT = PRIME_POOL_SIZE
# points a modular verdict takes, at most, to bring its bound to target
POINT_LIMIT = 12


def point_bound(dim):
    """The guard of the prime points of a check in dimension dim (q^2 has
    multiplicative order above it at each point), and the degree the
    height's failure bound takes."""
    return 8 * dim + 8


def modular_bound(points, d_max):
    """Chance that a nonzero minor of degree <= d_max vanishes at every
    point: the product of d_max / p, taken left to right."""
    bound = 1.0
    for pt in points:
        bound *= d_max / pt.p
    return bound


class IdealError(RuntimeError):
    pass


class BudgetError(IdealError):
    pass


class MixedVerdictError(IdealError):
    pass


def _check_min_points(min_points):
    if not MIN_PRIME_COUNT <= min_points <= MAX_PRIME_COUNT:
        raise ValueError(
            f"min_points must be >= {MIN_PRIME_COUNT} and "
            f"<= {MAX_PRIME_COUNT}, got {min_points}")


def _enough(pts, d_max, min_points, target):
    """The stop rule of a modular verdict: min_points points, and then
    POINT_LIMIT of them or `modular_bound(pts, d_max)` at target."""
    return len(pts) >= min_points and (len(pts) >= POINT_LIMIT or
                                       modular_bound(pts, d_max) <= target)


def modular_verdict(decide, d_max, guard, seed, min_points, target):
    """(verdict, points, bound) of decide(pt), taken at prime points.

    decide(pt) gives the verdict at pt or declines pt by raising
    InadmissiblePointError.  It runs first at the joint point
    (`scalar.joint_point`) of the batch the walk takes when it skips none.
    Z/P -> F_p_i is a ring homomorphism for each prime p_i of P, and decide
    takes ring steps and inverses of units only, so its run mod P reduces
    to its run at each point: a verdict there is the walk's, with the same
    points.  decide declines a joint verdict that need not hold at every
    point.  Otherwise the walk: one pass over the pool in `sample_points(
    seed, ..., guard)` order, skipping declined points, until `_enough`;
    mixed verdicts raise MixedVerdictError at once.
    """
    _check_min_points(min_points)
    pool = sample_points(seed, PRIME_POOL_SIZE, guard)
    batch = next(pool[:n] for n in range(1, len(pool) + 1)
                 if _enough(pool[:n], d_max, min_points, target))
    try:
        return decide(joint_point(batch)), batch, modular_bound(batch, d_max)
    except InadmissiblePointError:
        pass
    pts, verdicts = [], []
    for pt in pool:
        try:
            got = decide(pt)
        except InadmissiblePointError:
            continue
        verdicts.append(got)
        if got != verdicts[0]:
            raise MixedVerdictError(f"mixed modular verdicts: {verdicts}")
        pts.append(pt)
        if _enough(pts, d_max, min_points, target):
            break
    if len(pts) < min_points:
        raise IdealError("could not collect enough admissible points")
    return verdicts[0], pts, modular_bound(pts, d_max)


def default_weights(dim):
    """Basis weights (k..1, -1..-k) for even dim = 2k, else all 0 (the
    trivial grading)."""
    if dim % 2:
        return [0] * dim
    k = dim // 2
    return [k - i for i in range(k)] + [-(i + 1) for i in range(k)]


class MembershipCertificate:
    __slots__ = ("status", "kind", "points", "witness", "residual", "bound",
                 "detail")

    def __init__(self, status, kind, points=None, witness=None,
                 residual=None, bound=None, detail=""):
        self.status = status
        self.kind = kind
        self.points = points
        self.witness = witness
        self.residual = residual
        self.bound = bound
        self.detail = detail

    @property
    def is_member(self):
        return self.status in ("member", "probable-member")

    @staticmethod
    def union(certs):
        """One certificate for the conjunction of exact certs (say, the
        entries of a matrix): the first non-member if there is one, else
        a member whose witness is every certificate's, in order, each item
        led by the index in certs of the certificate it came from (the
        entry it certifies)."""
        for cert in certs:
            if not cert.is_member:
                return cert
        witness = [(entry, *item) for entry, c in enumerate(certs)
                   for item in c.witness or ()]
        return MembershipCertificate("member", "exact", witness=witness)

    def __repr__(self):
        extra = f", bound={self.bound:.3g}" if self.bound is not None else ""
        return f"MembershipCertificate({self.status}, {self.kind}{extra})"


class QuadraticIdeal:
    """The graded ideal of a fixed list of quadratic relations."""

    def __init__(self, dom, dim, relations, label=""):
        self.dom = dom
        self.dim = dim
        self.label = label
        self.relations = []
        for rid, p in relations:
            if p.is_zero():
                continue
            if any(len(w) != 2 for w in p.terms):
                raise ValueError(f"relation {rid} is not quadratic")
            self.relations.append((rid, p))
        self._base = dim * dim
        gg = self._base ** 2
        # each relation as {2-letter code: coefficient}
        self._rel_codes = [{self.word_key(w) - gg: c
                            for w, c in p.terms.items()}
                           for _, p in self.relations]
        # relations not homogeneous in the weights get the trivial grading
        self.weights = default_weights(dim)
        if any(len({self.block_key(code + gg) for code in codes}) > 1
               for codes in self._rel_codes):
            self.weights = [0] * dim
        # (row weight, column weight) of each relation
        self._rel_weights = [self.block_key(next(iter(codes)) + gg)[1:]
                             for codes in self._rel_codes]
        self._rel_span = [self._poly_span(p) for _, p in self.relations]
        self._ruleset = None
        self._components = {}
        self._span_index = {}
        self._block_span_max = {}
        self._points = {}

    # -- words, blocks, spans ------------------------------------------------
    def word_key(self, w):
        """The integer code of a word: 1, then one base-dim**2 digit per
        letter, a * dim + b for generator (a, b)."""
        key = 1
        for a, b in w:
            key = key * self._base + a * self.dim + b
        return key

    def word_from_key(self, key):
        letters = []
        while key > 1:
            key, r = divmod(key, self._base)
            letters.append(divmod(r, self.dim))
        return tuple(reversed(letters))

    def block_key(self, key):
        """(length, row weight, column weight) of a word code."""
        n = rw = cw = 0
        while key > 1:
            key, r = divmod(key, self._base)
            a, b = divmod(r, self.dim)
            n += 1
            rw += self.weights[a]
            cw += self.weights[b]
        return (n, rw, cw)

    def _poly_span(self, p):
        span = 0
        for c in p.terms.values():
            ds = getattr(c, "degree_span", None)
            if ds is not None:
                span = max(span, ds())
        return span

    # -- rewriting fast path -----------------------------------------------------
    def ruleset(self):
        """Echelonized relations oriented as rewrite rules: the leading
        2-letter code (largest under the column order) maps to minus the
        tail, a list of (code, coefficient).  Every rule application
        stays inside the ideal's coset."""
        if self._ruleset is None:
            ech = Echelon(self.dom)
            for codes in self._rel_codes:
                ech.add_row(codes)
            self._ruleset = {
                lead: [(code, self.dom.neg(c)) for code, c in row.items()
                       if code != lead]
                for lead, row in ech.pivots.items()}
        return self._ruleset

    def normal_order(self, p, budget=2_000_000):
        """Fixed point of the oriented rules, processed largest word
        first so duplicate intermediates merge.  p - normal_order(p) is
        an ideal member by construction.

        A rule rewrites the leftmost pair it fits, at letters pos, pos + 1
        of a word of length L, by adding (new - old pair code) * G**(L - 2
        - pos) to the word's code."""
        rules = self.ruleset()
        dom = self.dom
        base = self._base
        pair = base * base
        terms = {self.word_key(w): c for w, c in p.terms.items()}
        heap = [-key for key in terms]
        heapq.heapify(heap)
        # powers[L] <= key < powers[L + 1] for a word of length L; codes
        # pop largest first, so lengths only go down
        powers = [1]
        while powers[-1] <= max(terms, default=1):
            powers.append(powers[-1] * base)
        length = len(powers) - 1
        out = {}
        steps = 0
        while heap:
            key = -heapq.heappop(heap)
            c = terms.pop(key, None)
            if c is None:
                continue
            while key < powers[length]:
                length -= 1
                shifts = powers[length - 2::-1] if length > 1 else ()
            for shift in shifts:
                code = key // shift % pair
                rule = rules.get(code)
                if rule is not None:
                    break
            else:
                out[key] = c
                continue
            steps += 1
            if steps > budget:
                raise BudgetError(f"normal_order budget exceeded ({budget})")
            # not qch.sparse.axpy_into: a new word must also go on the heap
            for code2, c2 in rule:
                nk = key + (code2 - code) * shift
                v = dom.mul(c, c2)
                cur = terms.get(nk)
                if cur is None:
                    terms[nk] = v
                    heapq.heappush(heap, -nk)
                else:
                    s = dom.add(cur, v)
                    if dom.is_zero(s):
                        del terms[nk]
                    else:
                        terms[nk] = s
        return NCPoly(dom, {self.word_from_key(k): c for k, c in out.items()})

    # -- graded spanning components ------------------------------------------------
    def _all_words(self, length):
        if length == 0:
            return [((), 0, 0)]
        shorter = self._all_words(length - 1)
        out = []
        for a, wa in enumerate(self.weights):
            for b, wb in enumerate(self.weights):
                for w, rw, cw in shorter:
                    out.append((w + ((a, b),), rw + wa, cw + wb))
        return out

    def _span_index_for(self, degree):
        """{block: [(relation index, w1, w2)]} for |w1|+|w2| = degree-2."""
        if degree not in self._span_index:
            idx = {}
            words = {l: self._all_words(l) for l in range(degree - 1)}
            for rel_i, (rw0, cw0) in enumerate(self._rel_weights):
                for l1 in range(degree - 1):
                    for w1, rw1, cw1 in words[l1]:
                        for w2, rw2, cw2 in words[degree - 2 - l1]:
                            block = (degree, rw1 + rw0 + rw2, cw1 + cw0 + cw2)
                            idx.setdefault(block, []).append((rel_i, w1, w2))
            self._span_index[degree] = idx
        return self._span_index[degree]

    def component(self, degree, block, track=False):
        """Echelon basis of the ideal's (degree, block) slice, on word
        codes, plus the insertion metadata (relation id, w1, w2) aligned
        with combo indices."""
        key = (degree, block, track)
        if key not in self._components:
            ech = Echelon(self.dom, track_combos=track)
            metas = []
            pair = self._base ** 2
            for rel_i, w1, w2 in self._span_index_for(degree).get(block, []):
                # code(w1 w w2) = (code(w1) * G**2 + pair code of w)
                #                 * G**|w2| + code(w2) - G**|w2|
                head = self.word_key(w1) * pair
                shift = self._base ** len(w2)
                tail = self.word_key(w2) - shift
                ech.add_row({(head + code) * shift + tail: c
                             for code, c in self._rel_codes[rel_i].items()})
                metas.append((self.relations[rel_i][0], w1, w2))
            self._components[key] = (ech, metas)
        return self._components[key]

    def rank_of_degree(self, degree):
        """Total rank of the degree-d component plus block statistics."""
        blocks = sorted(self._span_index_for(degree))
        rank = 0
        spanning = 0
        for block in blocks:
            ech, metas = self.component(degree, block)
            rank += ech.rank
            spanning += len(metas)
        return {"degree": degree, "rank": rank, "blocks": len(blocks),
                "spanning": spanning}

    # -- reduction at prime points ----------------------------------------------
    def at_point(self, pt):
        key = (pt.p, pt.qhat)
        if key not in self._points:
            fp = FpDomain(pt)
            rels = [(rid, p.over(fp)) for rid, p in self.relations]
            self._points[key] = QuadraticIdeal(
                fp, self.dim, rels, label=f"{self.label} @ {pt!r}")
        return self._points[key]

    # -- membership ----------------------------------------------------------------
    def needs_modular(self, degree):
        """Whether an identity of this degree is decided at prime points
        (`identity_membership`): exact elimination is kept to degree <= 2
        or dim <= 2."""
        return degree > 2 and self.dim > 2

    def membership(self, p, witness=False):
        """Decide p ∈ ideal exactly; the domain must be exact.
        Inhomogeneous p splits into graded parts."""
        if p.is_zero():
            return MembershipCertificate("member", "exact", witness=[])
        parts = p.graded_parts()
        low = [d for d in parts if d < 2]
        if low:
            return MembershipCertificate(
                "non-member", "exact", residual=parts[min(low)],
                detail="nonzero part of degree < 2")
        if not self.dom.exact:
            raise IdealError("exact membership needs an exact domain")
        return self._membership_exact(parts, witness)

    def membership_family(self, candidate_at, degree, candidate_span,
                          entries=1, seed=0, min_points=MIN_PRIME_COUNT):
        """Modular membership of a candidate that is only built at points.

        candidate_at(pt) is an iterable of the entries of one fixed exact
        candidate (say, a matrix identity), each reduced at pt, built once
        per point; it may be a one-shot generator, and each entry is
        decided as it arrives.  The caller vouches for the exact candidate:
        its maximal degree, a bound on the Laurent degree span of its
        coefficients (say, from a SpanDomain build) and the number of its
        nonzero entries.  Every entry is decided at the same points of
        `modular_verdict` and gets an equal share of FAILURE_TARGET; the
        failure bound is the union bound over the entries.  A residual
        that is 0 mod P is 0 at every point of the batch, but a nonzero one
        proves nothing at any one point: the joint point declines it.
        """
        def decide(pt):
            if self._vanishes_at(pt, candidate_at):
                return True
            if isinstance(pt, JointPoint):
                raise InadmissiblePointError("nonzero residual mod P")
            return False

        verdict, points, bound = modular_verdict(
            decide, self._degree_dmax(degree, candidate_span),
            point_bound(self.dim), seed, min_points, FAILURE_TARGET / entries)
        bound *= entries
        if verdict:
            return MembershipCertificate("probable-member", "modular",
                                         points=points, bound=bound)
        return MembershipCertificate(
            "non-member", "modular", points=points, bound=bound,
            detail="nonzero residual at every sampled point")

    def identity_membership(self, ctx, build, degree, seed=0,
                            min_points=MIN_PRIME_COUNT):
        """Membership of every entry of the identity build(ctx), an iterable
        (a list, or a one-shot generator) of polynomials of the given
        maximal degree; None when every entry is 0 in the free algebra.

        When the verdict will be modular (`needs_modular`) the identity is
        built evaluate-first: only at the prime points, with its degree,
        coefficient span and nonzero entries bounded by one SpanDomain
        build.  That build is streamed, and only three running numbers are
        kept of it: the largest degree, the largest coefficient span and
        the count of nonzero entries.  Mixed modular verdicts send the
        whole identity to the exact build, listed once, and exact
        membership.
        """
        if self.needs_modular(degree):
            d_max = span = entries = 0
            for p in build(ctx.over(SpanDomain())):
                if p:
                    entries += 1
                    d_max = max(d_max, p.degree())
                    span = max(span, self._poly_span(p))
            if entries:
                try:
                    return self.membership_family(
                        lambda pt: build(ctx.at_point(pt)), d_max, span,
                        entries=entries, seed=seed, min_points=min_points)
                except MixedVerdictError:
                    pass
        polys = list(build(ctx))
        if not any(polys):
            return None
        return self.membership_matrix(polys, witness=True)

    def _split_blocks(self, part):
        """{block: {word code: coefficient}} of a homogeneous part."""
        blocks = {}
        for w, c in part.terms.items():
            key = self.word_key(w)
            blocks.setdefault(self.block_key(key), {})[key] = c
        return blocks

    def _membership_exact(self, parts, witness=False):
        items = []
        for d in sorted(parts):
            part = parts[d]
            if not witness:
                try:
                    part = self.normal_order(part)
                except BudgetError:
                    part = parts[d]
                if part.is_zero():
                    continue
            for block, row in sorted(self._split_blocks(part).items()):
                ech, metas = self.component(d, block, track=witness)
                if witness:
                    res, combo = ech.reduce_with_combo(row)
                else:
                    res, combo = ech.reduce(row), None
                if res:
                    resid = NCPoly(self.dom,
                                   {self.word_from_key(k): c
                                    for k, c in res.items()})
                    return MembershipCertificate(
                        "non-member", "exact", residual=resid,
                        detail=f"residual in block {block}")
                if witness:
                    for k, v in combo.items():
                        rid, w1, w2 = metas[k]
                        items.append((self.dom.neg(v), w1, rid, w2))
        return MembershipCertificate("member", "exact",
                                     witness=items if witness else None)

    def _vanishes_at(self, pt, candidate_at):
        """Whether every entry of the candidate lies in the ideal at pt (at
        a joint point: whether each residual is 0 mod its modulus)."""
        ideal_p = self.at_point(pt)
        return all(ideal_p._membership_exact(p.graded_parts()).is_member
                   for p in candidate_at(pt))

    def _degree_dmax(self, degree, candidate_span):
        """Largest per-block sum of relation coefficient spans, plus the
        candidate span: a degree bound for the minor whose vanishing
        could make one modular verdict wrong.

        Counted, not listed: a block's sum is, over relations r, max(span
        of r, 1) times the number of pairs (w1, w2), |w1| + |w2| = degree
        - 2, that put w1 r w2 in the block: degree - 1 splits of each word
        w1 w2 of the right weight."""
        if degree not in self._block_span_max:
            letters = [(ra, cb) for ra in self.weights for cb in self.weights]
            counts = Counter({(0, 0): 1})   # words of length degree - 2
            for _ in range(degree - 2):
                nxt = Counter()
                for (rw, cw), n in counts.items():
                    for ra, cb in letters:
                        nxt[rw + ra, cw + cb] += n
                counts = nxt
            rels = Counter()   # summed max(span, 1) of each relation weight
            for span, weight in zip(self._rel_span, self._rel_weights):
                rels[weight] += max(span, 1)
            blocks = Counter()
            for (rw0, cw0), s in rels.items():
                for (rw, cw), n in counts.items():
                    blocks[rw + rw0, cw + cw0] += s * n
            self._block_span_max[degree] = max(degree - 1, 0) * max(
                blocks.values(), default=0)
        return self._block_span_max[degree] + max(candidate_span, 1)

    def membership_matrix(self, entries, witness=False):
        """Exact membership of every polynomial in entries (say, the
        entries of a matrix identity), as one `MembershipCertificate.union`
        that stops at the first non-member."""
        certs = []
        for p in entries:
            certs.append(self.membership(p, witness=witness))
            if not certs[-1].is_member:
                break
        return MembershipCertificate.union(certs)

    def __repr__(self):
        return (f"QuadraticIdeal({self.label or 'unnamed'}, dim={self.dim}, "
                f"{len(self.relations)} relations)")

