"""Sparse row-echelon elimination and dense-ish matrix inversion, generic
over a coefficient domain.

Rows are dicts {column: coefficient}.  Columns can be any sortable keys;
the echelon picks each row's largest column as its pivot, so an order on
columns fixes the reduction deterministically.
"""

from __future__ import annotations

from .sparse import axpy_into


class SingularMatrixError(ArithmeticError):
    def __init__(self, msg, kernel=None):
        super().__init__(msg)
        self.kernel = kernel


class Echelon:
    """Incremental echelon basis with leading-column pivots.

    Rows are normalized so the pivot coefficient is one.  With
    track_combos=True each inserted row remembers its expression in terms
    of the original rows (by insertion index).
    """

    def __init__(self, dom, track_combos=False):
        self.dom = dom
        self.pivots = {}          # lead column -> row dict
        self.combos = {}          # lead column -> {orig index: coeff}
        self.track = track_combos
        self.count = 0

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, row, combo=None):
        dom = self.dom
        row = dict(row)
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return lead, row, combo
            c = dom.neg(row[lead])
            axpy_into(row, piv.items(), c, dom)
            if combo is not None:
                axpy_into(combo, self.combos[lead].items(), c, dom)
        return None, {}, combo

    def reduce(self, row):
        """Fully reduce a row against the basis; returns the residual."""
        _, res, _ = self._reduce(row)
        return res

    def reduce_with_combo(self, row):
        lead, res, combo = self._reduce(row, {} if self.track else None)
        return res, combo

    def add_row(self, row):
        """Insert a row; returns True if the rank grew."""
        dom = self.dom
        combo = {self.count: dom.one()} if self.track else None
        self.count += 1
        lead, res, combo = self._reduce(row, combo)
        if lead is None:
            return False
        inv = dom.inv(res[lead])
        res = {c: dom.mul(inv, v) for c, v in res.items()}
        self.pivots[lead] = res
        if self.track:
            self.combos[lead] = {k: dom.mul(inv, v) for k, v in combo.items()}
        return True


def rank_of_rows(rows, dom):
    ech = Echelon(dom)
    for r in rows:
        ech.add_row(r)
    return ech.rank


def invert_matrix(rows, n, dom):
    """Invert an n x n matrix given as a list of row dicts {col: coeff}.

    Returns the inverse as a list of row dicts.  Raises
    SingularMatrixError with a kernel witness when singular.
    """
    aug = []
    for i, r in enumerate(rows):
        left = {c: v for c, v in r.items() if not dom.is_zero(v)}
        aug.append((left, {i: dom.one()}))
    # forward elimination with column pivoting in natural order
    piv_rows = {}
    free_cols = []
    remaining = list(range(n))
    work = aug
    for col in range(n):
        pick = None
        for idx, (left, right) in enumerate(work):
            if col in left:
                pick = idx
                break
        if pick is None:
            free_cols.append(col)
            continue
        left, right = work.pop(pick)
        inv = dom.inv(left[col])
        left = {c: dom.mul(inv, v) for c, v in left.items()}
        right = {c: dom.mul(inv, v) for c, v in right.items()}
        piv_rows[col] = (left, right)
        nxt = []
        for l2, r2 in work:
            if col in l2:
                c = dom.neg(l2[col])
                axpy_into(l2, left.items(), c, dom)
                axpy_into(r2, right.items(), c, dom)
            if l2:
                nxt.append((l2, r2))
        work = nxt
    if free_cols:
        col = free_cols[0]
        kernel = {col: dom.one()}
        for c in sorted(piv_rows, reverse=True):
            left, _ = piv_rows[c]
            acc = dom.zero()
            for cc, v in left.items():
                if cc == c:
                    continue
                if cc in kernel:
                    acc = dom.add(acc, dom.mul(v, kernel[cc]))
            if not dom.is_zero(acc):
                kernel[c] = dom.neg(acc)
        raise SingularMatrixError(
            f"matrix is singular (free column {col})", kernel=kernel)
    # back substitution
    for col in sorted(piv_rows, reverse=True):
        left, right = piv_rows[col]
        for c in [c for c in left if c > col]:
            pl, pr = piv_rows[c]
            coef = dom.neg(left[c])
            axpy_into(left, pl.items(), coef, dom)
            axpy_into(right, pr.items(), coef, dom)
        piv_rows[col] = (left, right)
    return [piv_rows[i][1] for i in range(n)]
