"""Sparse row-echelon elimination, and matrix inversion built on it,
generic over a coefficient domain.

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

    The rows go into an `Echelon` that tracks combinations.  A pivot row
    has a 1 at its lead and its other entries left of it, so with the
    leads taken in increasing order, clearing those entries with the
    inverse rows already found leaves e_lead as a combination of the
    rows: row lead of the inverse.
    """
    ech = Echelon(dom, track_combos=True)
    for r in rows:
        ech.add_row({c: v for c, v in r.items() if not dom.is_zero(v)})
    leads = sorted(ech.pivots)
    if len(leads) < n:
        # v_col = 1 on the first free column, 0 on the others; each pivot
        # row then fixes v at its lead from the entries left of it
        col = min(set(range(n)).difference(leads))
        kernel = {col: dom.one()}
        for lead in leads:
            acc = dom.zero()
            for c, v in ech.pivots[lead].items():
                if c in kernel:
                    acc = dom.add(acc, dom.mul(v, kernel[c]))
            if not dom.is_zero(acc):
                kernel[lead] = dom.neg(acc)
        raise SingularMatrixError(
            f"matrix is singular (free column {col})", kernel=kernel)
    inv = {}
    for lead in leads:
        row = dict(ech.combos[lead])
        for c, v in ech.pivots[lead].items():
            if c != lead:
                axpy_into(row, inv[c].items(), dom.neg(v), dom)
        inv[lead] = row
    return [inv[i] for i in range(n)]
