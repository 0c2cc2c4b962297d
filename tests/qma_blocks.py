"""Braid words and 2x2 block maps for the dimension-4 calibration tests.

`star_word` spells the braid word of a star product; the block helpers
split a 4x4 QMatrix into 2x2 blocks and apply the calibration maps sigma,
alpha and beta to them.  They spell out the calibration the tests
certify against `qch.qma`; no `qch` code calls them.
"""
from __future__ import annotations

from qch.ncpoly import QMatrix
from qch.scalar import QScalar


def star_word(alpha, n_alpha, beta, n_beta):
    """Braid word for M^{(alpha)} * M^{(beta)} and its strand count.

    The product word is alpha, then beta shifted up by n_alpha strands,
    then the bridge sigma_n .. sigma_2 sigma_1 sigma_2^-1 .. sigma_n^-1
    with n = n_alpha.
    """
    n = n_alpha
    word = list(alpha)
    word += [(i + n, e) for i, e in beta]
    word += [(j, 1) for j in range(n, 0, -1)]
    word += [(j, -1) for j in range(2, n + 1)]
    return tuple(word), n_alpha + n_beta


# ---------------------------------------------------------------------------
# 2x2 block helpers used by the dimension-4 calibration suite.

def block_of(m, corner):
    """2x2 block of a 4x4 matrix; corner in {'A','B','C','D'} reading
    [[A, B], [C, D]]."""
    r0, c0 = {"A": (0, 0), "B": (0, 2), "C": (2, 0), "D": (2, 2)}[corner]
    return [[m.rows[r0][c0], m.rows[r0][c0 + 1]],
            [m.rows[r0 + 1][c0], m.rows[r0 + 1][c0 + 1]]]


def assemble_blocks(dom, blocks):
    """4x4 QMatrix from [[A, B], [C, D]] blocks of 2x2 entry grids."""
    rows = [[None] * 4 for _ in range(4)]
    for bi in range(2):
        for bj in range(2):
            blk = blocks[bi][bj]
            for i in range(2):
                for j in range(2):
                    rows[2 * bi + i][2 * bj + j] = blk[i][j]
    return QMatrix(dom, rows)


def block_scale(x, c):
    return [[e.scale(c) for e in row] for row in x]


def block_add(x, y):
    return [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(x, y)]


def block_sigma(x, q_val):
    """[[X22, q^-1 X12], [q X21, X11]] with the indicated q."""
    dom = x[0][0].dom
    return [[x[1][1], x[0][1].scale(dom.from_scalar(q_val.inv()))],
            [x[1][0].scale(dom.from_scalar(q_val)), x[0][0]]]


def block_alpha(x, q_val, sign):
    """[[q^-2 X11 +- (1-q^-2) X22, q^-3 X12], [q^-1 X21, X22]]."""
    dom = x[0][0].dom
    qi = q_val.inv()
    c = (QScalar.from_int(1) - qi * qi) if sign > 0 else -(
        QScalar.from_int(1) - qi * qi)
    top = x[0][0].scale(dom.from_scalar(qi * qi)) + x[1][1].scale(
        dom.from_scalar(c))
    return [[top, x[0][1].scale(dom.from_scalar(qi ** 3))],
            [x[1][0].scale(dom.from_scalar(qi)), x[1][1]]]


def block_beta(x, q_val):
    """(q^-2 X11 + X22) I + q^-4 sigma_q(X)."""
    dom = x[0][0].dom
    qi = q_val.inv()
    diag = x[0][0].scale(dom.from_scalar(qi * qi)) + x[1][1]
    out = block_scale(block_sigma(x, q_val), dom.from_scalar(qi ** 4))
    out[0][0] = out[0][0] + diag
    out[1][1] = out[1][1] + diag
    return out
