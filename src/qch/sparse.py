"""Sparse accumulation over a coefficient domain.

A sparse map is a dict {key: coefficient} that stores no zero
coefficient.  Tensor operators, noncommutative and spectral polynomials
and echelon rows are all such maps, and every sum or product of them goes
through the three functions below, generic over the protocol of
`domains.py`.  `product` also accumulates into a given destination: a sum
of products, such as one entry of a matrix product or of a matrix
identity, is then built in a single dict, with no intermediate map per
product and no copy per sum.

A key that is new to the destination is appended to it, and a key whose
sum cancels is removed; callers rely on the resulting insertion order,
which fixes the order of echelon rows and so the witnesses.
"""

from __future__ import annotations


def add_into(dst, src, dom):
    """dst += src.  src is an iterable of (key, coefficient) pairs, such
    as `m.items()`; a key may repeat.  Returns dst."""
    add, is_zero = dom.add, dom.is_zero
    for k, v in src:
        cur = dst.get(k)
        s = v if cur is None else add(cur, v)
        if is_zero(s):
            dst.pop(k, None)
        else:
            dst[k] = s
    return dst


def axpy_into(dst, src, c, dom):
    """dst += src * c, each coefficient of src multiplied by c on its
    right.  src is as in `add_into`.  Returns dst."""
    add, mul, is_zero = dom.add, dom.mul, dom.is_zero
    for k, v in src:
        v = mul(v, c)
        cur = dst.get(k)
        s = v if cur is None else add(cur, v)
        if is_zero(s):
            dst.pop(k, None)
        else:
            dst[k] = s
    return dst


def product(a, b, combine, dom, dst=None):
    """The product of sparse maps a and b: key combine(ka, kb) collects
    a[ka] * b[kb], with a's coefficient on the left.  Given dst, the
    product is added into it (dst += a * b, as in `add_into`) and dst is
    returned."""
    add, mul, is_zero = dom.add, dom.mul, dom.is_zero
    out = {} if dst is None else dst
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = combine(ka, kb)
            v = mul(ca, cb)
            cur = out.get(k)
            s = v if cur is None else add(cur, v)
            if is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
    return out
