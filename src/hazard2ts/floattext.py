"""The CSV text of float64 columns, each field the bytes of ``'%.17g' % v``, a block at a time.

A v with 1e-180 <= |v| <= 1e180 is written from D = round(|v| * 10**(16 - X)), its 17 digits,
and X, its decimal exponent.  The product is a double-double (Dekker's TwoProduct: numpy has no
fused multiply-add) with the correctly rounded P_hi + P_lo = 10**(16 - X); its error is below
1e-14, so D is correctly rounded (Steele & White 1990) unless the fraction lies within 1e-9 of
1/2.  Python writes those values, inf, nan and the rest of the range; zeros are fast too.  A
field is laid out by the %g rules in 32 bytes, the text being the bytes that are not 0.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_X_LO, _X_HI = -182, 182      # the decimal exponents of the powers of ten: the fast range


@cache
def _tables():
    """By X - _X_LO: P_hi, its Dekker split and P_lo; a field's first 8 bytes ("0.000"), last
    8 ("e+ddd,") and digits before the point.  By 0..9999: ASCII quads as uint32, the same with
    trailing zeros as 0, and their count.  The flag words "false\n" and "true\n"."""
    pairs = []
    for k in range(16 - _X_LO, 16 - _X_HI - 1, -1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den            # int / int is correctly rounded, as is the residual
        a, b = hi.as_integer_ratio()
        pairs.append((hi, (num * b - a * den) / (den * b)))
    p_hi, p_lo = np.array(pairs).T
    h1 = 134217729.0 * p_hi - (134217729.0 * p_hi - p_hi)
    q, x = np.arange(10000)[:, None], np.arange(_X_LO, _X_HI + 1)[:, None]
    quads = q // [1000, 100, 10, 1] % 10 + ord("0")
    zeros = (q % [10, 100, 1000, 10000] == 0).sum(axis=1)
    expo = (x < -4) | (x >= 17)
    exps = np.hstack([np.full_like(x, ord("e")), np.where(x < 0, ord("-"), ord("+")),
                      abs(x) // [100, 10, 1] % 10 + ord("0")])
    ends = np.zeros((len(x), 16), np.uint8)
    ends[:, 1:6] = np.where(np.arange(5) < np.where(~expo & (x < 0), 1 - x, 0),
                            np.frombuffer(b"0.000", np.uint8), 0)
    ends[:, 8:13] = np.where(expo & ((abs(x) >= 100) | (np.arange(5) != 2)), exps, 0)
    ends[:, 13] = ord(",")
    return dict(
        pow10=(p_hi, h1, p_hi - h1, p_lo), zeros=zeros, ends=ends.view(np.uint64),
        words=np.frombuffer(b"false\n\0\0true\n\0\0\0", np.uint64),
        quads=quads.astype(np.uint8).view(np.uint32).ravel(),
        quadz=np.where(np.arange(4) < 4 - zeros[:, None], quads, 0)
        .astype(np.uint8).view(np.uint32).ravel(),
        n_int=np.where(expo[:, 0], 1, np.maximum(x[:, 0] + 1, 0)))


def _scaled(a, x, pow10):
    """floor(a * 10**(16 - x)) as int64 and the fraction of the exact product."""
    p_hi, h1, h2, p_lo = (p.take(x - _X_LO) for p in pow10)
    prod = a * p_hi
    a1 = 134217729.0 * a
    a1 -= a1 - a                              # Dekker's split: a1 + a2 = a, 26 bits each
    a2 = a - a1
    err = a1 * h1 - prod                      # a * p_hi = prod + err exactly
    err += (a1 * h2 + a2 * h1) + a2 * h2
    err += a * p_lo
    whole = np.floor(prod)
    rest = (prod - whole) + err
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def format_rows(columns, flags=None) -> bytearray:
    """The CSV lines (``\\n``-terminated) of equal-length float columns, then the optional
    true/false ``flags`` column, each float written as ``'%.17g' % v`` writes it."""
    v = np.stack([np.asarray(col, dtype=float) for col in columns], axis=1)
    (n_rows, n_cols), v, t = v.shape, v.ravel(), _tables()
    fast = (np.abs(v) >= 1e-180) & (np.abs(v) <= 1e180)
    a = np.where(fast, np.abs(v), 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, x, t["pow10"])
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))     # log10 missed X by one
    x[off] += np.where(d[off] >= 10 ** 17, 1, -1)
    d[off], frac[off] = _scaled(a[off], x[off], t["pow10"])
    slow = (~fast & (v != 0)) | (np.abs(frac - 0.5) < 1e-9) | (d < 10 ** 16) | (d >= 10 ** 17)
    d += frac > 0.5
    up = d == 10 ** 17                                          # rounded up to 10**(X + 1)
    d[up], x[up] = 10 ** 16, x[up] + 1
    d[~fast], x[~fast] = 0, 0                 # zeros; the others are slow, rewritten below

    # a field: sign, "0.000", the point's slot, 17 digits, "e+ddd", ",", 2 bytes never used;
    # the digits go one place right, then the n_int before the point one place back left
    row = n_cols * 32 + (0 if flags is None else 8)
    text = bytearray(n_rows * row)
    buf = np.frombuffer(text, np.uint8).reshape(n_rows, row)
    flat, at = buf.ravel(), (np.arange(n_rows)[:, None] * row + np.arange(n_cols) * 32).ravel()
    field = buf[:, :n_cols * 32].reshape(n_rows, n_cols, 32)
    field.view(np.uint64)[..., ::3] = t["ends"].take(x - _X_LO, axis=0) \
        .reshape(n_rows, n_cols, 2)
    q = np.empty((4, len(v)), np.int64)
    for c in range(3, -1, -1):
        d, q[c] = np.divmod(d, 10000)
    field[..., 7] = (d + ord("0")).reshape(n_rows, n_cols)
    for c in range(4):
        field.view(np.uint32)[..., 2 + c] = t["quadz" if c == 3 else "quads"].take(q[c]) \
            .reshape(n_rows, n_cols)
    trailing, rows = t["zeros"].take(q[3]), np.flatnonzero(q[3] == 0)
    for c in (2, 1, 0):                       # the rows whose quads after c are all zero
        trailing[rows] += t["zeros"].take(q[c, rows])
        flat.view(np.uint32)[at[rows] // 4 + 2 + c] = t["quadz"].take(q[c, rows])
        rows = rows[q[c, rows] == 0]
    n_sig, n_int = 17 - trailing, t["n_int"].take(x - _X_LO)
    rows, j = np.flatnonzero(n_int > n_sig), np.arange(17)    # zeros before the point stay
    flat[(at[rows, None] + 7 + j)[(j >= n_sig[rows, None]) & (j < n_int[rows, None])]] = 48
    rows = np.flatnonzero(n_int)
    for k in range(n_int.max(initial=0)):
        moved = rows[n_int[rows] > k]
        flat[at[moved] + 6 + k] = flat[at[moved] + 7 + k]
    flat[at[rows] + 6 + n_int[rows]] = np.where(n_sig[rows] > n_int[rows], ord("."), 0)
    flat[at[np.flatnonzero(np.signbit(v))]] = ord("-")
    for i in np.flatnonzero(slow):
        text[at[i]:at[i] + 29] = ("%.17g" % v[i]).encode().ljust(29, b"\0")
    if flags is None:
        field[:, -1, 29] = ord("\n")
    else:
        buf.view(np.uint64)[:, -1] = t["words"].take(np.asarray(flags, dtype=bool).astype(int))
    return text.translate(None, b"\0")
