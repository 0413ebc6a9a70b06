"""The text of float64 arrays, a block at a time, by two kernels on one decimal read-off:
``format_rows`` writes CSV lines whose fields are the bytes of ``'%.17g' % v``, and
``repr_fields`` each value's ``float.__repr__(v)``, the shortest digits that read back as v.

A v with 1e-180 <= |v| <= 1e180 is read off as D + f = |v| * 10**(16 - X), D its 17 digits
and X its decimal exponent.  The product is a double-double (Dekker's TwoProduct: numpy has no
fused multiply-add) with the correctly rounded P_hi + P_lo = 10**(16 - X); its error is below
1e-14, so round(D + f) is correctly rounded (Steele & White 1990) unless f lies within 1e-9 of
1/2.  The shortest digits are found as Ryu finds them (Adams 2018): in units of the 17th
digit, v's rounding interval reaches half an ulp to each side of D + f (a quarter below a
power of two), so it is at most 22.2 wide.  Of the decimals in it, the shortest are kept, and
of two the closer to v.  So the closer of D + f's two 16-digit neighbours that lies inside is
kept, and then its 15-digit neighbour inside, if there is one.  Such a multiple of 100 is the
only one in the interval, so it is also the only candidate of every shorter length, and the
layout drops its trailing zeros.  A value within 1e-6 of an interval end or of a tie between
neighbours is written by Python, as are inf, nan and the rest of the range; zeros are fast
too.  A field is laid out by the %g or the repr rules in 32 bytes, the text being the bytes
that are not 0.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_X_LO, _X_HI = -182, 182      # the decimal exponents of the powers of ten: the fast range
_MARGIN = 1e-6                # repr: closer than this to an interval end or a tie is slow


@cache
def _tables():
    """By X - _X_LO: P_hi, its Dekker split and P_lo.  By 0..9999: ASCII quads as uint32, the
    same with trailing zeros as 0, and their count.  The flag words "false\n" and "true\n".
    The layouts of %g (``"g"``) and repr (``"r"``), each by X - _X_LO: a field's first 8 bytes
    ("0.000"), last 8 ("e+ddd" and %g's ","), its digits before the point, and whether a
    field with no digit after the point ends in ".0" (repr's fixed notation, X >= 0)."""
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
    exps = np.hstack([np.full_like(x, ord("e")), np.where(x < 0, ord("-"), ord("+")),
                      abs(x) // [100, 10, 1] % 10 + ord("0")])

    def layout(first_e, sep, dot_zero):     # first_e: the first X written in e-notation
        expo = (x < -4) | (x >= first_e)
        ends = np.zeros((len(x), 16), np.uint8)
        ends[:, 1:6] = np.where(np.arange(5) < np.where(~expo & (x < 0), 1 - x, 0),
                                np.frombuffer(b"0.000", np.uint8), 0)
        ends[:, 8:13] = np.where(expo & ((abs(x) >= 100) | (np.arange(5) != 2)), exps, 0)
        ends[:, 13] = sep
        return (ends.view(np.uint64), np.where(expo[:, 0], 1, np.maximum(x[:, 0] + 1, 0)),
                dot_zero & ~expo[:, 0] & (x[:, 0] >= 0))

    return dict(
        pow10=(p_hi, h1, p_hi - h1, p_lo), zeros=zeros,
        words=np.frombuffer(b"false\n\0\0true\n\0\0\0", np.uint64),
        quads=quads.astype(np.uint8).view(np.uint32).ravel(),
        quadz=np.where(np.arange(4) < 4 - zeros[:, None], quads, 0)
        .astype(np.uint8).view(np.uint32).ravel(),
        g=layout(17, ord(","), False), r=layout(16, 0, True))


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


def _read_off(v, pow10):
    """Whether each v is in the fast range, its |v| (1 where it is not), X, D and f, and
    whether D missed its 17 digits (then v is slow)."""
    a = np.abs(v)
    fast = (a >= 1e-180) & (a <= 1e180)
    a = np.where(fast, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, x, pow10)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))     # log10 missed X by one
    x[off] += np.where(d[off] >= 10 ** 17, 1, -1)
    d[off], frac[off] = _scaled(a[off], x[off], pow10)
    return fast, a, x, d, frac, (d < 10 ** 16) | (d >= 10 ** 17)


def _lay_out(field, flat, at, v, x, d, layout, t):
    """Write each value's field by ``layout`` (a ``_tables`` entry) into ``field``, an array
    of shape (..., 32) whose fields start at the offsets ``at`` of its base ``flat``: the sign,
    "0.000", the digits of d (a 17-digit integer, 10**17 for 10**16 at X + 1, 0 for a zero)
    with the point (and repr's ".0"), "e+ddd" and the separator.  The digits go one place
    right, then the n_int before the point one place back left."""
    up = d == 10 ** 17
    d, x = np.where(up, 10 ** 16, d), x + up
    ends, n_int_of, whole_of = layout
    shape = field.shape[:-1]
    field.view(np.uint64)[..., ::3] = ends.take(x - _X_LO, axis=0).reshape(*shape, 2)
    q = np.empty((4, len(v)), np.int64)
    for c in range(3, -1, -1):                # a floor division by a scalar beats divmod
        high = d // 10000
        q[c] = d - high * 10000
        d = high
    field[..., 7] = (d + ord("0")).reshape(shape)
    for c in range(4):
        field.view(np.uint32)[..., 2 + c] = t["quadz" if c == 3 else "quads"].take(q[c]) \
            .reshape(shape)
    trailing, rows = t["zeros"].take(q[3]), np.flatnonzero(q[3] == 0)
    for c in (2, 1, 0):                       # the rows whose quads after c are all zero
        trailing[rows] += t["zeros"].take(q[c, rows])
        flat.view(np.uint32)[at[rows] // 4 + 2 + c] = t["quadz"].take(q[c, rows])
        rows = rows[q[c, rows] == 0]
    n_sig, n_int = 17 - trailing, n_int_of.take(x - _X_LO)
    rows, j = np.flatnonzero(n_int > n_sig), np.arange(17)    # zeros before the point stay
    flat[(at[rows, None] + 7 + j)[(j >= n_sig[rows, None]) & (j < n_int[rows, None])]] = 48
    rows = np.flatnonzero(n_int)
    for k in range(n_int.max(initial=0)):
        moved = rows[n_int[rows] > k]
        flat[at[moved] + 6 + k] = flat[at[moved] + 7 + k]
    n_sig, n_int, whole = n_sig[rows], n_int[rows], whole_of.take(x[rows] - _X_LO)
    flat[at[rows] + 6 + n_int] = np.where((n_sig > n_int) | whole, ord("."), 0)
    ints = np.flatnonzero(whole & (n_sig <= n_int))           # repr's "1.0"
    flat[at[rows[ints]] + 7 + n_int[ints]] = ord("0")
    flat[at[np.flatnonzero(np.signbit(v))]] = ord("-")


def format_rows(columns, flags=None) -> bytearray:
    """The CSV lines (``\\n``-terminated) of equal-length float columns, then the optional
    true/false ``flags`` column, each float written as ``'%.17g' % v`` writes it."""
    v = np.stack([np.asarray(col, dtype=float) for col in columns], axis=1)
    (n_rows, n_cols), v, t = v.shape, v.ravel(), _tables()
    fast, _, x, d, frac, missed = _read_off(v, t["pow10"])
    slow = (~fast & (v != 0)) | (np.abs(frac - 0.5) < 1e-9) | missed
    d = np.where(fast, d + (frac > 0.5), 0)   # zeros; the others are slow, rewritten below

    # a field: sign, "0.000", the point's slot, 17 digits, "e+ddd", ",", 2 bytes never used
    row = n_cols * 32 + (0 if flags is None else 8)
    text = bytearray(n_rows * row)
    buf = np.frombuffer(text, np.uint8).reshape(n_rows, row)
    at = (np.arange(n_rows)[:, None] * row + np.arange(n_cols) * 32).ravel()
    field = buf[:, :n_cols * 32].reshape(n_rows, n_cols, 32)
    _lay_out(field, buf.ravel(), at, v, x, d, t["g"], t)
    for i in np.flatnonzero(slow):
        text[at[i]:at[i] + 29] = ("%.17g" % v[i]).encode().ljust(29, b"\0")
    if flags is None:
        field[:, -1, 29] = ord("\n")
    else:
        buf.view(np.uint64)[:, -1] = t["words"].take(np.asarray(flags, dtype=bool).astype(int))
    return text.translate(None, b"\0")


def repr_fields(values) -> np.ndarray:
    """A (n, 32) uint8 array for the n float64 ``values``: the bytes of row i that are not 0
    are those of ``float.__repr__(values[i])``, 24 at most."""
    v = np.asarray(values, dtype=float).ravel()
    t = _tables()
    fast, a, x, d, frac, slow = _read_off(v, t["pow10"])
    # the rounding interval about D + f: half an ulp up, and down but below a power of two
    # (the ulp of a normal a is its exponent bits as a float times 2**-52); at most 22.2 wide
    bits = a.view(np.uint64)
    half_up = (bits & 0x7FF0000000000000).view(float) * 2.0 ** -53 * t["pow10"][0].take(x - _X_LO)
    half_down = np.where(bits << 12 == 0, 0.5 * half_up, half_up)
    slow |= ~fast & (v != 0) | (np.abs(frac - 0.5) < _MARGIN)
    digits = d + (frac > 0.5)                 # 17 digits always read back as v
    # 16 digits, then 15: the closer neighbour inside, if any (past 15 digits a neighbour is
    # inside only where it is that one multiple of 100, whose trailing zeros the layout drops)
    for step in (10, 100):
        rest = d - d // step * step
        below = rest + frac
        above = step - below
        lo_in, hi_in = below <= half_down, above <= half_up
        slow |= ((np.abs(below - half_down) < _MARGIN) | (np.abs(above - half_up) < _MARGIN)
                 | lo_in & hi_in & (np.abs(below - above) < _MARGIN))
        digits = np.where(lo_in | hi_in, d - rest + (hi_in & (~lo_in | (above < below))) * step,
                          digits)
    digits[~fast] = 0                         # zeros; the others are slow, rewritten below

    out = np.empty((len(v), 32), np.uint8)
    _lay_out(out, out.ravel(), np.arange(len(v)) * 32, v, x, digits, t["r"], t)
    for i in np.flatnonzero(slow):
        out[i] = np.frombuffer(float.__repr__(float(v[i])).encode().ljust(32, b"\0"), np.uint8)
    return out
