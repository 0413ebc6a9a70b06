"""The two kernels write every float64 as ``'%.17g' % v`` and ``float.__repr__(v)`` write it,
byte for byte."""

import math
import operator
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hazard2ts.floattext import format_rows, repr_fields


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _scaled(lo, hi):
    """Values m * 10**x, 1 <= |m| < 10, for decimal exponents x in [lo, hi]."""
    return st.builds(lambda m, x: m * 10.0 ** x if abs(x) < 300 else float(f"{m!r}e{x}"),
                     st.floats(-9.999999, 9.999999).filter(lambda m: abs(m) >= 1),
                     st.integers(lo, hi))


def _ties():
    """Exact ties of the 17th digit: m * 2**-(17 - X) for odd m, in [10**X, 10**(X + 1)), has
    exactly 18 significant digits, the last a 5."""
    def odd_multiples(x):
        j = 17 - x
        lo, hi = math.ceil(10.0 ** x * 2 ** j), min(math.floor(10.0 ** (x + 1) * 2 ** j), 2 ** 53)
        return st.integers(lo // 2, (hi - 2) // 2).map(lambda h: math.ldexp(2 * h + 1, -j))
    return st.builds(operator.mul, st.integers(-6, 15).flatmap(odd_multiples),
                     st.sampled_from([-1.0, 1.0]))


# the cases a decimal printer gets wrong
_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2 ** 64 - 1).map(_from_bits),
    _ties(),
    # short binary fractions at every scale
    st.builds(lambda m, j, e: math.ldexp(1 + m * 2.0 ** -j, e), st.integers(0, 2 ** 20),
              st.integers(1, 60), st.integers(-600, 600)),
    # powers of ten and their neighbours one ulp away
    st.builds(lambda k, side: np.nextafter(float(f"1e{k}"), side).item(),
              st.integers(-323, 308), st.sampled_from([-math.inf, 0.0, math.inf])),
    st.builds(lambda k: float(f"1e{k}"), st.integers(-323, 308)),
    # the last fixed and first exponential layouts, and three-digit exponents
    _scaled(-5, -4), _scaled(16, 17), _scaled(-323, -100), _scaled(100, 308),
    # the ends of the fast range, 1e-180 <= |v| <= 1e180, and just outside them
    st.builds(lambda end, ulps: (np.float64(end) + ulps * np.spacing(end)).item(),
              st.sampled_from([1e-180, -1e-180, 1e180, -1e180]), st.integers(-3, 3)),
    # doubles just below a power of ten whose 17 digits round up to it: 1e-14 is one
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 0.5, 2.5, 1e16, 1e17, 99999999999999984.0,
                     123456789012345678.0, 5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, 1e-14, 1e-79, 1e-176, 1e98]),
)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_VALUES, min_size=1, max_size=60), n_cols=st.integers(1, 4),
       with_flags=st.booleans())
@example(values=[1 + 2.0 ** -17, 0.5 + 2.0 ** -18, 1e23, 9.5e-5, 1e-14, 1e-180, 1e180, -1e98],
         n_cols=2, with_flags=True)
def test_kernel_writes_the_bytes_of_percent_17g(values, n_cols, with_flags):
    n_rows = max(1, len(values) // n_cols)
    grid = np.resize(np.array(values, dtype=float), (n_rows, n_cols))
    flags = np.arange(n_rows) % 3 == 1 if with_flags else None
    expected = "".join(",".join(["%.17g" % v for v in row]
                                + ([("true" if flags[i] else "false")] if with_flags else []))
                       + "\n" for i, row in enumerate(grid.tolist()))
    assert bytes(format_rows(list(grid.T), flags)) == expected.encode()


def test_empty_block_writes_nothing():
    assert bytes(format_rows([np.zeros(0), np.zeros(0)], np.zeros(0, bool))) == b""


# the cases a shortest-digits printer gets wrong, beside those of %g
_REPR_VALUES = st.one_of(
    _VALUES,
    st.builds(math.ldexp, st.sampled_from([1.0, -1.0]), st.integers(-1074, 1023)),
    st.integers(-2 ** 64, 2 ** 64).map(float),
    # short decimals, whose shortest digits are far fewer than 17
    st.builds(lambda m, x: float(f"{m}e{x}"), st.integers(-99999, 99999), st.integers(-200, 200)),
    st.integers(1, 2 ** 52 - 1).map(_from_bits),                      # subnormals
    # both sides of the switches between fixed and exponential repr
    st.builds(lambda end, ulps: (np.float64(end) + ulps * np.spacing(end)).item(),
              st.sampled_from([1e-4, -1e-4, 1e-5, -1e-5, 1e16, -1e16]), st.integers(-3, 3)),
)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_REPR_VALUES, min_size=1, max_size=60))
# Python writes these: ties between the two 16-digit neighbours, the ends of the interval
# (2**53's lower half is a quarter ulp) at 16 and 15 digits, and a 17th digit's tie
@example(values=[5.960464477539062e-07, 8.344650268554688e-06, 9007199254740992.0,
                 3.152519739159347e+16, 5.17913957147607e+16, 2.9802322387695312e-08])
@example(values=[0.0, -0.0, 1.0, -2.5, 0.1, 1e16, 9999999999999998.0, 1e-4, 1e-5, 1e22,
                 123456789012345.67, math.inf, -math.inf, math.nan])
def test_repr_kernel_writes_the_bytes_of_float_repr(values):
    fields = repr_fields(np.array(values, dtype=float))
    assert fields.shape == (len(values), 32)
    assert [bytes(row).replace(b"\0", b"") for row in fields] \
        == [float.__repr__(v).encode() for v in values]
