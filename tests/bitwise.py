"""Bit-for-bit comparison of one state's result with its row in a batch."""
import math

import numpy as np
from hypothesis import strategies as st

# one coordinate: moderate values, signed zeros, large magnitudes, NaN and
# infinities (the tests that draw them silence numpy's warnings)
_COORD = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, math.nan, 1e150, -1e200, 1e300]),
    st.floats(),
)


def state_rows(n, rows=None):
    """Strategy: a ``(k, n)`` float array of ``rows`` states, else 1..6."""
    lo, hi = (rows, rows) if rows else (1, 6)
    row = st.lists(_COORD, min_size=n, max_size=n)
    return st.lists(row, min_size=lo, max_size=hi).map(lambda r: np.array(r, dtype=float))


def assert_same_bits(got, want):
    """``got`` has the shape and the bits of ``want``: equal values, zeros of
    equal sign, and NaN where ``want`` has NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True), (got, want)
    num = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[num]), np.signbit(want[num])), (got, want)
