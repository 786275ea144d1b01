"""Column-direction scan bodies of the lowered programs.

Every column scan picks its form by the stack's element count
(``COL_ACCUMULATE_MAX``): one strided accumulate up to it, row-slab adds
above it.  The shapes here are derived from the constant so both forms
stay covered if it moves.

* ``int_col_scan`` must equal ``np.cumsum(axis=1)`` in the accumulator
  dtype, with sums that wrap past 2**31 / 2**32.
* ``chunked_col_scan`` must equal transpose, the float row program,
  transpose back — byte for byte, ``-0.0`` inputs, multi-strip stacks
  (more 32-row chunks than the recorded ``wpb``) and ragged last strips
  included.  The differential suites use shapes up to 80x80, which never
  reach a second strip.
"""

import numpy as np
import pytest

from repro.compile.ops import (
    COL_ACCUMULATE_MAX,
    chunked_col_scan,
    chunked_row_scan,
    int_col_scan,
    serial_chunk_scan,
    transpose_scatter,
)

#: Depth of a 64x64 stack that lands exactly on the constant.
AT_MAX = COL_ACCUMULATE_MAX // (64 * 64)

#: ``(shape, accumulate form expected)``: below, at and just above the
#: constant, plus a tall many-chunk stack well above it.
INT_STACKS = [
    ((2, 96, 64), True),
    ((AT_MAX, 64, 64), True),
    ((AT_MAX + 1, 64, 64), False),
    ((1, 1024, 96), False),
]


@pytest.mark.parametrize("dtype", [np.int32, np.uint32])
@pytest.mark.parametrize("shape,small", INT_STACKS)
def test_int_col_scan_matches_cumsum_with_wraparound(dtype, shape, small):
    assert (np.prod(shape) <= COL_ACCUMULATE_MAX) == small
    info = np.iinfo(dtype)
    rng = np.random.default_rng(int(np.prod(shape)))
    x = rng.integers(info.min, info.max, size=shape, dtype=dtype,
                     endpoint=True)
    exact = np.cumsum(x.astype(np.int64), axis=1)
    assert exact.max() > info.max or exact.min() < info.min  # sums wrap
    want = np.cumsum(x, axis=1, dtype=dtype)
    got = int_col_scan(x.copy())
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == want.tobytes()


def _via_transposes(x, wpb):
    return transpose_scatter(
        chunked_row_scan(transpose_scatter(x), wpb, serial_chunk_scan))


#: ``(shape, wpb, accumulate form expected)``.
FLOAT_STACKS = [
    ((1, 128, 128), 4, True),              # one strip
    ((1, 256, 32), 2, True),               # 8 chunks in 4 strips
    ((3, 224, 64), 3, True),               # 7 chunks: strips of 3, 3, 1
    ((AT_MAX, 64, 64), 1, True),           # at the constant
    ((AT_MAX + 1, 64, 64), 1, False),      # just above it
    ((1, 2048, 64), 16, False),            # 64 chunks in 4 strips
    ((2, 1056, 64), 16, False),            # 33 chunks: strips 16, 16, 1
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,wpb,small", FLOAT_STACKS)
def test_float_col_body_equals_transposed_row_program(dtype, shape, wpb,
                                                      small):
    assert (np.prod(shape) <= COL_ACCUMULATE_MAX) == small
    rng = np.random.default_rng(shape[1] * 7 + wpb)
    x = rng.standard_normal(shape).astype(dtype)
    # Signed zeros everywhere, and whole -0.0 columns: the literal +0.0
    # offset adds must flush them exactly as the row program does.
    x[rng.random(shape) < 0.25] = -0.0
    x[..., ::7] = -0.0
    want = _via_transposes(x, wpb)
    got = chunked_col_scan(x.copy(), wpb)
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,wpb", [((1, 128, 128), 4),
                                       ((1, 2048, 64), 16)])
def test_float_col_body_flushes_all_negative_zero_stacks(dtype, shape, wpb):
    x = np.full(shape, -0.0, dtype=dtype)
    got = chunked_col_scan(x.copy(), wpb)
    assert got.tobytes() == _via_transposes(x, wpb).tobytes()
    assert not np.signbit(got).any()
