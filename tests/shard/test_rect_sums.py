"""Rectangle sums over a sharded table: int64 widening near 2^31/2^32.

The dangerous case: a ``32u``/``32s`` SAT whose corner values sit near
``2^32``/``2^31``.  The sharded table's entries themselves wrap in the
SAT dtype (that *is* the table's value), but the ``d - b - c + a``
combination must run in ``int64`` — combining in the SAT dtype gives a
silently wrong rectangle sum even though the true sum fits comfortably.
Rectangles here deliberately span tile boundaries, so every corner comes
from a tile with a different (left, top) carry pair.
"""

import numpy as np
import pytest

from repro import rect_sum, rect_sums
from repro.sat.api import sat
from repro.shard import sharded_sat

TILE = (32, 32)


def _sharded(img, pair):
    return sharded_sat(img, pair=pair,
                       shard={"tile_shape": TILE, "devices": "2xP100"})


class TestRectSumWidening:
    def _case(self, dtype_in, pair, fill):
        # Constant image: SAT values grow as fill*(y+1)*(x+1), pushing the
        # bottom-right corners past the wrap point of the accumulator.
        img = np.full((80, 96), fill, dtype=dtype_in)
        run = _sharded(img, pair)
        ref = sat(img, pair=pair, backend="host", shard=False).output
        np.testing.assert_array_equal(run.output, ref)
        return img, run.output

    def test_uint32_sat_near_2_32_spanning_tiles(self):
        img, table = self._case(np.uint32, "32u32u", 600_000)
        # Corner magnitudes approach 80*96*6e5 ≈ 4.6e9 > 2^32: the SAT
        # itself wraps — and the widened combination must still be exact.
        assert int(table.max()) < 2**32 and int(img.sum()) > 2**32
        # Rectangle spanning all four tiles around the (32, 32) corner.
        y0, x0, y1, x1 = 20, 20, 50, 50
        got = rect_sums(table, np.asarray([y0]), np.asarray([x0]),
                        np.asarray([y1]), np.asarray([x1]))
        assert got.dtype == np.int64
        exact = (y1 - y0 + 1) * (x1 - x0 + 1) * 600_000
        # The unwidened combination would be off by a multiple of 2^32.
        assert int(got[0]) == exact
        assert rect_sum(table, y0, x0, y1, x1) == exact

    def test_int32_sat_near_2_31_spanning_tiles(self):
        _, table = self._case(np.int32, "32s32s", 300_000)
        assert int(table.view(np.uint32).max()) > 2**31  # wrapped negative
        y0, x0, y1, x1 = 30, 30, 33, 33           # 4x4 straddling 4 tiles
        assert rect_sum(table, y0, x0, y1, x1) == 16 * 300_000
        got = rect_sums(table, np.asarray([y0]), np.asarray([x0]),
                        np.asarray([y1]), np.asarray([x1]))
        assert int(got[0]) == 16 * 300_000

    def test_rect_grid_sweep_matches_host_helper(self):
        """Dense sweep of rectangles whose corners land in different
        tiles: every sum equals the helper on the host reference table,
        and the image's own sum over the rectangle."""
        rng = np.random.default_rng(2)
        img = rng.integers(0, 2**16, size=(70, 90)).astype(np.uint32)
        table = _sharded(img, "32u32u").output
        ref = sat(img, pair="32u32u", backend="host", shard=False).output
        y0 = rng.integers(0, 60, size=64)
        x0 = rng.integers(0, 80, size=64)
        y1 = y0 + rng.integers(0, 69 - y0 + 1)
        x1 = x0 + rng.integers(0, 89 - x0 + 1)
        got = rect_sums(table, y0, x0, y1, x1)
        np.testing.assert_array_equal(got, rect_sums(ref, y0, x0, y1, x1))
        np.testing.assert_array_equal(
            got, [int(img[a:c + 1, b:d + 1].sum(dtype=np.int64))
                  for a, b, c, d in zip(y0, x0, y1, x1)])

    def test_row_zero_and_col_zero_edges(self):
        """y0 == 0 / x0 == 0 rectangles: the zero-corner paths, at large
        magnitudes."""
        img, table = self._case(np.uint32, "32u32u", 500_000)
        rects = [(0, 0, 79, 95), (0, 40, 79, 70), (40, 0, 70, 95),
                 (0, 0, 0, 0)]
        for (y0, x0, y1, x1) in rects:
            exact = int(img[y0:y1 + 1, x0:x1 + 1].sum(dtype=np.int64))
            assert rect_sum(table, y0, x0, y1, x1) == exact
        y0, x0, y1, x1 = (np.asarray(v) for v in zip(*rects))
        np.testing.assert_array_equal(
            rect_sums(table, y0, x0, y1, x1),
            [rect_sum(table, *r) for r in rects])

    def test_float_sats_do_not_widen(self):
        rng = np.random.default_rng(3)
        img = rng.random((40, 40)).astype(np.float32)
        table = _sharded(img, "32f32f").output
        out = rect_sums(table, np.asarray([0]), np.asarray([0]),
                        np.asarray([39]), np.asarray([39]))
        assert out.dtype == np.float32

    def test_invalid_rectangles_rejected(self):
        img = np.ones((40, 40), dtype=np.uint8)
        table = _sharded(img, "8u32s").output
        with pytest.raises(ValueError, match="empty rectangle"):
            rect_sum(table, 10, 10, 5, 20)
        with pytest.raises(ValueError, match="out of range"):
            rect_sum(table, 0, 0, 40, 10)
        with pytest.raises(ValueError, match="out of range"):
            rect_sums(table, np.asarray([0]), np.asarray([-1]),
                      np.asarray([5]), np.asarray([5]))
