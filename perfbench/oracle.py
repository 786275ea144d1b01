"""Reference results every timed operation is checked against.

* Integer pairs: bit-identical to a two-pass NumPy prefix sum that wraps
  at int32, which is what the ``8u32s`` kernels compute.
* Float pairs: bit-identical to the ``gpusim`` result of the same image,
  computed once at set-up (the float association order is the kernel's,
  so no NumPy formula reproduces it).
* Those set-up ``gpusim`` float results themselves: within
  ``FLOAT_RTOL``/``FLOAT_ATOL`` of a float64 reference.
* Rectangle sums and box filters: recomputed from the reference table
  with the same four-corner arithmetic, so they too must match exactly.

A mismatch raises :class:`OracleError`; the workload stops at the first
one and the run reports ``correct: false``.
"""

from __future__ import annotations

import numpy as np

#: Elementwise tolerance of a float32 SAT against its float64 reference,
#: relative to the reference value.  A float32 prefix sum over ``h + w``
#: terms of non-negative inputs stays well inside this for the sizes the
#: workloads use (at most 4096 terms per pass).
FLOAT_RTOL = 1e-4
#: Absolute floor for entries near zero.
FLOAT_ATOL = 1e-3


class OracleError(AssertionError):
    """A timed operation returned a wrong result."""


def int_reference(image: np.ndarray) -> np.ndarray:
    """Inclusive SAT of an integer image, accumulated and wrapped in int32."""
    rows = np.cumsum(image, axis=0, dtype=np.int32)
    return np.cumsum(rows, axis=1, dtype=np.int32)


def float64_reference(image: np.ndarray) -> np.ndarray:
    """Inclusive SAT in float64, for tolerance checks."""
    return np.cumsum(np.cumsum(image.astype(np.float64), axis=0), axis=1)


def _first_mismatch(out: np.ndarray, ref: np.ndarray, bad: np.ndarray) -> str:
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    return f"first at {idx}: got {out[idx]!r}, expected {ref[idx]!r}"


def check_exact(out, ref: np.ndarray, what: str) -> None:
    """Require ``out`` to equal ``ref`` bit for bit (shape, dtype, values)."""
    out = np.asarray(out)
    if out.shape != ref.shape:
        raise OracleError(f"{what}: shape {out.shape}, expected {ref.shape}")
    if out.dtype != ref.dtype:
        raise OracleError(f"{what}: dtype {out.dtype}, expected {ref.dtype}")
    if ref.dtype.kind == "f":
        # Bit identity, so -0.0 vs 0.0 and NaN payloads count as different.
        bits = np.dtype(f"u{ref.dtype.itemsize}")
        bad = out.view(bits) != ref.view(bits)
    else:
        bad = out != ref
    if bad.any():
        raise OracleError(
            f"{what}: {int(bad.sum())} element(s) differ; "
            f"{_first_mismatch(out, ref, bad)}"
        )


def check_close(out, ref64: np.ndarray, what: str) -> None:
    """Require ``out`` within the stated float tolerance of ``ref64``."""
    out = np.asarray(out)
    if out.shape != ref64.shape:
        raise OracleError(f"{what}: shape {out.shape}, expected {ref64.shape}")
    err = np.abs(out.astype(np.float64) - ref64)
    bad = ~(err <= FLOAT_RTOL * np.abs(ref64) + FLOAT_ATOL)
    if bad.any():
        raise OracleError(
            f"{what}: {int(bad.sum())} element(s) outside rtol={FLOAT_RTOL} "
            f"atol={FLOAT_ATOL}; {_first_mismatch(out, ref64, bad)}"
        )


def rect_sums_reference(table: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """Sums over inclusive ``(y0, x0, y1, x1)`` rectangles of a SAT.

    Integer tables are widened to int64 before the four-corner
    combination; float tables combine in their own dtype, in the order
    ``d - b - c + a``.
    """
    y0, x0, y1, x1 = (rects[:, i] for i in range(4))
    widen = table.dtype.kind in "iu" and table.dtype.itemsize <= 4
    dt = np.dtype(np.int64) if widen else table.dtype
    zero = dt.type(0)

    def at(ys, xs, valid):
        vals = table[np.maximum(ys, 0), np.maximum(xs, 0)].astype(dt)
        return np.where(valid, vals, zero)

    d = table[y1, x1].astype(dt)
    b = at(y0 - 1, x1, y0 > 0)
    c = at(y1, x0 - 1, x0 > 0)
    a = at(y0 - 1, x0 - 1, (y0 > 0) & (x0 > 0))
    return d - b - c + a


def box_filter_reference(table: np.ndarray, radius: int) -> np.ndarray:
    """Edge-clamped, area-normalised ``(2r+1)^2`` box filter from a SAT."""
    h, w = table.shape
    ys, xs = np.mgrid[0:h, 0:w]
    y0 = np.maximum(ys - radius, 0).ravel()
    y1 = np.minimum(ys + radius, h - 1).ravel()
    x0 = np.maximum(xs - radius, 0).ravel()
    x1 = np.minimum(xs + radius, w - 1).ravel()
    sums = rect_sums_reference(table, np.stack([y0, x0, y1, x1], axis=1))
    area = (y1 - y0 + 1) * (x1 - x0 + 1)
    return (sums / area).reshape(h, w)
