"""Lowered building blocks: whole-grid NumPy forms of the kernel phases.

Bit-identity is the contract.  Every helper here reproduces the exact
addition *association* of the simulated kernels — which additions happen,
in which order, with which operands — so float outputs match the
interpreter bit for bit (integer outputs match trivially).  The
load-bearing details, matched one-to-one against the kernel bodies:

* Inner chunk scans run within independent 32-element chunks: the serial
  scan is ``np.add.accumulate`` (defined sequentially, identical to the
  register loop of Alg. 2); the parallel warp scans are emulated stage by
  stage as masked shifted adds with the kernels' exact lane predicates.
* The cross-warp fix-up (Fig. 3c) is a *serial left-associated* walk over
  per-chunk totals — not one big ``cumsum`` over the row, which would
  associate float additions differently.
* Zero additions are real: the kernels add a literal ``+0.0`` offset to
  warp 0 / strip 0 (``offs = offs + carry`` with ``carry = const(0)``,
  then ``bank + offs``), which flushes ``-0.0`` data to ``+0.0``.  The
  lowered programs perform the same adds instead of skipping them.
* The transposed store goes through :func:`transpose_scatter`, one
  contiguous copy of the per-image swapped view.

Integer accumulators are exempt from all of the association rules:
wrapping integer addition is associative and commutative, so *any*
summation order is bit-identical.  :func:`int_row_scan` and
:func:`int_col_scan` exploit that — plain whole-axis accumulates, in
place, no chunking — and implement both physical axes so integer plans
run transpose-free under the executor's layout propagation
(:class:`~repro.compile.lower.CompiledPlan`).
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

__all__ = [
    "WARP_SCAN_LOWERED",
    "is_integer_acc",
    "int_row_scan",
    "int_col_scan",
    "serial_chunk_scan",
    "chunked_row_scan",
    "carry_through_row_scan",
    "transpose_scatter",
]


def is_integer_acc(dtype) -> bool:
    """Whether ``dtype`` is an integer accumulator (association-free)."""
    return np.issubdtype(np.dtype(dtype), np.integer)


def int_row_scan(x: np.ndarray) -> np.ndarray:
    """Whole-row inclusive scan along the last axis, in place.

    Only valid for integer accumulators: modular addition is associative,
    so one sequential accumulate is bit-identical to the kernels'
    chunk/offset/carry decomposition regardless of ``wpb``.  The dtype is
    pinned — accumulate would otherwise widen sub-platform ints.
    """
    return np.add.accumulate(x, axis=-1, dtype=x.dtype, out=x)


def int_col_scan(x: np.ndarray) -> np.ndarray:
    """Whole-column inclusive scan down axis 1 of a stack, in place.

    A row-at-a-time running sum: each step adds one full contiguous row
    slab, which vectorises far better than ``np.add.accumulate(axis=1)``
    (strided inner loop) or a transpose round-trip.  Integer-only, like
    :func:`int_row_scan`.
    """
    for h in range(1, x.shape[-2]):
        np.add(x[..., h, :], x[..., h - 1, :], out=x[..., h, :])
    return x

_LANE = np.arange(32)


def _shift_up(x: np.ndarray, d: int) -> np.ndarray:
    """``shfl_up(x, d)`` along the last (lane) axis: lanes below ``d``
    keep their own value (they are masked out by every caller anyway)."""
    v = np.empty_like(x)
    v[..., :d] = x[..., :d]
    v[..., d:] = x[..., :-d]
    return v


def kogge_stone_lowered(x: np.ndarray) -> np.ndarray:
    """Alg. 3: stages ``i = 1..16``, lanes ``>= i`` add the value ``i``
    lanes below (``data + val`` operand order, as ``add_where``)."""
    i = 1
    while i < 32:
        v = _shift_up(x, i)
        x = np.where(_LANE >= i, x + v, x)
        i *= 2
    return x


def ladner_fischer_lowered(x: np.ndarray) -> np.ndarray:
    """Alg. 4: stage ``i`` broadcasts lane ``i-1`` of every ``2i``-wide
    segment to the segment's upper half."""
    i = 1
    while i < 32:
        seg = x.reshape(x.shape[:-1] + (32 // (2 * i), 2 * i))
        v = np.broadcast_to(seg[..., i - 1 : i], seg.shape).reshape(x.shape)
        x = np.where((_LANE & (2 * i - 1)) >= i, x + v, x)
        i *= 2
    return x


def brent_kung_lowered(x: np.ndarray) -> np.ndarray:
    """Brent-Kung: power-of-two up-sweep, inclusive down-sweep."""
    d = 1
    while d < 32:
        v = _shift_up(x, d)
        x = np.where((_LANE & (2 * d - 1)) == (2 * d - 1), x + v, x)
        d *= 2
    d = 8
    while d >= 1:
        v = _shift_up(x, d)
        x = np.where(((_LANE & (2 * d - 1)) == (d - 1)) & (_LANE >= d), x + v, x)
        d //= 2
    return x


def han_carlson_lowered(x: np.ndarray) -> np.ndarray:
    """Han-Carlson: pair, Kogge-Stone over odd lanes, even fix-up."""
    odd = (_LANE & 1) == 1
    x = np.where(odd, x + _shift_up(x, 1), x)
    d = 2
    while d < 32:
        x = np.where(odd & (_LANE >= d), x + _shift_up(x, d), x)
        d *= 2
    return np.where((~odd) & (_LANE >= 1), x + _shift_up(x, 1), x)


def serial_chunk_scan(x: np.ndarray) -> np.ndarray:
    """Alg. 2 on a ``(..., 32)`` chunk: ``np.add.accumulate`` is defined
    sequentially, bit-identical to the per-register loop.  The dtype is
    pinned — accumulate would otherwise widen sub-platform ints."""
    return np.add.accumulate(x, axis=-1, dtype=x.dtype)


#: Lane-wise warp-scan emulators on ``(..., 32)`` arrays, keyed by the
#: same names as :data:`repro.scan.WARP_SCANS`.
WARP_SCAN_LOWERED: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "kogge_stone": kogge_stone_lowered,
    "ladner_fischer": ladner_fischer_lowered,
    "brent_kung": brent_kung_lowered,
    "han_carlson": han_carlson_lowered,
}


def chunked_row_scan(x: np.ndarray, wpb: int,
                     inner: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The tile-scan + Fig.-3c offsets + strip-carry program along the
    last axis (BRLT-ScanRow / ScanRow-BRLT / ScanColumn structure).

    ``x`` is ``(..., W)`` in the accumulator dtype with ``W % 32 == 0``;
    ``wpb`` is the recorded warps-per-block (the strip width in 32-wide
    chunks); ``inner`` scans each independent ``(..., 32)`` chunk.  Every
    leading axis is an independent row — bands and batch stacking
    vectorise for free because blocks along the grid-parallel axis never
    communicate.
    """
    lead = x.shape[:-1]
    nc = x.shape[-1] // 32
    s = inner(np.ascontiguousarray(x).reshape(lead + (nc, 32)))
    totals = s[..., 31]
    # Strip walk: offsets are the serial left-associated prefix of the
    # chunk totals within each strip; the first chunk's offset is a
    # literal +0.0; `off + carry` and the final `data + off` are real
    # additions even when zero (they flush -0.0 exactly as the kernels).
    offterm = np.empty_like(totals)
    carry = np.zeros(lead, dtype=x.dtype)
    for k0 in range(0, nc, wpb):
        m = min(wpb, nc - k0)
        inc = np.add.accumulate(totals[..., k0:k0 + m], axis=-1, dtype=x.dtype)
        off = np.empty(lead + (m,), dtype=x.dtype)
        off[..., 0] = 0
        off[..., 1:] = inc[..., : m - 1]
        offterm[..., k0:k0 + m] = off + carry[..., None]
        carry = carry + inc[..., m - 1]
    return (s + offterm[..., None]).reshape(x.shape)


def carry_through_row_scan(x: np.ndarray,
                           scan: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The ScanRow (Sec. IV-C1) program along the last axis.

    Unlike the strip kernels, the carry is injected into lane 0 *before*
    the warp scan and propagates through it, so chunks are inherently
    sequential; each chunk is still one vectorised whole-grid scan.  The
    lane-0 add happens for chunk 0 too (``carry = const(0)``).
    """
    lead = x.shape[:-1]
    nc = x.shape[-1] // 32
    t = np.ascontiguousarray(x).reshape(lead + (nc, 32))
    out = np.empty_like(t)
    carry = np.zeros(lead, dtype=x.dtype)
    for k in range(nc):
        chunk = t[..., k, :].copy()
        chunk[..., 0] = chunk[..., 0] + carry
        chunk = scan(chunk)
        out[..., k, :] = chunk
        carry = chunk[..., 31]
    return out.reshape(x.shape)


def transpose_scatter(res: np.ndarray) -> np.ndarray:
    """Per-image transposed store of a ``(D, H, W)`` stack -> ``(D, W, H)``.

    The destination index of source element ``(d, r, c)`` is
    ``d*W*H + c*H + r``, a lattice that is injective for every shape, so
    write order cannot matter and the store is one contiguous copy of
    the swapped view.
    """
    return np.ascontiguousarray(res.swapaxes(1, 2))
