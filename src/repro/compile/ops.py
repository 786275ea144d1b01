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

The serial-scan program has a body for each physical axis:
:func:`chunked_row_scan` along rows and :func:`chunked_col_scan` down
columns.  The column body performs exactly the additions of
transpose, row program, transpose back; only the memory layout differs,
so float serial passes run transpose-free under the executor's layout
propagation (:class:`~repro.compile.lower.CompiledPlan`).

Integer accumulators are exempt from all of the association rules:
wrapping integer addition is associative and commutative, so *any*
summation order is bit-identical.  :func:`int_row_scan` and
:func:`int_col_scan` exploit that — in-place scans with no strip
offsets — and implement both physical axes, so integer plans run
transpose-free too.  Column scans of either kind pick a strided
accumulate or contiguous row-slab adds by the stack's element count
(:data:`COL_ACCUMULATE_MAX`).
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

__all__ = [
    "WARP_SCAN_LOWERED",
    "is_integer_acc",
    "int_row_scan",
    "int_col_scan",
    "COL_ACCUMULATE_MAX",
    "serial_chunk_scan",
    "chunked_row_scan",
    "chunked_col_scan",
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


#: Column scans over stacks of at most this many elements run as one
#: strided ``np.add.accumulate``; larger stacks add contiguous row slabs
#: (31 per 32-row chunk).  Median µs on a 2-vCPU host, accumulate /
#: slabs, for the float32 serial column body and int32 :func:`int_col_scan`:
#:
#: ======================  ============  ============
#: stack (elements)        float32       int32
#: ======================  ============  ============
#: 1 x 128 x 128 (16K)     126 / 230     55 / 187
#: 1 x 224 x 224 (49K)     305 / 279     107 / 224
#: 4 x 128 x 128 (64K)     418 / 345     213 / 274
#: 2 x 224 x 224 (98K)     593 / 396     285 / 310
#: 8 x 128 x 128 (128K)    800 / 496     428 / 372
#: 1 x 1024 x 1024 (1M)    7903 / 2402   11013 / 1492
#: ======================  ============  ============
#:
#: Floats cross over near 50K elements and integers near 100K-130K; at
#: 64K each side stays within about a third of its faster form.
COL_ACCUMULATE_MAX = 1 << 16


def _scan_chunks_down(s: np.ndarray) -> np.ndarray:
    """Alg. 2 down every 32-row chunk of a ``(..., nc, 32, W)`` view, in
    place.  Each row adds the running sum above it (running sum first,
    as in ``np.add.accumulate``), so both forms add the same operands in
    the same order."""
    if s.size <= COL_ACCUMULATE_MAX:
        return np.add.accumulate(s, axis=-2, dtype=s.dtype, out=s)
    for i in range(1, 32):
        np.add(s[..., i - 1, :], s[..., i, :], out=s[..., i, :])
    return s


def int_col_scan(x: np.ndarray) -> np.ndarray:
    """Whole-column inclusive scan down axis -2 of a stack, in place.

    Integer-only, like :func:`int_row_scan`.  A small stack is one
    strided accumulate.  A large one scans each 32-row chunk with row-slab
    adds, then adds every chunk the running total of the chunks above it
    in one broadcast add: another association, exact because wrapping
    addition is associative.  Large stacks need ``H % 32 == 0``, as every
    padded stack has.
    """
    if x.size <= COL_ACCUMULATE_MAX:
        return np.add.accumulate(x, axis=-2, dtype=x.dtype, out=x)
    lead, (h, w) = x.shape[:-2], x.shape[-2:]
    s = _scan_chunks_down(x.reshape(lead + (h // 32, 32, w)))
    above = np.add.accumulate(s[..., :-1, 31, :], axis=-2, dtype=x.dtype)
    np.add(s[..., 1:, :, :], above[..., None, :], out=s[..., 1:, :, :])
    return s.reshape(x.shape)


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
    """Alg. 2 on a ``(..., 32)`` chunk, in place: ``np.add.accumulate`` is
    defined sequentially, bit-identical to the per-register loop.  The
    dtype is pinned — accumulate would otherwise widen sub-platform ints."""
    return np.add.accumulate(x, axis=-1, dtype=x.dtype, out=x)


#: Lane-wise warp-scan emulators on ``(..., 32)`` arrays, keyed by the
#: same names as :data:`repro.scan.WARP_SCANS`.
WARP_SCAN_LOWERED: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "kogge_stone": kogge_stone_lowered,
    "ladner_fischer": ladner_fischer_lowered,
    "brent_kung": brent_kung_lowered,
    "han_carlson": han_carlson_lowered,
}


def _strip_offsets(totals: np.ndarray, wpb: int) -> np.ndarray:
    """The Fig.-3c offset term of every chunk, from the per-chunk totals
    along the last axis, walked in strips of ``wpb`` chunks.

    Offsets are the serial left-associated prefix of the chunk totals
    within each strip; the first chunk's offset is a literal +0.0; `off +
    carry` is a real addition even when zero (it flushes -0.0 exactly as
    the kernels).
    """
    lead = totals.shape[:-1]
    nc = totals.shape[-1]
    offterm = np.empty_like(totals)
    carry = np.zeros(lead, dtype=totals.dtype)
    for k0 in range(0, nc, wpb):
        m = min(wpb, nc - k0)
        inc = np.add.accumulate(totals[..., k0:k0 + m], axis=-1,
                                dtype=totals.dtype)
        off = np.empty(lead + (m,), dtype=totals.dtype)
        off[..., 0] = 0
        off[..., 1:] = inc[..., : m - 1]
        offterm[..., k0:k0 + m] = off + carry[..., None]
        carry = carry + inc[..., m - 1]
    return offterm


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
    # The final `data + off` is a real addition even when zero.  ``s`` is
    # the scanned stack or a fresh array, so it lands in place.
    np.add(s, _strip_offsets(s[..., 31], wpb)[..., None], out=s)
    return s.reshape(x.shape)


def chunked_col_scan(x: np.ndarray, wpb: int) -> np.ndarray:
    """:func:`chunked_row_scan` with :func:`serial_chunk_scan`, run down
    axis -2 of ``x`` in place (``H % 32 == 0``).

    It performs exactly the additions of ``transpose_scatter``, the row
    program, ``transpose_scatter``: the same operands in the same order,
    the same strip walk sized by the recorded ``wpb``, the same literal
    +0.0 offsets.  Only the layout differs — chunks run down 32-row
    blocks and the offsets broadcast along contiguous rows — so float
    outputs are bit-identical and no transpose is materialised.
    """
    lead, (h, w) = x.shape[:-2], x.shape[-2:]
    s = _scan_chunks_down(x.reshape(lead + (h // 32, 32, w)))
    offterm = _strip_offsets(np.moveaxis(s[..., 31, :], -2, -1), wpb)
    np.add(s, np.moveaxis(offterm, -1, -2)[..., None, :], out=s)
    return s.reshape(x.shape)


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
