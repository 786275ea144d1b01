"""Sec. IV-B — the Register-based BRLT-ScanRow algorithm (the fastest).

One generic kernel, called twice (Fig. 3):

1. each warp loads a 32x32 tile into registers (coalesced: lanes walk
   columns);
2. **BRLT** transposes the register matrix (Alg. 5), so each thread now
   holds one matrix *row* in its 32 registers;
3. an **intra-thread serial scan** (Alg. 2) computes the row prefix — 31
   additions, no shuffles, no divergence (Sec. V-B3);
4. per-warp partial sums are aggregated across the block through shared
   memory (Fig. 3c) and carried across 32xBlockSize strips of wide rows;
5. the tile is stored *transposed* and coalesced.

Because the output is the transposed row-prefix matrix, running the same
kernel on it scans the original columns and transposes back: two
identical launches produce the SAT.  This single-kernel generality over
all data types is what Sec. VI-C2 highlights against NPP/OpenCV's
per-type kernel zoo.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..dtypes import parse_pair
from ..exec.config import resolve_execution
from ..exec.registry import KernelSpec, PassSpec, get_backend, register_kernel_spec
from ..gpusim.global_mem import GlobalArray
from ..obs.trace import current_tracer, kernel_phase
from ..scan.serial import serial_scan_bank
from .brlt import alloc_brlt_smem, brlt_transpose_bank
from .common import SatRun, block_threads
from .partial_sum import alloc_partial_sum_smem, block_prefix_offsets

__all__ = ["brlt_scanrow_kernel", "brlt_scanrow_pass", "sat_brlt_scanrow", "SPEC"]


def brlt_scanrow_kernel(ctx, src: GlobalArray, dst: GlobalArray, brlt_stride: int = 33,
                        brlt_barrier: bool = True):
    """The BRLT-ScanRow kernel body (one pass over ``src``).

    ``src`` is ``H x W``; ``dst`` must be ``W x H`` and receives the
    transposed row-prefix matrix.  Each warp's 32x32 tile lives in one
    :class:`~repro.gpusim.regfile.RegBank`.  ``brlt_barrier=False`` drops
    the ``__syncthreads`` between BRLT staging batches — a deliberately
    broken variant the sanitizer self-test must catch.
    """
    tr = current_tracer()
    h, w = src.shape
    acc = dst.dtype
    lane = ctx.lane_id()
    wid = ctx.warp_id()
    by = ctx.block_idx("y")
    row0 = by * 32

    smem_t = alloc_brlt_smem(ctx, acc, stride=brlt_stride)
    smem_p = alloc_partial_sum_smem(ctx, acc)

    strip_w = ctx.warps_per_block * 32
    n_strips = (w + strip_w - 1) // strip_w
    carry = ctx.const(0, acc)

    for strip in range(n_strips):
        col0 = strip * strip_w + wid * 32
        partial = (strip + 1) * strip_w > w
        scope = ctx.only_warps(col0 < w) if partial else nullcontext()
        with scope:
            # 1. coalesced tile load (+ accumulator-type conversion)
            with kernel_phase(tr, ctx, "load"):
                bank = src.load_tile(
                    ctx, row0, col0 + lane, count=32, reg_stride=src.elem_stride(0)
                ).astype(acc)
            # 2. BRLT: thread <- row, register index <- column
            with kernel_phase(tr, ctx, "brlt"):
                bank = brlt_transpose_bank(ctx, bank, smem_t, barrier=brlt_barrier)
            # 3. per-thread serial scan along the 32 registers (Alg. 2)
            with kernel_phase(tr, ctx, "scan"):
                bank = serial_scan_bank(ctx, bank)
            # 4. cross-warp offsets within the strip + the strip carry
            with kernel_phase(tr, ctx, "offsets"):
                ctx.syncthreads()
                offs, total = block_prefix_offsets(ctx, bank.reg(31), smem_p)
                offs = offs + carry
                bank = bank + offs
                carry = carry + total
            # 5. transposed, coalesced store: dst[col, row]
            with kernel_phase(tr, ctx, "store"):
                dst.store_tile(ctx, col0, row0 + lane, bank=bank,
                               reg_stride=dst.elem_stride(0))
        if strip + 1 < n_strips:
            ctx.syncthreads()


def _tile_geometry(h, w, acc, device):
    """Band-parallel launch: one block per 32-row band, a warp per 32-wide
    column strip (Secs. IV-B/IV-C launch-width rule via block_threads)."""
    wpb = min(block_threads(acc, device) // 32, max(1, w // 32))
    return (1, h // 32, 1), (wpb * 32, 1, 1)


def _extra_args(opts):
    return (opts.get("brlt_stride", 33), opts.get("brlt_barrier", True))


def _host_pass(a):
    # Row prefix then transpose — exactly what one kernel pass emits.
    # dtype pinned: NumPy would otherwise widen 32-bit integer cumsums.
    return np.cumsum(a, axis=1, dtype=a.dtype).T


def _lower_pass(stats, tp, opts):
    # Closed-form pass: serial chunk scans with Fig.-3c strip offsets
    # sized by the *recorded* warps-per-block, with a body for each
    # physical axis, so the executor elides both transposes.  Integer
    # accumulators are association-free and lower to whole-axis scans.
    from ..compile.lower import LoweredPass
    from ..compile.ops import (chunked_col_scan, chunked_row_scan,
                               int_col_scan, int_row_scan, is_integer_acc,
                               serial_chunk_scan)

    if is_integer_acc(tp.output.np_dtype):
        return LoweredPass(rows=int_row_scan, cols=int_col_scan)
    wpb = int(np.prod(stats.block)) // 32
    return LoweredPass(
        rows=lambda stack: chunked_row_scan(stack, wpb, serial_chunk_scan),
        cols=lambda stack: chunked_col_scan(stack, wpb))


_PASS = dict(
    kernel=brlt_scanrow_kernel,
    geometry=_tile_geometry,
    extra_args=_extra_args,
    host=_host_pass,
    lower=_lower_pass,
    # Band-parallel over grid y: a stacked batch adds independent 32-row
    # bands.
    grid_axis="y",
    transposed=True,
)

#: The algorithm's complete execution description — geometry, stacking and
#: host semantics declared once; drivers, the batch engine and every
#: backend consume this.
SPEC = register_kernel_spec(
    KernelSpec(
        algorithm="brlt_scanrow",
        pad=(32, 32),
        passes=(
            PassSpec(name="BRLT-ScanRow#1", **_PASS),
            PassSpec(name="BRLT-ScanRow#2", **_PASS),
        ),
    )
)


def brlt_scanrow_pass(
    src: GlobalArray, *, device, acc, name: str, brlt_stride: int = 33,
    brlt_barrier: bool = True, sanitize: bool = None, bounds_check: bool = None,
) -> tuple:
    """Launch one BRLT-ScanRow pass; returns ``(dst, stats)``."""
    from ..exec.backends import launch_pass

    return launch_pass(
        SPEC.passes[0], src, acc=acc, device=device, name=name,
        opts={"brlt_stride": brlt_stride, "brlt_barrier": brlt_barrier},
        sanitize=sanitize, bounds_check=bounds_check,
    )


def sat_brlt_scanrow(image: np.ndarray, pair="32f32f", device=None, brlt_stride: int = 33,
                     brlt_barrier: bool = True,
                     sanitize: bool = None, bounds_check: bool = None,
                     backend: str = None, config=None, **_opts) -> SatRun:
    """Full SAT via two BRLT-ScanRow passes (Sec. IV-B)."""
    tp = parse_pair(pair)
    res = resolve_execution(config, sanitize=sanitize,
                            bounds_check=bounds_check, backend=backend,
                            device=device)
    return get_backend(res.backend).run(
        SPEC, image, tp=tp, device=res.device,
        opts={"brlt_stride": brlt_stride, "brlt_barrier": brlt_barrier},
        sanitize=res.sanitize, bounds_check=res.bounds_check,
    )
