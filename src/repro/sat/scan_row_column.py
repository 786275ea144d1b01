"""Sec. IV-C — the Register-based ScanRowColumn algorithm.

Two *different* kernels, no transpose anywhere:

* **ScanRow** (Sec. IV-C1, Fig. 4): one warp per matrix row.  Each thread
  caches ``C = 32`` elements, so a warp covers 1024 consecutive row
  elements per step; every 32-element chunk is scanned with a parallel
  warp-scan, and the chunk's last value is carried into the next chunk's
  first lane through a shuffle.
* **ScanColumn** (Sec. IV-C2): blocks of 32x32 threads walk 32-column
  stripes downwards.  Lanes map to adjacent columns, so the loads stay
  coalesced while every thread runs the *serial* scan down its column —
  the orientation where the serial scan is "perfect" (Sec. V-B3).  Warp
  partial sums are aggregated with the Fig.-3c shared-memory fix-up and
  carried across 1024-row bands.

Fig. 8 plots both kernels individually; ``2 * T_BRLT-ScanRow <
T_ScanRow + T_ScanColumn`` (Sec. VI-D item 2) is what justifies BRLT.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..dtypes import parse_pair
from ..exec.config import resolve_execution
from ..exec.registry import KernelSpec, PassSpec, get_backend, register_kernel_spec
from ..gpusim.global_mem import GlobalArray
from ..obs.trace import current_tracer, kernel_phase
from ..scan import WARP_SCANS
from ..scan.serial import serial_scan_bank
from .common import SatRun, block_threads
from .partial_sum import alloc_partial_sum_smem, block_prefix_offsets

__all__ = [
    "scanrow_kernel",
    "scancolumn_kernel",
    "scanrow_pass",
    "scancolumn_pass",
    "sat_scan_row_column",
    "SPEC",
]


def scanrow_kernel(ctx, src: GlobalArray, dst: GlobalArray, scan_name: str = "kogge_stone"):
    """Row-prefix kernel: one warp per row, 32-element chunks with carry."""
    tr = current_tracer()
    h, w = src.shape
    acc = dst.dtype
    warp_scan = WARP_SCANS[scan_name]
    lane = ctx.lane_id()
    wid = ctx.warp_id()
    by = ctx.block_idx("y")
    row = by * ctx.warps_per_block + wid

    n_chunks = w // 32
    carry = ctx.const(0, acc)
    c = 0
    while c < n_chunks:
        # Cache up to C=32 chunks (1024 elements per warp) in registers.
        batch = min(32, n_chunks - c)
        # Tile load/store; the scan-and-carry chain stays a per-register
        # loop — the carry makes it inherently serial.
        with kernel_phase(tr, ctx, "load"):
            bank = src.load_tile(
                ctx, row, c * 32 + lane, count=batch, reg_stride=32
            ).astype(acc)
        with kernel_phase(tr, ctx, "scan_carry"):
            for j in range(batch):
                # Inject the running carry into lane 0; the scan propagates it.
                r = bank.reg(j).add_where(lane == 0, carry)
                r = warp_scan(ctx, r)
                bank.set_reg(j, r)
                carry = ctx.shfl(r, 31)
        with kernel_phase(tr, ctx, "store"):
            dst.store_tile(ctx, row, c * 32 + lane, bank=bank, reg_stride=32)
        c += batch


def scancolumn_kernel(ctx, src: GlobalArray, dst: GlobalArray):
    """Column-prefix kernel: 32-column stripes, serial scan per thread."""
    tr = current_tracer()
    h, w = src.shape
    acc = dst.dtype
    lane = ctx.lane_id()
    wid = ctx.warp_id()
    bx = ctx.block_idx("x")
    col = bx * 32 + lane

    smem_p = alloc_partial_sum_smem(ctx, acc)
    band_h = ctx.warps_per_block * 32
    n_bands = (h + band_h - 1) // band_h
    carry = ctx.const(0, acc)

    for band in range(n_bands):
        row0 = band * band_h + wid * 32
        partial = (band + 1) * band_h > h
        scope = ctx.only_warps(row0 < h) if partial else nullcontext()
        with scope:
            # Coalesced tile load: lanes walk adjacent columns.
            with kernel_phase(tr, ctx, "load"):
                bank = src.load_tile(
                    ctx, row0, col, count=32, reg_stride=src.elem_stride(0)
                ).astype(acc)
            # Serial scan straight down the column (Alg. 2).
            with kernel_phase(tr, ctx, "scan"):
                bank = serial_scan_bank(ctx, bank)
            # Cross-warp fix-up within the band + running band carry.
            with kernel_phase(tr, ctx, "offsets"):
                ctx.syncthreads()
                offs, total = block_prefix_offsets(ctx, bank.reg(31), smem_p)
                offs = offs + carry
                bank = bank + offs
                carry = carry + total
            with kernel_phase(tr, ctx, "store"):
                dst.store_tile(ctx, row0, col, bank=bank,
                               reg_stride=dst.elem_stride(0))
        if band + 1 < n_bands:
            ctx.syncthreads()


def _scanrow_geometry(h, w, acc, device):
    # One warp per row; h is padded to a multiple of 32, so wpb divides h.
    wpb = min(block_threads(acc, device) // 32, h)
    return (1, (h + wpb - 1) // wpb, 1), (wpb * 32, 1, 1)


def _scancolumn_geometry(h, w, acc, device):
    # One block per 32-column stripe, warps tiling 32-row bands down it.
    wpb = min(block_threads(acc, device) // 32, max(1, h // 32))
    return (w // 32, 1, 1), (32, wpb, 1)


def _lower_scanrow(stats, tp, opts):
    # The carry flows *through* the warp scan (injected at lane 0, read
    # back from lane 31), so chunks are sequential; each chunk is one
    # vectorised whole-grid scan over every row at once.  For integer
    # accumulators the carry chain is just a continued sum, so the pass
    # reduces to one whole-row accumulate.
    from ..compile.lower import CompileError, LoweredPass
    from ..compile.ops import (WARP_SCAN_LOWERED, carry_through_row_scan,
                               int_col_scan, int_row_scan, is_integer_acc)

    if is_integer_acc(tp.output.np_dtype):
        return LoweredPass(rows=int_row_scan, cols=int_col_scan)
    scan = WARP_SCAN_LOWERED.get(opts.get("scan", "kogge_stone"))
    if scan is None:
        raise CompileError(f"no lowered warp scan for {opts.get('scan')!r}")
    return LoweredPass(rows=lambda stack: carry_through_row_scan(stack, scan))


def _lower_scancolumn(stats, tp, opts):
    # Serial scans down 32-row chunks with Fig.-3c band offsets sized by
    # the recorded warps-per-block — the row program on the column axis
    # (col_major).  ScanRow stores untransposed, so this pass always
    # scans axis 1 directly, transpose-free for every dtype pair.
    from ..compile.lower import LoweredPass
    from ..compile.ops import (chunked_col_scan, int_col_scan, int_row_scan,
                               is_integer_acc)

    if is_integer_acc(tp.output.np_dtype):
        return LoweredPass(rows=int_row_scan, cols=int_col_scan,
                           col_major=True)
    wpb = int(np.prod(stats.block)) // 32
    return LoweredPass(cols=lambda stack: chunked_col_scan(stack, wpb),
                       col_major=True)


SPEC = register_kernel_spec(
    KernelSpec(
        algorithm="scan_row_column",
        pad=(32, 32),
        passes=(
            # ScanRow is row-parallel over grid y; ScanColumn is
            # stripe-parallel over grid x.
            PassSpec(
                name="ScanRow",
                kernel=scanrow_kernel,
                geometry=_scanrow_geometry,
                extra_args=lambda o: (o.get("scan", "kogge_stone"),),
                host=lambda a: np.cumsum(a, axis=1, dtype=a.dtype),
                grid_axis="y",
                transposed=False,
                lower=_lower_scanrow,
            ),
            PassSpec(
                name="ScanColumn",
                kernel=scancolumn_kernel,
                geometry=_scancolumn_geometry,
                extra_args=lambda o: (),
                host=lambda a: np.cumsum(a, axis=0, dtype=a.dtype),
                grid_axis="x",
                transposed=False,
                lower=_lower_scancolumn,
            ),
        ),
    )
)


def scanrow_pass(src: GlobalArray, *, device, acc, name: str = "ScanRow",
                 scan: str = "kogge_stone",
                 sanitize: bool = None, bounds_check: bool = None) -> tuple:
    """Launch the ScanRow kernel; returns ``(dst, stats)``."""
    from ..exec.backends import launch_pass

    return launch_pass(
        SPEC.passes[0], src, acc=acc, device=device, name=name,
        opts={"scan": scan},
        sanitize=sanitize, bounds_check=bounds_check,
    )


def scancolumn_pass(src: GlobalArray, *, device, acc, name: str = "ScanColumn",
                    sanitize: bool = None, bounds_check: bool = None) -> tuple:
    """Launch the ScanColumn kernel; returns ``(dst, stats)``."""
    from ..exec.backends import launch_pass

    return launch_pass(
        SPEC.passes[1], src, acc=acc, device=device, name=name,
        sanitize=sanitize, bounds_check=bounds_check,
    )


def sat_scan_row_column(image: np.ndarray, pair="32f32f", device=None,
                        scan: str = "kogge_stone",
                        sanitize: bool = None, bounds_check: bool = None,
                        backend: str = None, config=None, **_opts) -> SatRun:
    """Full SAT via ScanRow then ScanColumn (Sec. IV-C, Fig. 5)."""
    tp = parse_pair(pair)
    res = resolve_execution(config, sanitize=sanitize,
                            bounds_check=bounds_check, backend=backend,
                            device=device)
    return get_backend(res.backend).run(
        SPEC, image, tp=tp, device=res.device, opts={"scan": scan},
        sanitize=res.sanitize, bounds_check=res.bounds_check,
    )
