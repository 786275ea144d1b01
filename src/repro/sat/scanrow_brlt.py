"""Sec. IV-A — the Register-based ScanRow-BRLT algorithm.

The register-cache improvement of the classic scan-transpose-scan SAT
([17]): instead of writing the row-prefix matrix to global memory and
launching a separate transpose kernel, the transpose happens *in
registers* (BRLT) before the store, so the row-scan kernel directly emits
the transposed prefix matrix.

Per tile the pipeline is the mirror image of BRLT-ScanRow:

1. coalesced 32x32 tile load into registers;
2. **parallel warp-scan** (Kogge-Stone by default, Ladner-Fischer
   optionally — Sec. VI-C1 finds them equivalent end-to-end) of each of
   the 32 registers along the lanes;
3. BRLT transpose (Alg. 5);
4. the Fig.-3c cross-warp partial-sum fix-up and strip carry;
5. transposed, coalesced store.

Two launches of this one kernel produce the SAT.  Compared with
BRLT-ScanRow, step 2 costs ``N_KoggeStone_add = 4128`` adds and 160
shuffles per warp-tile instead of the serial scan's 992 adds — the
difference Sec. VI-D item 3 measures.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..dtypes import parse_pair
from ..exec.config import resolve_execution
from ..exec.registry import KernelSpec, PassSpec, get_backend, register_kernel_spec
from ..gpusim.global_mem import GlobalArray
from ..gpusim.regfile import RegBank
from ..obs.trace import current_tracer, kernel_phase
from ..scan import WARP_SCANS, WARP_SCANS_BANK
from .brlt import alloc_brlt_smem, brlt_transpose_bank
from .brlt_scanrow import _tile_geometry
from .common import SatRun
from .partial_sum import alloc_partial_sum_smem, block_prefix_offsets

__all__ = ["scanrow_brlt_kernel", "sat_scanrow_brlt", "SPEC"]


def scanrow_brlt_kernel(ctx, src: GlobalArray, dst: GlobalArray,
                        scan_name: str = "kogge_stone"):
    """The ScanRow-BRLT kernel body (one pass over ``src``)."""
    tr = current_tracer()
    h, w = src.shape
    acc = dst.dtype
    warp_scan = WARP_SCANS[scan_name]
    warp_scan_bank = WARP_SCANS_BANK.get(scan_name)
    lane = ctx.lane_id()
    wid = ctx.warp_id()
    by = ctx.block_idx("y")
    row0 = by * 32

    smem_t = alloc_brlt_smem(ctx, acc)
    smem_p = alloc_partial_sum_smem(ctx, acc)

    strip_w = ctx.warps_per_block * 32
    n_strips = (w + strip_w - 1) // strip_w
    carry = ctx.const(0, acc)

    for strip in range(n_strips):
        col0 = strip * strip_w + wid * 32
        partial = (strip + 1) * strip_w > w
        scope = ctx.only_warps(col0 < w) if partial else nullcontext()
        with scope:
            # 1. coalesced tile load
            with kernel_phase(tr, ctx, "load"):
                bank = src.load_tile(
                    ctx, row0, col0 + lane, count=32, reg_stride=src.elem_stride(0)
                ).astype(acc)
            # 2. parallel warp-scan of every register along the lanes
            with kernel_phase(tr, ctx, "warp_scan"):
                if warp_scan_bank is not None:
                    bank = warp_scan_bank(ctx, bank)
                else:
                    # Scans without a bank variant: per-register loop over
                    # bank views — identical counters, slower dispatch.
                    bank = RegBank.from_regs(
                        ctx, [warp_scan(ctx, bank.reg(j)) for j in range(bank.nregs)]
                    )
            # 3. BRLT: thread <- row, register index <- column
            with kernel_phase(tr, ctx, "brlt"):
                bank = brlt_transpose_bank(ctx, bank, smem_t)
            # 4. cross-warp offsets + strip carry (Fig. 3c)
            with kernel_phase(tr, ctx, "offsets"):
                ctx.syncthreads()
                offs, total = block_prefix_offsets(ctx, bank.reg(31), smem_p)
                offs = offs + carry
                bank = bank + offs
                carry = carry + total
            # 5. transposed, coalesced store
            with kernel_phase(tr, ctx, "store"):
                dst.store_tile(ctx, col0, row0 + lane, bank=bank,
                               reg_stride=dst.elem_stride(0))
        if strip + 1 < n_strips:
            ctx.syncthreads()


def _extra_args(opts):
    return (opts.get("scan", "kogge_stone"),)


def _host_pass(a):
    # Row prefix then transpose (the in-register BRLT makes the store
    # transposed); dtype pinned against NumPy's integer-cumsum widening.
    return np.cumsum(a, axis=1, dtype=a.dtype).T


def _lower_pass(stats, tp, opts):
    # Same strip/offset/carry structure as BRLT-ScanRow, but the inner
    # chunk scan is the lowered warp scan the cold run selected.  Integer
    # accumulators reduce to whole-axis accumulates (association-free),
    # with both physical axes so the executor elides the transposes.
    from ..compile.lower import CompileError, LoweredPass
    from ..compile.ops import (WARP_SCAN_LOWERED, chunked_row_scan,
                               int_col_scan, int_row_scan, is_integer_acc)

    if is_integer_acc(tp.output.np_dtype):
        return LoweredPass(rows=int_row_scan, cols=int_col_scan)
    scan = WARP_SCAN_LOWERED.get(opts.get("scan", "kogge_stone"))
    if scan is None:
        raise CompileError(
            f"no lowered warp scan for {opts.get('scan')!r}"
        )
    wpb = int(np.prod(stats.block)) // 32
    return LoweredPass(rows=lambda stack: chunked_row_scan(stack, wpb, scan))


_PASS = dict(
    kernel=scanrow_brlt_kernel,
    geometry=_tile_geometry,
    extra_args=_extra_args,
    host=_host_pass,
    lower=_lower_pass,
    # Same stacking as BRLT-ScanRow: band-parallel over grid y.
    grid_axis="y",
    transposed=True,
)

SPEC = register_kernel_spec(
    KernelSpec(
        algorithm="scanrow_brlt",
        pad=(32, 32),
        passes=(
            PassSpec(name="ScanRow-BRLT#1", **_PASS),
            PassSpec(name="ScanRow-BRLT#2", **_PASS),
        ),
    )
)


def sat_scanrow_brlt(image: np.ndarray, pair="32f32f", device=None,
                     scan: str = "kogge_stone",
                     sanitize: bool = None, bounds_check: bool = None,
                     backend: str = None, config=None, **_opts) -> SatRun:
    """Full SAT via two ScanRow-BRLT passes (Sec. IV-A)."""
    tp = parse_pair(pair)
    res = resolve_execution(config, sanitize=sanitize,
                            bounds_check=bounds_check, backend=backend,
                            device=device)
    return get_backend(res.backend).run(
        SPEC, image, tp=tp, device=res.device, opts={"scan": scan},
        sanitize=res.sanitize, bounds_check=res.bounds_check,
    )
