"""Alg. 2 — the intra-thread serial scan.

A naive serial scan "performed by a single thread" is the least efficient
way to scan one vector (Sec. III-C1), but it is the paper's key weapon for
the *second* dimension of a SAT: after the BRLT transpose every thread
holds one logical row in its 32 registers, so the row prefix sum is 31
dependent additions with **zero** inter-thread communication and zero
thread divergence (Sec. V-B3, ``N_scan_col_stage = C - 1 = 31``,
``L_scan_col = 31 * 6 = 186`` clocks on P100).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..gpusim.block import KernelContext
from ..gpusim.regfile import RegArray, RegBank

__all__ = ["serial_scan_registers", "serial_scan_bank"]


def serial_scan_registers(
    ctx: KernelContext, regs: List[RegArray], carry: Optional[RegArray] = None
) -> List[RegArray]:
    """Inclusive scan across a thread's register array (Alg. 2).

    ``regs[i]`` plays the role of ``V[i]``; every lane of every warp runs
    its own independent serial scan, which is exactly the SIMT execution
    the paper exploits.  An optional ``carry`` register (the running total
    from the previous tile strip) is added to the first element.

    Returns a new register list; ``N-1`` additions per thread (plus one
    for the carry).
    """
    out: List[RegArray] = list(regs)
    if carry is not None:
        out[0] = out[0] + carry
    for i in range(1, len(out)):
        out[i] = out[i] + out[i - 1]
    return out


def serial_scan_bank(
    ctx: KernelContext, bank: RegBank, carry: Optional[RegArray] = None
) -> RegBank:
    """Fused Alg. 2 over a whole register bank (one numpy dispatch).

    ``np.add.accumulate`` is defined sequentially (``r[i] = r[i-1] + a[i]``),
    so the result is bit-identical to the per-register loop of
    :func:`serial_scan_registers`, and ``N - 1`` adds per thread are
    counted exactly as the loop would have.
    """
    a = bank.a
    if carry is not None:
        rhs = carry.a[..., None] if isinstance(carry, RegArray) else carry
        first = a[..., :1] + rhs
        ctx._count_alu("adds", first.dtype)
        a = np.concatenate([first, a[..., 1:]], axis=-1)
    out = np.add.accumulate(a, axis=-1)
    ctx._count_alu("adds", out.dtype, repeat=bank.nregs - 1)
    return RegBank(ctx, out)
