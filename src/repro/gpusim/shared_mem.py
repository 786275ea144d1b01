"""Shared-memory (scratchpad) model with 32-bank conflict accounting.

Shared memory is divided into 32 banks of 4-byte words (Sec. II-B2); a warp
access that maps two *different* words to the same bank is replayed, which
is exactly why Alg. 5 stages the register matrix through a ``32 x 33``
buffer: with stride 32 a column read hits one bank 32 times (32-way
conflict), with stride 33 the column spreads across all banks.

The model counts, per warp access instruction:

``transactions = max over banks of (# distinct words touched in that bank)``

(broadcasts of the same word count once, like the hardware's broadcast
path), multiplied by ``itemsize / 4`` for 8-byte element types which the
hardware serves in two phases.  Replays beyond the first transaction are
also tallied separately so the stride-32 vs stride-33 ablation can report
conflict counts directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

import numpy as np

from .regfile import RegArray, RegBank

if TYPE_CHECKING:  # pragma: no cover
    from .block import KernelContext

__all__ = [
    "SharedMem",
    "bank_transactions",
    "bank_conflict_degrees",
    "word_access_phases",
    "clear_bank_pattern_cache",
]

Index = Union[int, np.ndarray]

#: Memoised ``(transactions, replays)`` per exact access pattern.  Kernels
#: replay the same few staging patterns thousands of times (every strip,
#: block row and pass reuse them), so caching the full pattern is both
#: exact — same input, same output — and a large constant-factor win.
_BANK_PATTERN_CACHE: dict = {}
_BANK_PATTERN_CACHE_MAX = 4096


def clear_bank_pattern_cache() -> None:
    """Drop the memoised shared-memory conflict analyses (for tests)."""
    _BANK_PATTERN_CACHE.clear()


def bank_conflict_degrees(
    words: np.ndarray,
    lane_mask: Optional[np.ndarray],
    n_banks: int = 32,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-warp conflict degree of a batch of warp accesses.

    The degree is the maximum number of *distinct* words one bank must
    serve for that warp's access (1 = conflict-free, broadcasts of the
    same word count once).  Returns ``(degree, warp_active)`` arrays over
    the flattened leading axes of ``words``.
    """
    words = np.asarray(words, dtype=np.int64)
    if words.ndim == 0:
        words = words.reshape(1)
    if lane_mask is None:
        active = np.ones(words.shape, dtype=bool)
    else:
        active = np.broadcast_to(lane_mask, words.shape)

    flat_w = words.reshape(-1, words.shape[-1])
    flat_a = active.reshape(-1, words.shape[-1])
    n_warps, lanes = flat_w.shape

    big = int(flat_w.max(initial=0)) + 1
    bank = flat_w % n_banks
    key = np.where(flat_a, bank * big + flat_w, -1)
    s = np.sort(key, axis=-1)
    first = np.ones_like(s, dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    distinct = first & (s >= 0)

    bank_sorted = np.where(distinct, s // big, 0)
    warp_ix = np.broadcast_to(np.arange(n_warps)[:, None], s.shape)
    counts = np.bincount(
        (warp_ix * n_banks + bank_sorted)[distinct],
        minlength=n_warps * n_banks,
    ).reshape(n_warps, n_banks)
    degree = counts.max(axis=1)
    warp_active = flat_a.any(axis=1)
    return degree, warp_active


def bank_transactions(
    words: np.ndarray,
    lane_mask: Optional[np.ndarray],
    n_banks: int = 32,
) -> Tuple[float, float]:
    """Count shared-memory transactions for a batch of warp accesses.

    Parameters
    ----------
    words:
        Starting 4-byte word index per lane, shape ``(..., lanes)``; the
        leading axes enumerate warps.
    lane_mask:
        Boolean activity mask broadcastable to ``words`` (``None`` = all
        lanes active).
    n_banks:
        Number of banks (32 on all modern parts).

    Returns
    -------
    (transactions, replays):
        Total transactions across all warps, and the replays beyond one
        transaction per active warp access (the bank-conflict penalty).
    """
    degree, warp_active = bank_conflict_degrees(words, lane_mask, n_banks)
    transactions = float(degree[warp_active].sum())
    replays = float(np.maximum(degree[warp_active] - 1, 0).sum())
    return transactions, replays


def word_access_phases(
    full: np.ndarray,
    mask: Optional[np.ndarray],
    itemsize: int,
):
    """Hardware phases of one warp access as ``(words, lane_mask)`` pairs.

    4-byte elements map one word per lane; sub-word elements share words
    (floor to word granularity); 8-byte elements are served as two
    half-warp phases, each covering both words of 16 lanes.  Used by both
    the conflict accounting and the sanitizer's hazard check so the two
    agree on bank geometry.
    """
    if itemsize == 8:
        w0 = full * 2
        words = np.stack([w0, w0 + 1], axis=-1).reshape(*full.shape[:-1], -1)
        if mask is None:
            m2 = None
        else:
            m2 = np.repeat(np.broadcast_to(mask, full.shape), 2, axis=-1)
        half = words.shape[-1] // 2
        return [
            (words[..., :half], None if m2 is None else m2[..., :half]),
            (words[..., half:], None if m2 is None else m2[..., half:]),
        ]
    if itemsize == 4:
        return [(full, mask)]
    # Sub-word (8/16-bit) accesses share words; word granularity.
    return [((full * itemsize) // 4, mask)]


class SharedMem:
    """A per-block shared-memory array, vectorised across all blocks.

    ``shape`` is the logical per-block shape (e.g. ``(S, 32, 33)`` for the
    BRLT staging buffer of Alg. 5); storage adds a leading block axis.
    Element offsets are computed with C-order strides so the bank pattern
    matches what the CUDA declaration ``__shared__ T sMem[S][32][33]``
    would produce.
    """

    def __init__(self, ctx: "KernelContext", shape: Sequence[int], dtype: np.dtype, name: str):
        self.ctx = ctx
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.name = name
        self.elems = int(np.prod(self.shape))
        self.data = np.zeros((ctx.n_blocks, self.elems), dtype=self.dtype)
        # C-order strides in elements.
        strides = []
        acc = 1
        for s in reversed(self.shape):
            strides.append(acc)
            acc *= s
        self.strides = tuple(reversed(strides))

    @property
    def nbytes_per_block(self) -> int:
        """Shared-memory footprint of this allocation per block, bytes."""
        return self.elems * self.dtype.itemsize

    # ------------------------------------------------------------------
    def _offsets(self, idx: Sequence[Index]) -> np.ndarray:
        """Flat element offset per lane from a multi-dimensional index."""
        if len(idx) != len(self.shape):
            raise IndexError(
                f"{self.name}: expected {len(self.shape)} indices, got {len(idx)}"
            )
        off: np.ndarray = np.zeros((), dtype=np.int64)
        for component, stride in zip(idx, self.strides):
            comp = component.a if isinstance(component, RegArray) else component
            off = off + np.asarray(comp, dtype=np.int64) * stride
        return off

    def _transactions(
        self, full: np.ndarray, mask: Optional[np.ndarray]
    ) -> Tuple[float, float]:
        """Transactions and replays of ONE warp access at offsets ``full``."""
        ctx = self.ctx
        itemsize = self.dtype.itemsize
        banks = ctx.device.shared_mem_banks
        full = np.ascontiguousarray(full)
        key = (
            full.shape,
            full.tobytes(),
            None if mask is None else (mask.shape, np.ascontiguousarray(mask).tobytes()),
            itemsize,
            banks,
        )
        hit = _BANK_PATTERN_CACHE.get(key)
        if hit is not None:
            return hit
        result = self._transactions_uncached(full, mask, itemsize, banks)
        if len(_BANK_PATTERN_CACHE) >= _BANK_PATTERN_CACHE_MAX:
            _BANK_PATTERN_CACHE.clear()
        _BANK_PATTERN_CACHE[key] = result
        return result

    def _transactions_uncached(
        self,
        full: np.ndarray,
        mask: Optional[np.ndarray],
        itemsize: int,
        banks: int,
    ) -> Tuple[float, float]:
        # 8-byte accesses run as two half-warp phases (stride-1 and the
        # BRLT stride-33 stay conflict-free); see word_access_phases.
        trans = 0.0
        replays = 0.0
        for words, m in word_access_phases(full, mask, itemsize):
            t, r = bank_transactions(words, m, banks)
            trans += t
            replays += r
        return trans, replays

    def _apply_account(
        self,
        trans: float,
        replays: float,
        mask: Optional[np.ndarray],
        store: bool,
        dependent: bool,
        repeat: int = 1,
    ) -> None:
        """Record ``repeat`` access instructions of ``trans`` transactions each."""
        ctx = self.ctx
        c = ctx.counters
        if store:
            c.smem_store_transactions += trans * repeat
        else:
            c.smem_load_transactions += trans * repeat
        c.smem_bank_conflict_replays += replays * repeat
        c.smem_bytes += float(ctx.active_lane_count(mask)) * self.dtype.itemsize * repeat
        c.warp_instructions += ctx.active_warp_count(mask) * repeat
        # Independent accesses pipeline: one issue slot on the dependency
        # chain.  A load that feeds the next instruction (``dependent=True``,
        # e.g. the stage reads of a Hillis-Steele shared-memory scan) pays
        # the full micro-benchmarked latency of Sec. V-A.
        ctx._chain(
            (float(ctx.device.shared_mem_latency) if dependent else 1.0) * repeat
        )

    def _account(
        self,
        off: np.ndarray,
        lane_mask: Optional[np.ndarray],
        store: bool,
        dependent: bool = False,
    ) -> None:
        ctx = self.ctx
        if not ctx.record:
            return  # plan replay: counters come from the recorded cold run
        mask = ctx._combine_mask(lane_mask)
        full = ctx.broadcast_full(off)
        trans, replays = self._transactions(full, mask)
        self._apply_account(trans, replays, mask, store, dependent)

    def _account_tile(
        self,
        off0: np.ndarray,
        count: int,
        reg_stride: int,
        lane_mask: Optional[np.ndarray],
        store: bool,
        dependent: bool,
    ) -> None:
        """Account ``count`` accesses at ``off0 + j * reg_stride`` exactly.

        Translating every lane's offset by a constant permutes the banks
        cyclically and keeps distinct words distinct, so the transaction
        and replay counts of access ``j`` equal those of access 0 — one
        analysis covers the whole tile.  The only exception is sub-word
        element types whose per-register byte shift is not word-aligned
        (the floor-to-word mapping is then not a translation); those fall
        back to per-access analysis.
        """
        ctx = self.ctx
        if not ctx.record:
            return
        mask = ctx._combine_mask(lane_mask)
        itemsize = self.dtype.itemsize
        full0 = ctx.broadcast_full(off0)
        if itemsize >= 4 or (reg_stride * itemsize) % 4 == 0:
            trans, replays = self._transactions(full0, mask)
            self._apply_account(trans, replays, mask, store, dependent, repeat=count)
        else:
            for j in range(count):
                trans, replays = self._transactions(full0 + j * reg_stride, mask)
                self._apply_account(trans, replays, mask, store, dependent)

    # ------------------------------------------------------------------
    def store(
        self,
        idx: Sequence[Index],
        value,
        lane_mask: Optional[np.ndarray] = None,
        dependent: bool = False,
    ) -> None:
        """Store ``value`` (RegArray or scalar) at ``idx`` under ``lane_mask``."""
        ctx = self.ctx
        vals = value.a if isinstance(value, RegArray) else np.asarray(value)
        off = self._offsets(idx)
        self._account(off, lane_mask, store=True, dependent=dependent)
        mask = ctx._combine_mask(lane_mask)
        full_off = ctx.broadcast_full(off)
        if ctx.sanitizer is not None:
            ctx.sanitizer.shared_access(self, full_off, mask, store=True)
        full_vals = np.broadcast_to(ctx.broadcast_full(vals), full_off.shape)
        blk = np.broadcast_to(ctx.block_linear_index(), full_off.shape)
        if mask is None:
            self.data[blk.ravel(), full_off.ravel()] = (
                full_vals.astype(self.dtype, copy=False).ravel()
            )
        else:
            m = np.broadcast_to(mask, full_off.shape)
            self.data[blk[m], full_off[m]] = full_vals[m].astype(self.dtype, copy=False)

    def load(
        self,
        idx: Sequence[Index],
        lane_mask: Optional[np.ndarray] = None,
        dependent: bool = False,
    ) -> RegArray:
        """Load a register from ``idx`` under ``lane_mask`` (inactive lanes get 0)."""
        ctx = self.ctx
        off = self._offsets(idx)
        self._account(off, lane_mask, store=False, dependent=dependent)
        mask = ctx._combine_mask(lane_mask)
        full_off = ctx.broadcast_full(off)
        if ctx.sanitizer is not None:
            ctx.sanitizer.shared_access(self, full_off, mask, store=False)
        blk = np.broadcast_to(ctx.block_linear_index(), full_off.shape)
        vals = self.data[blk, full_off]
        maskb = None if mask is None else np.broadcast_to(mask, vals.shape)
        if maskb is not None:
            vals = np.where(maskb, vals, self.dtype.type(0))
        return RegArray(ctx, vals)

    # -- tile-granular (fused register-bank) accesses -------------------
    def store_tile(
        self,
        idx: Sequence[Index],
        bank: RegBank,
        reg_stride: int,
        lane_mask: Optional[np.ndarray] = None,
        dependent: bool = False,
    ) -> None:
        """Store a whole register bank: register ``j`` lands at
        ``idx + j * reg_stride`` (flat elements).

        One numpy dispatch; counters identical to ``bank.nregs`` separate
        :meth:`store` calls.
        """
        count = bank.nregs
        bank._require_init("store")
        ctx = self.ctx
        off0 = self._offsets(idx)
        self._account_tile(off0, count, reg_stride, lane_mask,
                           store=True, dependent=dependent)
        mask = ctx._combine_mask(lane_mask)
        full0 = ctx.broadcast_full(off0)
        blk = np.broadcast_to(ctx.block_linear_index(), full0.shape)
        flat0 = blk.astype(np.int64) * self.elems + full0
        steps = (
            np.arange(count, dtype=np.int64).reshape((count,) + (1,) * flat0.ndim)
            * reg_stride
        )
        if ctx.sanitizer is not None:
            ctx.sanitizer.shared_access(self, full0[None] + steps, mask, store=True)
        # Register axis leads so the raveled scatter writes register 0
        # first, ..., register count-1 last — duplicate addresses resolve
        # exactly like ``count`` sequential ``store`` calls.
        flat = flat0[None] + steps
        vals = np.moveaxis(np.broadcast_to(bank.a, ctx.shape + (count,)), -1, 0)
        dflat = self.data.reshape(-1)
        if mask is None:
            dflat[flat.ravel()] = vals.astype(self.dtype, copy=False).ravel()
        else:
            m = np.broadcast_to(mask[None], flat.shape)
            dflat[flat[m]] = vals[m].astype(self.dtype, copy=False)

    def load_tile(
        self,
        idx: Sequence[Index],
        count: int,
        reg_stride: int,
        lane_mask: Optional[np.ndarray] = None,
        dependent: bool = False,
    ) -> RegBank:
        """Load a ``count``-register bank from ``idx + j * reg_stride``.

        Inactive lanes receive 0, exactly like :meth:`load`; counters match
        ``count`` separate loads.
        """
        ctx = self.ctx
        off0 = self._offsets(idx)
        self._account_tile(off0, count, reg_stride, lane_mask,
                           store=False, dependent=dependent)
        mask = ctx._combine_mask(lane_mask)
        full0 = ctx.broadcast_full(off0)
        if ctx.sanitizer is not None:
            steps = (
                np.arange(count, dtype=np.int64).reshape((count,) + (1,) * full0.ndim)
                * reg_stride
            )
            ctx.sanitizer.shared_access(self, full0[None] + steps, mask, store=False)
        blk = np.broadcast_to(ctx.block_linear_index(), full0.shape)
        flat0 = blk.astype(np.int64) * self.elems + full0
        flat = flat0[..., None] + np.arange(count, dtype=np.int64) * reg_stride
        vals = self.data.reshape(-1)[flat]
        maskb = None if mask is None else np.broadcast_to(mask[..., None], vals.shape)
        if maskb is not None:
            vals = np.where(maskb, vals, self.dtype.type(0))
        return RegBank(ctx, vals)

    def fill(self, value) -> None:
        """Host-style initialisation (not counted; used for test setup)."""
        self.data[...] = value
        if self.ctx.sanitizer is not None:
            self.ctx.sanitizer.shared_fill(self)
