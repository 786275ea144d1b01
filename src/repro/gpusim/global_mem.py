"""Global (device DRAM) memory model with a sector-based coalescing model.

Global memory only approaches peak bandwidth under coalesced, unit-stride
access (Sec. II-B2).  The model follows the hardware's sector granularity:
every warp load/store instruction touches some set of 32-byte sectors, and
the memory system moves whole sectors.  A fully coalesced 32-lane float32
load touches ``32 * 4 / 32 = 4`` sectors (128 useful bytes = 128 moved
bytes); a stride-``W`` column walk — NPP's ``scanCol`` geometry from
Table II — touches 32 sectors for the same 128 useful bytes, an 8x
bandwidth waste that is precisely why the paper beats NPP by up to 3.2x.

:class:`GlobalArray` owns the backing numpy array, so simulated kernels
operate on real data and results can be checked bit-exactly against the
serial reference (Alg. 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

import numpy as np

from .regfile import RegArray, RegBank

if TYPE_CHECKING:  # pragma: no cover
    from .block import KernelContext

__all__ = ["GlobalArray", "sector_count", "clear_sector_pattern_cache"]

Index = Union[int, np.ndarray]

#: Memoized per-warp sector counts for the analytic coalescing fast path,
#: keyed on (per-lane byte deltas, base alignment mod sector, activity
#: pattern, itemsize, sector size).  Unbounded on purpose: real kernels
#: produce a handful of access patterns (unit stride, row stride, a few
#: alignments), so the cache stays tiny.
_PATTERN_CACHE: Dict[tuple, float] = {}


def clear_sector_pattern_cache() -> None:
    """Drop the memoized sector-pattern cache (test isolation hook)."""
    _PATTERN_CACHE.clear()


def _sector_count_sorted(
    addrs: np.ndarray,
    active: np.ndarray,
    itemsize: int,
    sector_bytes: int,
) -> float:
    """The general sort-based sector count over ``(warps, lanes)`` rows."""
    first = addrs // sector_bytes
    last = (addrs + itemsize - 1) // sector_bytes
    # Collect both endpoints; for <=4-byte types they coincide.
    sec = np.stack([first, last], axis=-1).reshape(addrs.shape[0], -1)
    act = np.repeat(active, 2, axis=-1)
    sec = np.where(act, sec, -1)

    s = np.sort(sec, axis=-1)
    new = np.ones_like(s, dtype=bool)
    new[:, 1:] = s[:, 1:] != s[:, :-1]
    distinct = new & (s >= 0)
    return float(distinct.sum())


def sector_count(
    byte_addrs: np.ndarray,
    lane_mask: Optional[np.ndarray],
    itemsize: int,
    sector_bytes: int = 32,
) -> float:
    """Number of 32-byte sectors a batch of warp accesses touches.

    ``byte_addrs`` holds the starting byte address per lane, shape
    ``(..., lanes)`` with leading axes enumerating warps.  Elements
    straddling a sector boundary count both sectors (relevant for 64f).

    When every warp presents the same per-lane delta pattern relative to
    its own base address (affine accesses: unit stride, vector loads,
    strided column walks — all of the paper's kernels), the count is
    resolved analytically: warps whose bases share an alignment class mod
    ``sector_bytes`` touch *translated* copies of the same sector set, so
    one representative per alignment class is evaluated (and memoized) and
    multiplied out.  Irregular patterns fall back to the sort-based path.
    Both paths return bit-identical totals.
    """
    addrs = np.asarray(byte_addrs, dtype=np.int64)
    if lane_mask is None:
        active = np.ones(addrs.shape, dtype=bool)
    else:
        active = np.broadcast_to(lane_mask, addrs.shape)

    lanes = addrs.shape[-1]
    flat = addrs.reshape(-1, lanes)
    act = np.ascontiguousarray(active.reshape(-1, lanes))

    # Fully inactive warps contribute zero sectors; drop them so the
    # uniformity check sees only live rows (e.g. partial-strip masking).
    live = act.any(axis=-1)
    if not live.all():
        flat = flat[live]
        act = act[live]
    if flat.shape[0] == 0:
        return 0.0

    base = flat[:, 0]
    delta0 = flat[0] - base[0]
    act0 = act[0]
    if np.array_equal(flat, base[:, None] + delta0) and np.array_equal(
        act, np.broadcast_to(act0, act.shape)
    ):
        # Affine fast path: per-row count depends only on the delta
        # pattern and the base alignment mod sector (translation by a
        # whole number of sectors cannot change how many are touched).
        phases, counts = np.unique(base % sector_bytes, return_counts=True)
        pattern_key = (delta0.tobytes(), act0.tobytes(), int(itemsize), int(sector_bytes))
        total = 0.0
        for phase, n_rows in zip(phases, counts):
            key = (int(phase),) + pattern_key
            per_warp = _PATTERN_CACHE.get(key)
            if per_warp is None:
                rep = int(phase) + delta0
                lo = int(rep.min(initial=0))
                if lo < 0:
                    # Shift by whole sectors so the representative stays
                    # non-negative (the sort path reserves -1 for masked
                    # lanes); the count is translation-invariant.
                    rep = rep + ((-lo + sector_bytes - 1) // sector_bytes) * sector_bytes
                per_warp = _sector_count_sorted(
                    rep.reshape(1, -1), act0.reshape(1, -1), itemsize, sector_bytes
                )
                _PATTERN_CACHE[key] = per_warp
            total += per_warp * int(n_rows)
        return float(total)

    return _sector_count_sorted(flat, act, itemsize, sector_bytes)


class GlobalArray:
    """A device-resident array (the simulator's ``cudaMalloc`` result).

    Kernels address it through 2-D ``(row, col)`` or flat indices; the host
    reads results back with :meth:`to_host`.
    """

    def __init__(self, data: np.ndarray, name: str = "gmem"):
        self.data = np.ascontiguousarray(data)
        self.name = name

    # -- host side -------------------------------------------------------
    @classmethod
    def empty(cls, shape, dtype, name: str = "gmem") -> "GlobalArray":
        return cls(np.zeros(shape, dtype=dtype), name=name)

    def to_host(self, copy: bool = False) -> np.ndarray:
        """Device data as a host array.

        By default this returns the *live* backing array (zero-copy view;
        later kernel stores will show through it).  Pass ``copy=True`` for
        an independent snapshot that is safe to mutate or keep across
        subsequent launches.
        """
        return self.data.copy() if copy else self.data

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def elem_stride(self, axis: int) -> int:
        """Stride of ``axis`` in *elements* (for tile-granular accesses)."""
        return self.data.strides[axis] // self.data.itemsize

    # -- device side -------------------------------------------------------
    def _flat_index(self, ctx: "KernelContext", index: Tuple[Index, ...]) -> np.ndarray:
        if len(index) == 1:
            comp = index[0]
            comp = comp.a if isinstance(comp, RegArray) else comp
            return np.asarray(comp, dtype=np.int64)
        if len(index) != self.data.ndim:
            raise IndexError(
                f"{self.name}: expected {self.data.ndim} indices, got {len(index)}"
            )
        off: np.ndarray = np.zeros((), dtype=np.int64)
        for comp, stride in zip(index, [s // self.data.itemsize for s in self.data.strides]):
            comp = comp.a if isinstance(comp, RegArray) else comp
            off = off + np.asarray(comp, dtype=np.int64) * stride
        return off

    def _maybe_check_bounds(
        self,
        ctx: "KernelContext",
        flat_full: np.ndarray,
        mask: Optional[np.ndarray],
        op: str,
    ) -> None:
        """Raise on out-of-range flat indices when checking is on.

        Off by default: loads clip (returning an arbitrary in-range
        element) and stores wrap through numpy's negative indexing — both
        can mask kernel bugs, which is what ``REPRO_GPUSIM_BOUNDS_CHECK``
        exists to catch.  The sanitizer subsumes this check (raising the
        structured :class:`~repro.gpusim.sanitize.OutOfBoundsError`, still
        an ``IndexError``).
        """
        san = ctx.sanitizer
        bc = ctx.bounds_check
        if bc is None:
            from ..exec.config import resolve_execution

            bc = resolve_execution().bounds_check
        if not bc and san is None:
            return
        if san is not None:
            san.gmem_checked += (
                int(flat_full.size) if mask is None else int(np.count_nonzero(mask))
            )
        oob = (flat_full < 0) | (flat_full >= self.data.size)
        if mask is not None:
            oob = oob & mask
        if not oob.any():
            return
        from .sanitize import OutOfBoundsError

        coords = tuple(int(x) for x in np.argwhere(oob)[0])
        if flat_full.ndim == 4:  # tile access: leading register axis
            where = (
                f"register {coords[0]}, block {coords[1]}, "
                f"warp {coords[2]}, lane {coords[3]}"
            )
            fields = dict(
                register=coords[0], block=coords[1], warp=coords[2], lane=coords[3]
            )
        else:
            where = f"block {coords[0]}, warp {coords[1]}, lane {coords[2]}"
            fields = dict(block=coords[0], warp=coords[1], lane=coords[2])
        raise OutOfBoundsError(
            f"{self.name}: out-of-bounds {op} in kernel {ctx.kernel_name!r} "
            f"({where}): flat index {int(flat_full[coords])} outside "
            f"[0, {self.data.size})",
            check="global-bounds", kernel=ctx.kernel_name, array=self.name,
            address=int(flat_full[coords]), **fields,
        )

    def _account(
        self,
        ctx: "KernelContext",
        flat: np.ndarray,
        mask: Optional[np.ndarray],
        store: bool,
    ) -> None:
        if not ctx.record:
            return  # plan replay: counters come from the recorded cold run
        itemsize = self.data.itemsize
        full = ctx.broadcast_full(flat)
        sectors = sector_count(
            full * itemsize, mask, itemsize, ctx.device.gmem_sector_bytes
        )
        useful = float(ctx.active_lane_count(mask)) * itemsize
        c = ctx.counters
        if store:
            c.gmem_store_sectors += sectors
            c.gmem_store_bytes += useful
        else:
            c.gmem_load_sectors += sectors
            c.gmem_load_bytes += useful
            c.gmem_load_instructions += ctx.active_warp_count(mask)
        c.warp_instructions += ctx.active_warp_count(mask)
        ctx._chain(1.0)  # issue slot; pipeline fill handled by the cost model

    def load(
        self,
        ctx: "KernelContext",
        *index: Index,
        lane_mask: Optional[np.ndarray] = None,
        dependent: bool = False,
    ) -> RegArray:
        """Warp load; inactive lanes receive 0.

        ``dependent=True`` charges the full DRAM latency to the dependency
        chain (used by the pointer-chase micro-benchmark).
        """
        flat = self._flat_index(ctx, index)
        mask = ctx._combine_mask(lane_mask)
        self._account(ctx, flat, mask, store=False)
        if dependent:
            ctx._chain(float(ctx.device.global_latency) - 1.0)
        full = ctx.broadcast_full(flat)
        self._maybe_check_bounds(ctx, full, mask, "load")
        safe = np.clip(full, 0, self.data.size - 1)
        vals = self.data.reshape(-1)[safe]
        maskb = None if mask is None else np.broadcast_to(mask, vals.shape)
        if maskb is not None:
            vals = np.where(maskb, vals, self.data.dtype.type(0))
        return RegArray(ctx, vals)

    def load_vector(
        self,
        ctx: "KernelContext",
        *index: Index,
        count: int,
        stride: int = 1,
        lane_mask: Optional[np.ndarray] = None,
    ):
        """Vector load: ``count`` consecutive elements per lane, ONE instruction.

        Models ``uint4``/``float4`` loads (e.g. OpenCV's
        ``horisontal_pass_8u_shfl`` loading 16 bytes per thread): the
        sector accounting covers the whole footprint but only one load
        instruction is issued.  Returns a list of ``count`` registers.
        """
        flat = self._flat_index(ctx, index)
        mask = ctx._combine_mask(lane_mask)
        itemsize = self.data.itemsize
        full = ctx.broadcast_full(flat)

        # One accounting pass over the union of all element addresses.
        stacked = np.stack([full + k * stride for k in range(count)], axis=-1)
        stacked = stacked.reshape(*full.shape[:-1], -1)
        smask = None if mask is None else np.repeat(
            np.broadcast_to(mask, full.shape), count, axis=-1
        )
        if ctx.record:
            sectors = sector_count(stacked * itemsize, smask, itemsize,
                                   ctx.device.gmem_sector_bytes)
            c = ctx.counters
            c.gmem_load_sectors += sectors
            c.gmem_load_bytes += float(ctx.active_lane_count(mask)) * itemsize * count
            c.gmem_load_instructions += ctx.active_warp_count(mask)
            c.warp_instructions += ctx.active_warp_count(mask)
            ctx._chain(1.0)
        self._maybe_check_bounds(ctx, stacked, smask, "vector load")

        out = []
        data_flat = self.data.reshape(-1)
        for k in range(count):
            idx_k = np.clip(full + k * stride, 0, self.data.size - 1)
            vals = data_flat[idx_k]
            if mask is not None:
                vals = np.where(np.broadcast_to(mask, vals.shape), vals,
                                self.data.dtype.type(0))
            out.append(RegArray(ctx, vals))
        return out

    def store_vector(
        self,
        ctx: "KernelContext",
        *index: Index,
        values,
        stride: int = 1,
        lane_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Vector store: one instruction writing ``len(values)`` elements/lane.

        The ``int4``/``float4`` store counterpart of :meth:`load_vector`.
        """
        count = len(values)
        flat = self._flat_index(ctx, index)
        mask = ctx._combine_mask(lane_mask)
        itemsize = self.data.itemsize
        full = ctx.broadcast_full(flat)

        stacked = np.stack([full + k * stride for k in range(count)], axis=-1)
        stacked = stacked.reshape(*full.shape[:-1], -1)
        smask = None if mask is None else np.repeat(
            np.broadcast_to(mask, full.shape), count, axis=-1
        )
        if ctx.record:
            sectors = sector_count(stacked * itemsize, smask, itemsize,
                                   ctx.device.gmem_sector_bytes)
            c = ctx.counters
            c.gmem_store_sectors += sectors
            c.gmem_store_bytes += float(ctx.active_lane_count(mask)) * itemsize * count
            c.warp_instructions += ctx.active_warp_count(mask)
            ctx._chain(1.0)
        self._maybe_check_bounds(ctx, stacked, smask, "vector store")

        target = self.data.reshape(-1)
        for k, value in enumerate(values):
            vals = value.a if isinstance(value, RegArray) else np.asarray(value)
            full_vals = np.broadcast_to(ctx.broadcast_full(vals), full.shape)
            idx_k = full + k * stride
            if mask is None:
                target[idx_k.ravel()] = full_vals.astype(self.data.dtype, copy=False).ravel()
            else:
                m = np.broadcast_to(mask, full.shape)
                target[idx_k[m]] = full_vals[m].astype(self.data.dtype, copy=False)

    def store(
        self,
        ctx: "KernelContext",
        *index: Index,
        value,
        lane_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Warp store under ``lane_mask``."""
        vals = value.a if isinstance(value, RegArray) else np.asarray(value)
        flat = self._flat_index(ctx, index)
        mask = ctx._combine_mask(lane_mask)
        self._account(ctx, flat, mask, store=True)
        full = ctx.broadcast_full(flat)
        self._maybe_check_bounds(ctx, full, mask, "store")
        full_vals = np.broadcast_to(ctx.broadcast_full(vals), full.shape)
        target = self.data.reshape(-1)
        if mask is None:
            target[full.ravel()] = full_vals.astype(self.data.dtype, copy=False).ravel()
        else:
            m = np.broadcast_to(mask, full.shape)
            target[full[m]] = full_vals[m].astype(self.data.dtype, copy=False)

    # -- tile-granular (fused register-bank) accesses -----------------------
    def _tile_addrs(
        self, ctx: "KernelContext", index, count: int, reg_stride: int,
        mask: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Flat element indices for a ``count``-register tile access.

        ``index`` addresses register 0; register ``j`` reads/writes at
        ``index + j * reg_stride`` (elements).  Returns ``(addrs, mask)``
        with a leading register axis, shape ``(count, B, W, L)``.
        """
        flat = self._flat_index(ctx, index)
        full = ctx.broadcast_full(flat)
        regs = np.arange(count, dtype=np.int64).reshape(count, 1, 1, 1)
        stacked = full[None, ...] + regs * reg_stride
        smask = None if mask is None else np.broadcast_to(mask, stacked.shape)
        return stacked, smask

    def load_tile(
        self,
        ctx: "KernelContext",
        *index: Index,
        count: int,
        reg_stride: int,
        lane_mask: Optional[np.ndarray] = None,
    ) -> RegBank:
        """Load a ``count``-register tile in one dispatch.

        Semantically and in every counter identical to ``count`` separate
        :meth:`load` calls at ``index + j * reg_stride``: per-instruction
        sector accounting (summed in one :func:`sector_count` pass over
        the per-register address rows), ``count`` load instructions, and
        ``count`` issue slots on the dependency chain.
        """
        mask = ctx._combine_mask(lane_mask)
        stacked, smask = self._tile_addrs(ctx, index, count, reg_stride, mask)
        itemsize = self.data.itemsize
        if ctx.record:
            sectors = sector_count(
                stacked * itemsize, smask, itemsize, ctx.device.gmem_sector_bytes
            )
            warps = ctx.active_warp_count(mask)
            c = ctx.counters
            c.gmem_load_sectors += sectors
            c.gmem_load_bytes += float(ctx.active_lane_count(mask)) * itemsize * count
            c.gmem_load_instructions += warps * count
            c.warp_instructions += warps * count
            ctx._chain(float(count))

        self._maybe_check_bounds(ctx, stacked, smask, "load")
        safe = np.clip(stacked, 0, self.data.size - 1)
        vals = self.data.reshape(-1)[safe]
        if mask is not None:
            vals = np.where(smask, vals, self.data.dtype.type(0))
        return RegBank(ctx, np.ascontiguousarray(np.moveaxis(vals, 0, -1)))

    def store_tile(
        self,
        ctx: "KernelContext",
        *index: Index,
        bank: RegBank,
        reg_stride: int,
        lane_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Store a register bank as one tile (fused :meth:`store` x ``count``).

        Register ``j`` lands at ``index + j * reg_stride``; counters match
        ``count`` individual stores exactly.
        """
        count = bank.nregs
        bank._require_init("store")
        mask = ctx._combine_mask(lane_mask)
        stacked, smask = self._tile_addrs(ctx, index, count, reg_stride, mask)
        itemsize = self.data.itemsize
        if ctx.record:
            sectors = sector_count(
                stacked * itemsize, smask, itemsize, ctx.device.gmem_sector_bytes
            )
            warps = ctx.active_warp_count(mask)
            c = ctx.counters
            c.gmem_store_sectors += sectors
            c.gmem_store_bytes += float(ctx.active_lane_count(mask)) * itemsize * count
            c.warp_instructions += warps * count
            ctx._chain(float(count))

        self._maybe_check_bounds(ctx, stacked, smask, "store")
        # Register axis leads, so raveling preserves the ascending-j write
        # order of the per-register loop for any overlapping addresses.
        vals = np.moveaxis(
            np.broadcast_to(bank.a, ctx.shape + (count,)), -1, 0
        )
        target = self.data.reshape(-1)
        if mask is None:
            target[stacked.ravel()] = vals.astype(self.data.dtype, copy=False).ravel()
        else:
            target[stacked[smask]] = vals[smask].astype(self.data.dtype, copy=False)
