"""The kernel execution context: blocks, warps, predication and counting.

A simulated kernel is a Python function ``kernel(ctx, *args)`` written
against :class:`KernelContext`.  The context executes every block and warp
of the launch simultaneously (warp-synchronous lock-step), holding register
values in arrays of shape ``(n_blocks, warps_per_block, warp_size)``.

Lock-step execution across warps is sound for the paper's kernels because
all cross-warp communication goes through shared memory between
``__syncthreads`` phases; the warp-batching of Alg. 5 (only ``S`` warps
stage at a time) is expressed with :meth:`KernelContext.only_warps`, whose
activity mask both restricts side effects and scales the event counts.

Dependency-chain accounting
---------------------------
The context keeps a block-level critical-path clock: every operation that
at least one warp executes adds its latency (arithmetic, shuffle and
shared-memory ops are dependent in all of the paper's scan kernels; global
loads of independent registers add only an issue slot).  This is the
measured counterpart of the hand-computed latencies of Eqs. 3-5.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .counters import CostCounters
from .device import DeviceSpec
from .regfile import RegArray, RegBank
from .shared_mem import SharedMem
from . import shuffle as _shuffle
from . import warp as _warp

__all__ = ["KernelContext"]

Dim3 = Tuple[int, int, int]

#: Barrier cost charged to the dependency chain per ``__syncthreads``.
SYNC_LATENCY_CLOCKS = 25.0


def _as_dim3(d: Union[int, Sequence[int]]) -> Dim3:
    if isinstance(d, int):
        return (d, 1, 1)
    t = tuple(int(x) for x in d)
    while len(t) < 3:
        t = t + (1,)
    return t  # type: ignore[return-value]


class KernelContext:
    """Execution state for one simulated kernel launch."""

    def __init__(
        self,
        device: DeviceSpec,
        grid: Union[int, Sequence[int]],
        block: Union[int, Sequence[int]],
        counters: Optional[CostCounters] = None,
        record: bool = True,
        bounds_check: Optional[bool] = None,
    ):
        self.device = device
        #: Whether global-memory accesses validate flat indices.  ``None``
        #: means "not pinned at launch": each access resolves through
        #: :mod:`repro.exec`, so directly created contexts honor the same
        #: config/env precedence as ``launch_kernel`` (which always pins a
        #: concrete value here).
        self.bounds_check = bounds_check
        #: Event recording.  ``False`` is the plan-replay fast path of
        #: :func:`~repro.gpusim.launch.replay_kernel`: the kernel's data
        #: movement executes exactly as usual, but counter and
        #: dependency-chain accounting is skipped because the launch reuses
        #: the counters/timings recorded by an identical cold launch.
        self.record = record
        self.grid = _as_dim3(grid)
        self.block = _as_dim3(block)
        self.threads_per_block = int(np.prod(self.block))
        if self.threads_per_block > device.max_threads_per_block:
            raise ValueError(
                f"block of {self.threads_per_block} threads exceeds the device "
                f"limit of {device.max_threads_per_block}"
            )
        if self.threads_per_block % device.warp_size != 0:
            raise ValueError("simulator requires blocks to be a multiple of the warp size")
        self.warp_size = device.warp_size
        self.warps_per_block = self.threads_per_block // device.warp_size
        self.n_blocks = int(np.prod(self.grid))
        #: Full register shape: (blocks, warps, lanes).
        self.shape = (self.n_blocks, self.warps_per_block, self.warp_size)
        self.counters = counters if counters is not None else CostCounters()

        self._lane = _warp.lane_ids(self.warp_size)
        self._warp = _warp.warp_ids(self.warps_per_block)
        self._bx, self._by, self._bz = _warp.block_ids(self.grid)
        self._tx, self._ty, self._tz = _warp.thread_xy(self.block, self.warps_per_block)
        self._blk_linear = np.arange(self.n_blocks, dtype=np.int64).reshape(
            self.n_blocks, 1, 1
        )
        self._active_stack: list = [None]
        self.smem_bytes_per_block = 0
        self._smem_allocs: list = []
        #: Kernel name, set by ``launch_kernel`` (used in debug diagnostics).
        self.kernel_name = "<kernel>"
        #: Optional :class:`~repro.gpusim.sanitize.Sanitizer`, attached by
        #: ``launch_kernel`` when sanitizing; ``None`` costs nothing.
        self.sanitizer = None

    # -- identities ------------------------------------------------------
    def lane_id(self) -> np.ndarray:
        """``laneId`` (raw index array; index math is not counted)."""
        return self._lane

    def warp_id(self) -> np.ndarray:
        """``warpId`` within the block."""
        return self._warp

    def block_idx(self, axis: str = "x") -> np.ndarray:
        """``blockIdx.<axis>`` of shape ``(n_blocks, 1, 1)``."""
        return {"x": self._bx, "y": self._by, "z": self._bz}[axis]

    def thread_idx(self, axis: str = "x") -> np.ndarray:
        """``threadIdx.<axis>`` per (warp, lane)."""
        return {"x": self._tx, "y": self._ty, "z": self._tz}[axis]

    def block_linear_index(self) -> np.ndarray:
        """Linear block id, used to address per-block shared memory."""
        return self._blk_linear

    # -- register construction --------------------------------------------
    def const(self, value, dtype) -> RegArray:
        """A register holding ``value`` in every lane."""
        return RegArray(self, np.full(self.shape, value, dtype=dtype))

    def from_array(self, a: np.ndarray) -> RegArray:
        """Wrap an existing (broadcastable) value array as a register."""
        return RegArray(self, np.asarray(a))

    def broadcast_full(self, a: np.ndarray) -> np.ndarray:
        """Broadcast an index/value array to the full (B, W, L) shape."""
        a = np.asarray(a)
        return np.broadcast_to(a, np.broadcast_shapes(a.shape, self.shape))

    # -- predication -------------------------------------------------------
    @contextmanager
    def only_warps(self, warp_mask: np.ndarray):
        """Restrict execution to warps where ``warp_mask`` holds.

        ``warp_mask`` must broadcast to ``(n_blocks, warps_per_block, 1)``;
        it models branch conditions on ``warpId`` like Alg. 5 line 4.
        Nested scopes intersect.
        """
        mask = np.broadcast_to(
            np.asarray(warp_mask, dtype=bool), (self.n_blocks, self.warps_per_block, 1)
        )
        outer = self._active_stack[-1]
        combined = mask if outer is None else (mask & outer)
        self._active_stack.append(combined)
        try:
            yield
        finally:
            self._active_stack.pop()

    @property
    def active(self) -> Optional[np.ndarray]:
        """Current warp-activity mask (``None`` = all active)."""
        return self._active_stack[-1]

    def _combine_mask(self, lane_mask: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Combine the warp-scope mask with a per-op lane predicate."""
        act = self.active
        if act is None and lane_mask is None:
            return None
        if lane_mask is None:
            return np.broadcast_to(act, self.shape)
        lm = np.broadcast_to(np.asarray(lane_mask, dtype=bool), self.shape)
        return lm if act is None else (lm & np.broadcast_to(act, self.shape))

    def select_active(self, new: RegArray, old: RegArray) -> RegArray:
        """Merge a register write under the current warp scope.

        Inactive warps do not execute instructions, so an assignment like
        ``regs[j] = smem.load(...)`` inside a masked scope must leave their
        registers untouched.  Not counted: the hardware predicate simply
        suppresses the write.
        """
        mask = self.active
        if mask is None:
            return new
        full = np.broadcast_to(mask, np.broadcast_shapes(new.a.shape, old.a.shape, self.shape))
        return RegArray(self, np.where(full, new.a, old.a))

    def select_active_bank(self, new: RegBank, old: RegBank) -> RegBank:
        """Bank-wide :meth:`select_active` (one predicate over all registers)."""
        mask = self.active
        if mask is None:
            return new
        full = np.broadcast_to(
            np.asarray(mask)[..., None],
            np.broadcast_shapes(new.a.shape, old.a.shape),
        )
        valid = RegBank.merge_valid(full, new, old)
        return RegBank(self, np.where(full, new.a, old.a), valid=valid)

    def active_lane_count(self, mask: Optional[np.ndarray]) -> float:
        if mask is None:
            return float(np.prod(self.shape))
        return float(np.count_nonzero(mask))

    def active_warp_count(self, mask: Optional[np.ndarray]) -> float:
        if mask is None:
            return float(self.n_blocks * self.warps_per_block)
        return float(np.count_nonzero(mask.any(axis=-1)))

    # -- event accounting ---------------------------------------------------
    def _chain(self, clocks: float) -> None:
        if not self.record:
            return
        self.counters.chain_clocks += clocks

    def _count_alu(
        self,
        pipeline: str,
        dtype: np.dtype,
        lane_mask: Optional[np.ndarray] = None,
        repeat: int = 1,
    ) -> None:
        """Count ``repeat`` identical ALU instructions under one predicate.

        ``repeat > 1`` is the fused register-bank path: the counter and
        chain totals are exactly ``repeat`` times the single-instruction
        amounts, i.e. bit-identical to issuing the instructions one by one
        (all quantities are integer-valued floats well below 2**53).
        """
        if not self.record:
            return
        mask = self._combine_mask(lane_mask)
        lanes = self.active_lane_count(mask) * repeat
        c = self.counters
        if pipeline in ("adds", "muls") and np.dtype(dtype) == np.float64:
            c.adds_f64 += lanes
            self._chain(self.device.add_latency * repeat)
        elif pipeline == "bools":
            c.bools += lanes
            self._chain(self.device.bool_latency * repeat)
        elif pipeline == "muls":
            c.muls += lanes
            self._chain(self.device.add_latency * repeat)
        else:
            c.adds += lanes
            self._chain(self.device.add_latency * repeat)
        c.warp_instructions += self.active_warp_count(mask) * repeat

    def _count_shuffle(self, repeat: int = 1) -> None:
        if not self.record:
            return
        mask = self._combine_mask(None)
        c = self.counters
        c.shuffles += self.active_lane_count(mask) * repeat
        c.warp_instructions += self.active_warp_count(mask) * repeat
        self._chain(self.device.shuffle_latency * repeat)

    # -- intrinsics -----------------------------------------------------------
    def shfl(self, reg: RegArray, src_lane, width: int = 32) -> RegArray:
        return _shuffle.shfl(self, reg, src_lane, width)

    def shfl_up(self, reg: RegArray, delta: int, width: int = 32) -> RegArray:
        return _shuffle.shfl_up(self, reg, delta, width)

    def shfl_down(self, reg: RegArray, delta: int, width: int = 32) -> RegArray:
        return _shuffle.shfl_down(self, reg, delta, width)

    def shfl_xor(self, reg: RegArray, lane_mask: int, width: int = 32) -> RegArray:
        return _shuffle.shfl_xor(self, reg, lane_mask, width)

    def shfl_up_bank(self, bank: RegBank, delta: int, width: int = 32) -> RegBank:
        """Fused ``shfl_up`` of every register in a bank (counts ``n_regs``)."""
        bank._require_init("shuffle")
        return _shuffle.shfl_up_bank(self, bank, delta, width)

    def syncthreads(self) -> None:
        """Block-wide barrier; in lock-step simulation only the cost matters."""
        if self.record:
            self.counters.sync_count += 1
            self._chain(SYNC_LATENCY_CLOCKS)
        if self.sanitizer is not None:
            self.sanitizer.barrier(self.active)

    def local_regs(self, count: int, dtype) -> RegBank:
        """An uninitialised per-thread register array (``T data[count]``).

        Under the sanitizer the bank tracks per-slot validity and reading
        a never-written register raises; otherwise it is plain zeros.
        """
        return RegBank.uninit(
            self, count, np.dtype(dtype), track=self.sanitizer is not None
        )

    # -- shared memory ---------------------------------------------------------
    def alloc_shared(self, shape: Sequence[int], dtype, name: str = "sMem") -> SharedMem:
        """Allocate per-block shared memory; footprint feeds occupancy."""
        sm = SharedMem(self, shape, np.dtype(dtype), name)
        self.smem_bytes_per_block += sm.nbytes_per_block
        if self.smem_bytes_per_block > self.device.shared_mem_per_block:
            raise MemoryError(
                f"shared memory request {self.smem_bytes_per_block} B exceeds the "
                f"per-block limit {self.device.shared_mem_per_block} B on "
                f"{self.device.name}"
            )
        self._smem_allocs.append(sm)
        if self.sanitizer is not None:
            self.sanitizer.register_shared(sm)
        return sm
