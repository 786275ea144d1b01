"""Opt-in kernel sanitizer: the simulator's ``compute-sanitizer``.

The paper's kernels live or die by warp-synchronous choreography — BRLT's
stride-33 staging buffer, ``S = 32/sizeof(T)`` warp batches reusing the
same staging slots, and the barrier placement between transpose and scan
phases (Alg. 5).  A Python lock-step simulator executes those kernels
*correctly even when the modeled CUDA would race*, because every warp
advances one instruction at a time.  This module closes that soundness
gap: with ``REPRO_GPUSIM_SANITIZE=1`` (or ``launch_kernel(...,
sanitize=True)``) every kernel execution is checked for

* **shared-memory data races** — two warps touching the same element
  without an intervening ``__syncthreads`` where at least one access is a
  write, tracked with per-element last-writer/last-reader barrier epochs;
* **reads of uninitialised memory** — shared-memory elements never
  stored (or ``fill``-ed) and register-file slots created by
  :meth:`KernelContext.local_regs` that are consumed before being set;
* **out-of-bounds accesses** — shared-memory offsets outside the
  allocation and global-memory flat indices outside the array (the
  promotion of ``REPRO_GPUSIM_BOUNDS_CHECK`` into this subsystem;
  :class:`OutOfBoundsError` remains an ``IndexError`` for compatibility);
* **barrier divergence** — a warp that skipped a ``__syncthreads`` its
  block-mates executed may never reach a later one (on hardware the
  skipped barrier only completes because the warp logically exited; a
  later arrival means the original control flow deadlocks);
* **pathological bank conflicts** — a warp access serialised
  :data:`BANK_CONFLICT_HAZARD_DEGREE` or more ways (the stride-32 BRLT
  staging mistake) raises instead of silently costing 32 replays.

The unit of synchrony is the *warp*: lanes of one warp execute in
lock-step on real hardware, so intra-warp conflicting accesses are
ordered and never reported.  Cross-warp accesses are only ordered by
``__syncthreads``, which advances a per-block *epoch*; two accesses to
the same element from different warps in the same epoch with a write
involved are a race.

Every violation raises a structured :class:`SanitizerError` carrying the
kernel name, the barrier-interval phase and block/warp/lane/address
coordinates; a :class:`SanitizerReport` summarising what was checked is
attached to the launch's :class:`~repro.gpusim.cost.model.KernelTiming`.

The checks are *observers*: they never touch :class:`CostCounters` or the
dependency chain, so sanitized runs produce bit-identical counters and
timings.  They operate on the broadcast offset arrays that per-register
accesses and :class:`RegBank` tile accesses both present (a tile access
validates its whole access set in one call), so the report counts the
same element accesses whichever form a kernel uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .shared_mem import bank_conflict_degrees, word_access_phases

if TYPE_CHECKING:  # pragma: no cover
    from .block import KernelContext
    from .shared_mem import SharedMem

__all__ = [
    "BANK_CONFLICT_HAZARD_DEGREE",
    "SanitizerError",
    "SharedMemoryRaceError",
    "UninitializedReadError",
    "OutOfBoundsError",
    "BarrierDivergenceError",
    "BankConflictError",
    "SanitizerReport",
    "Sanitizer",
]

#: Conflict degree at which a shared-memory access is reported as a bug
#: rather than a cost.  The paper's kernels are conflict-free by design
#: (stride-33 staging, row-major partial sums); a >=16-way serialisation
#: only appears when the padding trick is dropped (stride-32 staging is
#: 32-way for 4-byte types, 16-way per phase for 8-byte types).
BANK_CONFLICT_HAZARD_DEGREE = 16


class SanitizerError(RuntimeError):
    """A kernel-correctness violation found by the sanitizer.

    Structured fields identify the access: ``kernel`` and ``check`` name
    what failed where; ``block``/``warp``/``lane`` locate the offending
    thread; ``register`` is set for tile (register-bank) accesses;
    ``address`` is the flat element offset within ``array``; ``phase`` is
    the barrier interval (the per-block ``__syncthreads`` epoch) in which
    the violation occurred.
    """

    def __init__(
        self,
        message: str,
        *,
        check: str = "sanitizer",
        kernel: Optional[str] = None,
        array: Optional[str] = None,
        block: Optional[int] = None,
        warp: Optional[int] = None,
        lane: Optional[int] = None,
        register: Optional[int] = None,
        address: Optional[int] = None,
        phase: Optional[int] = None,
    ):
        super().__init__(message)
        self.check = check
        self.kernel = kernel
        self.array = array
        self.block = block
        self.warp = warp
        self.lane = lane
        self.register = register
        self.address = address
        self.phase = phase


class SharedMemoryRaceError(SanitizerError):
    """Cross-warp same-epoch accesses to one element, at least one a write."""


class UninitializedReadError(SanitizerError):
    """Read of a shared-memory element or register slot never written."""


class OutOfBoundsError(SanitizerError, IndexError):
    """Access outside an allocation.

    Subclasses ``IndexError`` so callers of the pre-sanitizer
    ``REPRO_GPUSIM_BOUNDS_CHECK`` debug mode keep working unchanged.
    """


class BarrierDivergenceError(SanitizerError):
    """A warp reached a ``__syncthreads`` it previously skipped."""


class BankConflictError(SanitizerError):
    """A shared-memory access serialised >= the hazard-degree threshold."""


@dataclass(frozen=True)
class SanitizerReport:
    """What one sanitized kernel execution checked (attached to timing).

    All counts are element-granular so per-register and register-bank
    accesses — which issue different numbers of *instructions* for the
    same work — report identical numbers.
    """

    kernel: str
    #: ``__syncthreads`` calls checked for divergence (= epoch advances).
    barriers_checked: int
    #: Active shared-memory element accesses validated.
    smem_accesses_checked: int
    #: Active global-memory element accesses bounds-checked.
    gmem_accesses_checked: int
    #: Register-bank validity checks performed (``local_regs`` tracking).
    reg_reads_checked: int
    #: Shared-memory allocations under race/uninit tracking.
    shared_arrays: int
    #: Always true on a report: violations raise instead of accumulating.
    ok: bool = True


class _SharedState:
    """Per-element access history of one shared-memory allocation."""

    __slots__ = ("init", "writer", "write_epoch", "reader", "read_epoch", "read_multi")

    def __init__(self, n_blocks: int, elems: int):
        n = n_blocks * elems
        #: Ever written (stores or host-style ``fill``)?
        self.init = np.zeros(n, dtype=bool)
        #: Warp id of the last store, and the epoch it happened in.
        self.writer = np.full(n, -1, dtype=np.int64)
        self.write_epoch = np.full(n, -1, dtype=np.int64)
        #: Representative reader warp of the current read epoch, plus a
        #: flag recording whether several distinct warps read it then.
        self.reader = np.full(n, -1, dtype=np.int64)
        self.read_epoch = np.full(n, -1, dtype=np.int64)
        self.read_multi = np.zeros(n, dtype=bool)


class Sanitizer:
    """Per-launch instrumentation state; created by ``launch_kernel``."""

    def __init__(self, ctx: "KernelContext"):
        self.ctx = ctx
        #: Barrier epoch per block: ``__syncthreads`` advances it, and two
        #: cross-warp accesses in the same epoch are unordered.
        self.epoch = np.zeros(ctx.n_blocks, dtype=np.int64)
        #: Sticky flag: warp skipped a barrier its block-mates executed.
        self._missed = np.zeros((ctx.n_blocks, ctx.warps_per_block), dtype=bool)
        self._shared: dict = {}
        self.barriers_checked = 0
        self.smem_checked = 0
        self.gmem_checked = 0
        self.reg_reads_checked = 0

    # ------------------------------------------------------------------
    def report(self) -> SanitizerReport:
        return SanitizerReport(
            kernel=self.ctx.kernel_name,
            barriers_checked=self.barriers_checked,
            smem_accesses_checked=self.smem_checked,
            gmem_accesses_checked=self.gmem_checked,
            reg_reads_checked=self.reg_reads_checked,
            shared_arrays=len(self._shared),
        )

    # -- shared-memory tracking ----------------------------------------
    def register_shared(self, sm: "SharedMem") -> None:
        """Start tracking an allocation (called by ``alloc_shared``)."""
        self._shared[id(sm)] = _SharedState(self.ctx.n_blocks, sm.elems)

    def _state(self, sm: "SharedMem") -> _SharedState:
        st = self._shared.get(id(sm))
        if st is None:  # allocated before the sanitizer attached
            st = _SharedState(self.ctx.n_blocks, sm.elems)
            self._shared[id(sm)] = st
        return st

    def shared_fill(self, sm: "SharedMem") -> None:
        """Host-style initialisation: everything defined, history cleared."""
        st = self._state(sm)
        st.init[:] = True
        st.writer[:] = -1
        st.write_epoch[:] = -1
        st.reader[:] = -1
        st.read_epoch[:] = -1
        st.read_multi[:] = False

    def shared_access(
        self,
        sm: "SharedMem",
        offs: np.ndarray,
        mask: Optional[np.ndarray],
        store: bool,
    ) -> None:
        """Validate one shared-memory access instruction (or fused tile).

        ``offs`` holds per-lane element offsets, shape ``(B, W, L)`` for a
        scalar access or ``(R, B, W, L)`` for a register-bank tile;
        ``mask`` is the combined activity mask broadcastable to ``offs``.
        """
        ctx = self.ctx
        shape = offs.shape
        act = (
            np.ones(shape, dtype=bool)
            if mask is None
            else np.broadcast_to(mask, shape)
        )
        blk = np.broadcast_to(ctx.block_linear_index(), shape)
        op = "store" if store else "load"
        self.smem_checked += int(np.count_nonzero(act))

        # 1. bounds: the offset must fall inside the allocation.
        oob = act & ((offs < 0) | (offs >= sm.elems))
        if oob.any():
            coords = tuple(int(x) for x in np.argwhere(oob)[0])
            where, c = self._describe(coords)
            raise OutOfBoundsError(
                f"{sm.name}: out-of-bounds shared-memory {op} in kernel "
                f"{ctx.kernel_name!r} ({where}): element offset "
                f"{int(offs[coords])} outside [0, {sm.elems})",
                check="shared-bounds", kernel=ctx.kernel_name, array=sm.name,
                address=int(offs[coords]), **c,
            )

        # 2. bank-conflict hazard (the stride-32 staging mistake).
        self._check_bank_hazard(sm, offs, mask, op)

        # 3. races and uninitialised reads, against the epoch history.
        st = self._state(sm)
        warp = np.broadcast_to(ctx.warp_id(), shape)
        key = blk[act].astype(np.int64) * sm.elems + offs[act]
        wrp = warp[act].astype(np.int64)
        if key.size == 0:
            return

        # Collapse to unique (element, warp) pairs; per element keep the
        # min/max accessing warp of THIS instruction (warp ids < 64).
        u = np.unique(key * 64 + wrp)
        uk = u // 64
        uw = u % 64
        first = np.ones(uk.size, dtype=bool)
        first[1:] = uk[1:] != uk[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], uk.size) - 1
        keys = uk[starts]
        minw = uw[starts]
        maxw = uw[ends]
        multi = minw != maxw  # several warps touch the element at once
        eb = self.epoch[keys // sm.elems]

        def _raise_race(bad: np.ndarray, detail_fn) -> None:
            i = int(np.flatnonzero(bad)[0])
            k = int(keys[i])
            b, addr = divmod(k, sm.elems)
            hit = act & (blk == b) & (offs == addr)
            coords = tuple(int(x) for x in np.argwhere(hit)[0])
            where, c = self._describe(coords)
            raise SharedMemoryRaceError(
                f"{sm.name}: shared-memory race on element {addr} in kernel "
                f"{ctx.kernel_name!r} ({where}): {op} in barrier interval "
                f"{int(eb[i])} {detail_fn(i)} — missing __syncthreads?",
                check="shared-race", kernel=ctx.kernel_name, array=sm.name,
                address=addr, phase=int(eb[i]), **c,
            )

        if store:
            waw = (st.write_epoch[keys] == eb) & (st.writer[keys] != minw)
            war = (st.read_epoch[keys] == eb) & (
                st.read_multi[keys] | (st.reader[keys] != minw)
            )
            if multi.any():
                _raise_race(
                    multi,
                    lambda i: (
                        f"collides with a simultaneous store by warp "
                        f"{int(maxw[i])}"
                    ),
                )
            if waw.any():
                _raise_race(
                    waw,
                    lambda i: (
                        f"overwrites a store by warp {int(st.writer[keys[i]])} "
                        f"in the same interval"
                    ),
                )
            if war.any():
                _raise_race(
                    war,
                    lambda i: (
                        f"overwrites an element read by warp "
                        f"{int(st.reader[keys[i]])} in the same interval"
                    ),
                )
            st.writer[keys] = minw
            st.write_epoch[keys] = eb
            st.init[keys] = True
        else:
            un = ~st.init[keys]
            if un.any():
                i = int(np.flatnonzero(un)[0])
                k = int(keys[i])
                b, addr = divmod(k, sm.elems)
                hit = act & (blk == b) & (offs == addr)
                coords = tuple(int(x) for x in np.argwhere(hit)[0])
                where, c = self._describe(coords)
                raise UninitializedReadError(
                    f"{sm.name}: read of uninitialised shared-memory element "
                    f"{addr} in kernel {ctx.kernel_name!r} ({where}): never "
                    f"stored since allocation",
                    check="shared-uninit", kernel=ctx.kernel_name,
                    array=sm.name, address=addr, **c,
                )
            raw = (st.write_epoch[keys] == eb) & ~(
                ~multi & (st.writer[keys] == minw)
            )
            if raw.any():
                _raise_race(
                    raw,
                    lambda i: (
                        f"observes a store by warp {int(st.writer[keys[i]])} "
                        f"in the same interval"
                    ),
                )
            same = st.read_epoch[keys] == eb
            st.read_multi[keys] = np.where(
                same,
                st.read_multi[keys]
                | multi
                | (st.reader[keys] != minw)
                | (st.reader[keys] != maxw),
                multi,
            )
            st.reader[keys] = np.where(same, st.reader[keys], minw)
            st.read_epoch[keys] = eb

    def _check_bank_hazard(
        self,
        sm: "SharedMem",
        offs: np.ndarray,
        mask: Optional[np.ndarray],
        op: str,
    ) -> None:
        """Flag accesses serialised >= the hazard threshold (per phase)."""
        ctx = self.ctx
        banks = ctx.device.shared_mem_banks
        full = np.broadcast_to(offs, np.broadcast_shapes(offs.shape, ctx.shape))
        m = None if mask is None else np.broadcast_to(mask, full.shape)
        for words, pm in word_access_phases(full, m, sm.dtype.itemsize):
            degree, active = bank_conflict_degrees(words, pm, banks)
            bad = active & (degree >= BANK_CONFLICT_HAZARD_DEGREE)
            if not bad.any():
                continue
            row = int(np.flatnonzero(bad)[0])
            # Rows enumerate the leading axes of ``full`` in C order.
            coords = tuple(
                int(x) for x in np.unravel_index(row, full.shape[:-1])
            ) + (0,)
            where, c = self._describe(coords)
            raise BankConflictError(
                f"{sm.name}: {int(degree[row])}-way shared-memory bank "
                f"conflict on a {op} in kernel {ctx.kernel_name!r} ({where}): "
                f"the warp's lanes map {int(degree[row])} distinct words to "
                f"one bank (>= {BANK_CONFLICT_HAZARD_DEGREE}-way hazard "
                f"threshold; stride the buffer like Alg. 5's 33)",
                check="bank-conflict", kernel=ctx.kernel_name, array=sm.name,
                phase=int(self.epoch[coords[-3]]), **c,
            )

    # -- barriers -------------------------------------------------------
    def barrier(self, warp_mask: Optional[np.ndarray]) -> None:
        """Check divergence at a ``__syncthreads`` and advance epochs.

        ``warp_mask`` is the context's current activity mask (``None`` =
        every warp participates).  A warp absent from a barrier that
        block-mates execute is marked; on hardware that barrier only
        completes because the absent warp logically exited the block, so
        if it later *arrives* at another barrier the original kernel
        would have deadlocked — that arrival raises.
        """
        ctx = self.ctx
        self.barriers_checked += 1
        if warp_mask is None:
            active = np.ones((ctx.n_blocks, ctx.warps_per_block), dtype=bool)
        else:
            active = np.broadcast_to(warp_mask, ctx.shape).any(axis=-1)
        participating = active.any(axis=1)
        bad = active & self._missed
        if bad.any():
            b, w = (int(x) for x in np.argwhere(bad)[0])
            raise BarrierDivergenceError(
                f"barrier divergence in kernel {ctx.kernel_name!r}: warp {w} "
                f"of block {b} reaches __syncthreads number "
                f"{self.barriers_checked} after skipping an earlier one its "
                f"block-mates executed (not all warps sync at the same point)",
                check="barrier-divergence", kernel=ctx.kernel_name,
                block=b, warp=w, phase=int(self.epoch[b]),
            )
        self._missed |= participating[:, None] & ~active
        self.epoch[participating] += 1

    # -- helpers --------------------------------------------------------
    def _describe(self, coords) -> tuple:
        """Human text + structured kwargs from (``[reg,] blk, warp, lane``)."""
        if len(coords) == 4:
            r, b, w, l = coords
            return (
                f"register {r}, block {b}, warp {w}, lane {l}",
                {"register": r, "block": b, "warp": w, "lane": l},
            )
        b, w, l = coords
        return (
            f"block {b}, warp {w}, lane {l}",
            {"block": b, "warp": w, "lane": l},
        )
