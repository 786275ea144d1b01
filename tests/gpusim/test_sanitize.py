"""The kernel sanitizer: every check class, plus the mutation self-test.

The self-test is the proof the detector is live rather than vacuously
quiet: deliberately broken kernel variants (the missing inter-batch
barrier and the stride-32 staging buffer of Alg. 5) must raise with the
correct coordinates, while every unmutated kernel passes sanitized
end-to-end.  The per-kernel sanitizer reports themselves are pinned by
the golden traces (``tests/test_golden_traces.py``).
"""

import dataclasses

import numpy as np
import pytest

from repro.gpusim import (
    BankConflictError,
    BarrierDivergenceError,
    GlobalArray,
    OutOfBoundsError,
    SanitizerError,
    SanitizerReport,
    SharedMemoryRaceError,
    UninitializedReadError,
    launch_kernel,
)
from repro.sat import PAPER_ALGORITHMS
from repro.sat.naive import sat_reference

from ..helpers import assert_sat_equal, make_image


def run(kernel, *, grid=1, block=64, sanitize=True, args=()):
    return launch_kernel(
        kernel, device="P100", grid=grid, block=block,
        regs_per_thread=32, args=args, sanitize=sanitize,
    )


class TestErrorTaxonomy:
    def test_hierarchy(self):
        for err in (SharedMemoryRaceError, UninitializedReadError,
                    OutOfBoundsError, BarrierDivergenceError, BankConflictError):
            assert issubclass(err, SanitizerError)
        # Compatibility with the pre-sanitizer bounds-check debug mode.
        assert issubclass(OutOfBoundsError, IndexError)

    def test_structured_fields(self):
        e = SanitizerError(
            "boom", check="x", kernel="k", array="a",
            block=1, warp=2, lane=3, register=4, address=5, phase=6,
        )
        assert (e.check, e.kernel, e.array) == ("x", "k", "a")
        assert (e.block, e.warp, e.lane) == (1, 2, 3)
        assert (e.register, e.address, e.phase) == (4, 5, 6)


class TestSharedRaces:
    def test_simultaneous_cross_warp_store(self):
        def k(ctx):
            smem = ctx.alloc_shared((32,), np.int32)
            smem.store((ctx.lane_id(),), ctx.const(1, np.int32))

        with pytest.raises(SharedMemoryRaceError, match="simultaneous store"):
            run(k)

    def test_waw_across_instructions(self):
        def k(ctx):
            smem = ctx.alloc_shared((32,), np.int32)
            lane, wid = ctx.lane_id(), ctx.warp_id()
            with ctx.only_warps(wid == 0):
                smem.store((lane,), ctx.const(1, np.int32))
            with ctx.only_warps(wid == 1):
                smem.store((lane,), ctx.const(2, np.int32))

        with pytest.raises(SharedMemoryRaceError) as ei:
            run(k)
        assert ei.value.check == "shared-race"
        assert ei.value.warp == 1  # the second writer trips the check
        assert "warp 0" in str(ei.value)

    def test_raw_cross_warp(self):
        def k(ctx):
            smem = ctx.alloc_shared((32,), np.int32)
            lane, wid = ctx.lane_id(), ctx.warp_id()
            with ctx.only_warps(wid == 0):
                smem.store((lane,), ctx.const(1, np.int32))
            with ctx.only_warps(wid == 1):
                smem.load((lane,))

        with pytest.raises(SharedMemoryRaceError, match="observes a store"):
            run(k)

    def test_war_cross_warp(self):
        def k(ctx):
            smem = ctx.alloc_shared((32,), np.int32)
            smem.fill(0)
            lane, wid = ctx.lane_id(), ctx.warp_id()
            with ctx.only_warps(wid == 0):
                smem.load((lane,))
            with ctx.only_warps(wid == 1):
                smem.store((lane,), ctx.const(2, np.int32))

        with pytest.raises(SharedMemoryRaceError, match="read by warp 0"):
            run(k)

    def test_syncthreads_clears_hazard(self):
        def k(ctx):
            smem = ctx.alloc_shared((32,), np.int32)
            lane, wid = ctx.lane_id(), ctx.warp_id()
            with ctx.only_warps(wid == 0):
                smem.store((lane,), ctx.const(1, np.int32))
            ctx.syncthreads()
            with ctx.only_warps(wid == 1):
                smem.load((lane,))

        run(k)  # no raise

    def test_same_warp_accesses_are_ordered(self):
        def k(ctx):
            smem = ctx.alloc_shared((64,), np.int32)
            lane, wid = ctx.lane_id(), ctx.warp_id()
            # Disjoint per-warp slots: store, read back, overwrite — all
            # intra-warp, all legal without any barrier.
            slot = wid * 32 + lane
            smem.store((slot,), ctx.const(1, np.int32))
            smem.load((slot,))
            smem.store((slot,), ctx.const(2, np.int32))

        run(k)

    def test_cross_warp_broadcast_read_is_legal(self):
        def k(ctx):
            smem = ctx.alloc_shared((32,), np.int32)
            smem.fill(7)
            smem.load((ctx.lane_id(),))  # every warp reads; no writer

        run(k)


class TestUninitAndBounds:
    def test_uninitialised_shared_read(self):
        def k(ctx):
            smem = ctx.alloc_shared((32,), np.int32)
            smem.load((ctx.lane_id(),))

        with pytest.raises(UninitializedReadError, match="never stored"):
            run(k)

    def test_fill_initialises(self):
        def k(ctx):
            smem = ctx.alloc_shared((32,), np.int32)
            smem.fill(0)
            smem.load((ctx.lane_id(),))

        run(k)

    def test_shared_out_of_bounds(self):
        def k(ctx):
            smem = ctx.alloc_shared((32,), np.int32)
            smem.store((ctx.lane_id() + 16,), ctx.const(1, np.int32))

        with pytest.raises(OutOfBoundsError) as ei:
            run(k, block=32)
        assert ei.value.check == "shared-bounds"
        assert ei.value.lane == 16  # first offending lane: 16 + 16 = 32
        assert ei.value.address == 32

    def test_global_out_of_bounds_without_env_flag(self):
        buf = GlobalArray(np.zeros(32, dtype=np.int32), "buf")

        def k(ctx, b):
            b.load(ctx, ctx.lane_id() + 8)

        with pytest.raises(OutOfBoundsError) as ei:
            run(k, block=32, args=(buf,))
        assert ei.value.check == "global-bounds"
        assert ei.value.array == "buf"
        # The unsanitized default clips silently.
        run(k, block=32, args=(buf,), sanitize=False)


class TestBankConflictHazard:
    def test_stride_32_column_read(self):
        def k(ctx):
            smem = ctx.alloc_shared((32, 32), np.int32)
            smem.fill(0)
            smem.load((ctx.lane_id(), 0))  # offsets lane*32: one bank

        with pytest.raises(BankConflictError, match="32-way"):
            run(k, block=32)

    def test_stride_33_is_clean(self):
        def k(ctx):
            smem = ctx.alloc_shared((32, 33), np.int32)
            smem.fill(0)
            smem.load((ctx.lane_id(), 0))  # offsets lane*33: all banks

        run(k, block=32)


class TestBarrierDivergence:
    def test_warp_arriving_after_skipping_raises(self):
        def k(ctx):
            wid = ctx.warp_id()
            with ctx.only_warps(wid == 0):
                ctx.syncthreads()
            ctx.syncthreads()  # warp 1 arrives after skipping the first

        with pytest.raises(BarrierDivergenceError) as ei:
            run(k)
        assert ei.value.warp == 1

    def test_exited_warp_never_returning_is_legal(self):
        def k(ctx):
            wid = ctx.warp_id()
            # Warp 1 logically exits; warp 0 keeps syncing alone (the
            # trailing-partial-strip pattern of the SAT kernels).
            with ctx.only_warps(wid == 0):
                ctx.syncthreads()
                ctx.syncthreads()

        run(k)


class TestRegisterValidity:
    def test_uninit_register_read(self):
        def k(ctx):
            bank = ctx.local_regs(4, np.int32)
            bank.reg(0)

        with pytest.raises(UninitializedReadError) as ei:
            run(k)
        assert ei.value.check == "uninit-register"
        assert ei.value.register == 0

    def test_written_register_reads_fine(self):
        def k(ctx):
            bank = ctx.local_regs(2, np.int32)
            bank.set_reg(0, ctx.const(5, np.int32))
            bank.reg(0)
            with pytest.raises(UninitializedReadError):
                bank.reg(1)

        run(k)

    def test_bank_arith_requires_full_init(self):
        def k(ctx):
            bank = ctx.local_regs(2, np.int32)
            bank.set_reg(0, ctx.const(5, np.int32))
            bank + 1

        with pytest.raises(UninitializedReadError) as ei:
            run(k)
        assert ei.value.register == 1

    def test_untracked_without_sanitizer(self):
        def k(ctx):
            bank = ctx.local_regs(2, np.int32)
            assert bank.valid is None  # no tracking overhead
            bank.reg(0)

        run(k, sanitize=False)


class TestReportAndNeutrality:
    def test_report_attached_to_timing(self):
        img = make_image((64, 64), "32f32f")
        sat_run = PAPER_ALGORITHMS["brlt_scanrow"](img, pair="32f32f", sanitize=True)
        for stats in sat_run.launches:
            rep = stats.timing.sanitizer
            assert isinstance(rep, SanitizerReport)
            assert rep.ok
            assert rep.barriers_checked > 0
            assert rep.smem_accesses_checked > 0
            assert rep.gmem_accesses_checked > 0
            assert rep.shared_arrays == 2

    def test_report_survives_retime(self):
        img = make_image((64, 64), "32f32f")
        stats = PAPER_ALGORITHMS["brlt_scanrow"](
            img, pair="32f32f", sanitize=True
        ).launches[0]
        rep = stats.timing.sanitizer
        assert stats.retime().timing.sanitizer is rep

    @pytest.mark.parametrize("algo", sorted(PAPER_ALGORITHMS))
    def test_sanitizer_is_counter_neutral(self, algo):
        """The checks observe: counters and timings stay bit-identical."""
        img = make_image((128, 128), "8u32s")
        plain = PAPER_ALGORITHMS[algo](img, pair="8u32s", sanitize=False)
        checked = PAPER_ALGORITHMS[algo](img, pair="8u32s", sanitize=True)
        for sp, sc in zip(plain.launches, checked.launches):
            assert sp.counters.as_dict() == sc.counters.as_dict()
            tp = dataclasses.asdict(sp.timing)
            tc = dataclasses.asdict(sc.timing)
            tp.pop("sanitizer"), tc.pop("sanitizer")
            assert tp == tc


class TestMutationSelfTest:
    """Seeded bugs the sanitizer MUST catch (else it is vacuously quiet)."""

    def test_missing_brlt_barrier_races(self):
        img = make_image((64, 1024), "8u32s")
        with pytest.raises(SharedMemoryRaceError) as ei:
            PAPER_ALGORITHMS["brlt_scanrow"](
                img, pair="8u32s", sanitize=True, brlt_barrier=False
            )
        e = ei.value
        assert e.array == "sMemBRLT"
        # int32 staging: S = 32/4 = 8 warps per batch.  The first racing
        # store is batch 1's warp 8 reusing slot k=0, last touched by
        # batch 0's warp 0, in block 0 / the first barrier interval.
        assert (e.block, e.warp, e.phase) == (0, 8, 0)
        assert "warp 0" in str(e)

    def test_missing_barrier_unflagged_without_sanitizer(self):
        """Lock-step simulation hides the bug — exactly the soundness gap
        the sanitizer exists to close."""
        img = make_image((64, 1024), "8u32s")
        sat_run = PAPER_ALGORITHMS["brlt_scanrow"](
            img, pair="8u32s", sanitize=False, brlt_barrier=False
        )
        np.testing.assert_array_equal(sat_run.output, sat_reference(img, "8u32s"))

    def test_stride_32_staging_flagged(self):
        img = make_image((64, 1024), "8u32s")
        with pytest.raises(BankConflictError) as ei:
            PAPER_ALGORITHMS["brlt_scanrow"](
                img, pair="8u32s", sanitize=True, brlt_stride=32
            )
        e = ei.value
        assert e.array == "sMemBRLT"
        assert (e.block, e.warp, e.lane) == (0, 0, 0)
        assert "32-way" in str(e)

    @pytest.mark.parametrize("algo", sorted(PAPER_ALGORITHMS))
    def test_unmutated_kernels_sanitized_at_1024(self, algo):
        """Acceptance: all three SAT kernels clean at 1024^2."""
        img = make_image((1024, 1024), "32f32f")
        sat_run = PAPER_ALGORITHMS[algo](img, pair="32f32f", sanitize=True)
        assert_sat_equal(sat_run.output, sat_reference(img, "32f32f"), "32f32f")
        assert all(s.timing.sanitizer.ok for s in sat_run.launches)

    def test_trailing_partial_strip_sanitized(self):
        """w=1056 leaves a partial last strip (masked warps skip its sync):
        legal divergence the prefix rule must not flag."""
        img = make_image((64, 1056), "8u32s")
        sat_run = PAPER_ALGORITHMS["brlt_scanrow"](img, pair="8u32s", sanitize=True)
        np.testing.assert_array_equal(sat_run.output, sat_reference(img, "8u32s"))
