"""Batched execution engine: ``sat_batch`` must be observationally
identical to looped interpreted solo runs — same output bits, same
CostCounters, same modeled KernelTiming per image — while amortising the
per-launch fixed costs across the batch.

A warm ``sat()`` is itself a one-image engine batch, so the solo
references come from the drivers, or from a fresh engine's cold run
where the engine chooses the algorithm."""

import dataclasses

import numpy as np
import pytest

from repro import ALGORITHMS, sat_batch
from repro.engine import BATCH_SPECS, Engine
from repro.sat.naive import exclusive_from_inclusive, sat_reference

PAPER_ALGS = sorted(BATCH_SPECS)


@pytest.fixture(autouse=True)
def _no_sanitize(monkeypatch):
    """Pin the sanitizer off: sanitized batches deliberately bypass the
    plan cache and stacking, which is what these tests exercise.  (The
    sanitized path has its own tests below, which re-enable it.)"""
    monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "0")


def make_images(shapes, dtype=np.uint8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, s).astype(dtype) for s in shapes]


def interpreted(im, **kwargs):
    """A fresh interpreted solo run of ``im``: the cold run of a new
    engine, which chooses the algorithm exactly as ``sat()`` does."""
    return Engine().run_batch([im], **kwargs).runs[0]


def assert_run_pairs_identical(batch_runs, solo_runs):
    assert len(batch_runs) == len(solo_runs)
    for rb, rs in zip(batch_runs, solo_runs):
        assert rb.output.dtype == rs.output.dtype
        assert np.array_equal(rb.output, rs.output)
        assert len(rb.launches) == len(rs.launches)
        for sb, ss in zip(rb.launches, rs.launches):
            assert sb.counters.as_dict() == ss.counters.as_dict(), sb.name
            assert dataclasses.asdict(sb.timing) == dataclasses.asdict(ss.timing)
            assert (sb.grid, sb.block) == (ss.grid, ss.block)


class TestBatchVsSequential:
    @pytest.mark.parametrize("alg", PAPER_ALGS)
    def test_repeated_shape_identical(self, alg):
        imgs = make_images([(64, 64)] * 5)
        run = sat_batch(imgs, pair="8u32s", algorithm=alg, engine=Engine())
        solo = [ALGORITHMS[alg](im, pair="8u32s") for im in imgs]
        assert_run_pairs_identical(run.runs, solo)
        assert run.plan_misses == 1 and run.plan_hits == 4

    @pytest.mark.parametrize("pair", ["8u32s", "32f32f", "64f64f"])
    def test_mixed_shapes_identical(self, pair):
        shapes = [(64, 64), (40, 50), (64, 64), (33, 97), (40, 50), (64, 64)]
        dt = np.uint8 if pair == "8u32s" else np.float32
        imgs = make_images(shapes, dtype=dt)
        run = sat_batch(imgs, pair=pair, engine=Engine())
        solo = [interpreted(im, pair=pair) for im in imgs]
        assert_run_pairs_identical(run.runs, solo)

    def test_warm_engine_replays_identically(self):
        """Second call on the same engine hits the plan cache and runs
        every image through the lowered program — results must not drift."""
        eng = Engine()
        imgs = make_images([(64, 96)] * 4)
        first = sat_batch(imgs, pair="8u32s", engine=eng)
        second = sat_batch(imgs, pair="8u32s", engine=eng)
        assert second.plan_misses == 0 and second.plan_hits == 4
        assert_run_pairs_identical(second.runs, first.runs)
        solo = [interpreted(im, pair="8u32s") for im in imgs]
        assert_run_pairs_identical(second.runs, solo)

    def test_identical_on_both_execution_paths(self):
        imgs = make_images([(64, 64)] * 3)
        run = sat_batch(imgs, pair="8u32s", engine=Engine())
        solo = [interpreted(im, pair="8u32s") for im in imgs]
        assert_run_pairs_identical(run.runs, solo)

    def test_identical_under_bounds_check(self, monkeypatch):
        """Bounds-checked batches have no lowered program and replay each
        image through the interpreter; results must still match."""
        monkeypatch.setenv("REPRO_GPUSIM_BOUNDS_CHECK", "1")
        imgs = make_images([(64, 64)] * 3)
        run = sat_batch(imgs, pair="8u32s", engine=Engine())
        solo = [interpreted(im, pair="8u32s") for im in imgs]
        assert_run_pairs_identical(run.runs, solo)


class TestSanitizedBatch:
    def test_sanitize_falls_back_to_cold_per_image(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "1")
        imgs = make_images([(64, 64)] * 3)
        run = sat_batch(imgs, pair="8u32s", engine=Engine())
        assert run.plan_hits == 0 and run.plan_misses == 3
        for im, r in zip(imgs, run.runs):
            np.testing.assert_array_equal(r.output, sat_reference(im, "8u32s"))
            assert all(s.timing.sanitizer is not None for s in r.launches)


class TestInputForms:
    def test_3d_stack_input(self):
        stack = np.random.default_rng(3).integers(
            0, 256, (4, 64, 64)).astype(np.uint8)
        run = sat_batch(stack, pair="8u32s", engine=Engine())
        for i in range(4):
            np.testing.assert_array_equal(
                run.runs[i].output, sat_reference(stack[i], "8u32s"))

    def test_exclusive(self):
        imgs = make_images([(40, 56)] * 3, seed=5)
        run = sat_batch(imgs, pair="8u32s", exclusive=True, engine=Engine())
        for im, r in zip(imgs, run.runs):
            np.testing.assert_array_equal(
                r.output,
                exclusive_from_inclusive(sat_reference(im, "8u32s")))

    def test_baseline_algorithm_loops(self):
        imgs = make_images([(48, 48)] * 3, seed=6)
        run = sat_batch(imgs, pair="8u32s", algorithm="cpu_numpy",
                        engine=Engine())
        for im, r in zip(imgs, run.runs):
            np.testing.assert_array_equal(r.output, sat_reference(im, "8u32s"))


class TestErrors:
    def test_empty_batch(self):
        with pytest.raises(ValueError, match="at least one image"):
            sat_batch([], engine=Engine())

    def test_non_2d_image(self):
        with pytest.raises(ValueError, match="2-D"):
            sat_batch([np.ones((2, 3, 4), dtype=np.uint8)], engine=Engine())

    def test_zero_sized_image(self):
        with pytest.raises(ValueError, match="at least one row"):
            sat_batch([np.ones((0, 8), dtype=np.uint8)], engine=Engine())

    def test_mixed_dtypes(self):
        imgs = [np.ones((8, 8), np.uint8), np.ones((8, 8), np.float32)]
        with pytest.raises(ValueError, match="share one dtype"):
            sat_batch(imgs, engine=Engine())

    def test_2d_array_batch_rejected(self):
        with pytest.raises(ValueError, match="3-D"):
            sat_batch(np.ones((8, 8), dtype=np.uint8), engine=Engine())

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            sat_batch(make_images([(8, 8)]), algorithm="magic",
                      engine=Engine())


class TestAggregates:
    def test_modeled_speedup_and_throughput(self):
        imgs = make_images([(64, 64)] * 16, seed=9)
        run = sat_batch(imgs, pair="8u32s", engine=Engine())
        # Stacked launches amortise fixed overheads: strictly faster than
        # the sequential model, and every throughput figure is populated.
        assert run.modeled_batched_s < run.modeled_sequential_s
        assert run.speedup_vs_sequential > 1.0
        assert run.images_per_s > 0 and run.wall_images_per_s > 0
        assert run.effective_gbps > 0
        assert run.wall_s > 0
        assert run.n_images == 16
        assert run.plan_hit_rate == pytest.approx(15 / 16)
        assert "images" in run.summary()

    def test_buckets_reported_first_seen_order(self):
        imgs = make_images([(64, 64), (96, 96), (64, 64)], seed=10)
        run = sat_batch(imgs, pair="8u32s", engine=Engine())
        assert [n for _, n in run.buckets] == [2, 1]
        assert run.buckets[0][0] == (64, 64)
