"""Transparent sharding through ``sat()``, env knobs, series streaming,
and the gated full-scale 16k x 16k acceptance run."""

import os

import numpy as np
import pytest

from repro.exec.config import execution
from repro.sat.api import sat
from repro.shard import (
    DEFAULT_THRESHOLD_ELEMS,
    ShardConfig,
    ShardRun,
    above_threshold,
    sharded_sat_series,
)

from ..helpers import count_resolves


@pytest.fixture
def small_threshold(monkeypatch):
    """Shard anything above 64x64 so tests stay fast."""
    monkeypatch.setenv("REPRO_SHARD_THRESHOLD", str(64 * 64))
    monkeypatch.setenv("REPRO_SHARD_TILE", "64x64")
    monkeypatch.setenv("REPRO_SHARD_DEVICES", "2xP100")


class TestTransparentRouting:
    def test_large_image_shards_automatically(self, small_threshold):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 255, size=(150, 200)).astype(np.uint8)
        run = sat(img, pair="8u32s")
        assert isinstance(run, ShardRun)
        ref = sat(img, pair="8u32s", shard=False)
        assert not isinstance(ref, ShardRun)
        np.testing.assert_array_equal(run.output, ref.output)

    def test_at_threshold_does_not_shard(self, small_threshold):
        img = np.ones((64, 64), dtype=np.uint8)   # == threshold, not above
        assert not isinstance(sat(img, pair="8u32s"), ShardRun)

    def test_shard_true_forces_even_small(self, small_threshold):
        img = np.ones((40, 40), dtype=np.uint8)
        run = sat(img, pair="8u32s", shard={"tile_shape": (16, 16)})
        assert isinstance(run, ShardRun)
        assert run.report["n_tiles"] == 9

    def test_shard_false_suppresses(self, small_threshold):
        img = np.ones((150, 200), dtype=np.uint8)
        assert not isinstance(sat(img, pair="8u32s", shard=False), ShardRun)

    @pytest.mark.parametrize("backend", ["gpusim", "host"])
    def test_sharded_run_reports_the_tiles_backend(self, small_threshold,
                                                   backend):
        img = np.ones((100, 100), dtype=np.uint8)
        sharded = sat(img, pair="8u32s", backend=backend)
        whole = sat(img, pair="8u32s", backend=backend, shard=False)
        assert isinstance(sharded, ShardRun)
        assert sharded.backend == whole.backend == backend

    @pytest.mark.parametrize("backend", ["gpusim", "host"])
    def test_series_reports_the_frames_backend(self, backend):
        frames = [np.ones((40, 40), dtype=np.uint8)] * 3
        series = sharded_sat_series(frames, pair="8u32s", backend=backend)
        whole = sat(frames[0], pair="8u32s", backend=backend, shard=False)
        assert series.backend == whole.backend

    @pytest.mark.parametrize("algorithm, resolves", [
        ("brlt_scanrow", {"repro.shard.executor": 1}),
        (None, {"repro.shard.executor": 1}),
    ])
    def test_warm_sharded_call_resolves_no_tile(self, small_threshold,
                                                monkeypatch, algorithm,
                                                resolves):
        """Tiles run under the call's config, resolved once with each
        tile's device swapped in; the algorithm is chosen under that same
        resolution, so sat() itself never resolves."""
        img = np.ones((150, 200), dtype=np.uint8)
        with execution(sanitize=False, bounds_check=False):
            sat(img, pair="8u32s", algorithm=algorithm)  # cold tiles
            calls = count_resolves(monkeypatch)
            run = sat(img, pair="8u32s", algorithm=algorithm)
        assert run.report["n_tiles"] == 12
        assert dict(calls) == resolves

    def test_default_threshold_spares_benchmark_sizes(self):
        assert not above_threshold((2048, 2048))  # 2^22 == threshold
        assert above_threshold((4096, 4096))
        assert DEFAULT_THRESHOLD_ELEMS == 1 << 22

    def test_specless_algorithm_rejects_shard_request(self):
        img = np.ones((40, 40), dtype=np.uint8)
        with pytest.raises(ValueError, match="cannot run sharded"):
            sat(img, pair="8u32s", algorithm="cpu_numpy",
                shard={"tile_shape": (16, 16)})

    def test_config_coercion(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_DEVICES", raising=False)
        cfg = ShardConfig.coerce({"tile_shape": (16, 16)}, device="V100")
        assert cfg.tile_shape == (16, 16)
        assert cfg.devices == "2xV100"            # device= spreads to a pair
        passthrough = ShardConfig(tile_shape=(8, 8))
        assert ShardConfig.coerce(passthrough) is passthrough
        env = ShardConfig.from_env(devices="3xM40")
        assert env.devices == "3xM40"


class TestSeriesStreaming:
    def _frames(self, n=6, shape=(48, 64)):
        rng = np.random.default_rng(4)
        return [rng.integers(0, 255, size=shape).astype(np.uint8)
                for _ in range(n)]

    def test_per_frame_outputs_match_host(self):
        frames = self._frames()
        run = sharded_sat_series(frames, pair="8u32s",
                                 shard={"devices": "2xP100"})
        assert len(run.outputs) == 6
        for f, out in zip(frames, run.outputs):
            np.testing.assert_array_equal(
                out, sat(f, pair="8u32s", backend="host", shard=False).output)
        assert run.report["frames_per_s"] > 0
        assert run.report["carry_passes"] == 0    # independent frames

    def test_temporal_series_is_integral_video(self):
        """temporal=True: frame t's output is the running (wraparound)
        sum of SATs 0..t — one descriptor chain over time."""
        frames = self._frames()
        run = sharded_sat_series(frames, pair="8u32s", temporal=True,
                                 shard={"devices": "2xP100"})
        acc = np.zeros(frames[0].shape, dtype=np.int32)
        with np.errstate(over="ignore"):
            for f, out in zip(frames, run.outputs):
                acc = acc + sat(f, pair="8u32s", backend="host",
                                shard=False).output
                np.testing.assert_array_equal(out, acc)
        assert run.temporal
        assert run.report["carry_passes"] == 1
        assert run.report["lookback"]["resolved"] == len(frames) - 1

    def test_series_overlap_across_devices(self):
        run = sharded_sat_series(self._frames(8), pair="8u32s",
                                 temporal=True,
                                 shard={"devices": "2xP100"})
        assert run.report["overlap_s"] > 0
        assert run.time_s == run.report["makespan_s"]


@pytest.mark.skipif(os.environ.get("REPRO_SHARD_BIG") != "1",
                    reason="set REPRO_SHARD_BIG=1 for the 16k acceptance run")
class TestGigapixelAcceptance:
    def test_16k_sharded_bit_identical_single_pass(self):
        """The ISSUE acceptance criterion: 16384^2 uint8 -> int32 SAT,
        sharded across 2 simulated devices, bit-identical to the host
        full-image reference with exactly one carry pass and nonzero
        compute/carry overlap."""
        rng = np.random.default_rng(16384)
        img = rng.integers(0, 255, size=(16384, 16384)).astype(np.uint8)
        run = sat(img, pair="8u32s", backend="gpusim",
                  shard={"tile_shape": (1024, 1024), "devices": "2xP100"})
        assert isinstance(run, ShardRun)
        rep = run.report
        assert rep["n_tiles"] == 256
        assert rep["kernel_ops"] == 256 and rep["carry_ops"] == 256
        assert rep["full_sweeps"] == 0 and rep["carry_passes"] == 1
        assert rep["overlap_s"] > 0
        # Host reference: int64 cumsum cast down == wrapped accumulation.
        ref = np.cumsum(np.cumsum(img, axis=0, dtype=np.int64),
                        axis=1).astype(np.int32)
        np.testing.assert_array_equal(run.output, ref)
