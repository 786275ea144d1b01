"""Sharded SAT vs. the host full-image reference: brute-force carries.

The decoupled-lookback tile carries must reproduce the full-image table
exactly: bit-for-bit for integer accumulators (wraparound addition is
associative, so tiling cannot change the result), and to float summation
reordering for ``32f``/``64f`` pairs.  Swept over ragged edge tiles,
degenerate 1xN / Nx1 grids, every supported dtype pair, and all four
named execution profiles.
"""

import collections
import threading

import numpy as np
import pytest

from repro.dtypes import TYPE_PAIRS
from repro.engine.batch import default_engine
from repro.exec.config import PROFILES, ExecutionConfig
from repro.sat.api import sat
from repro.shard import DescriptorChain, ShardRun, sharded_sat
from repro.shard import executor

PROFILE_NAMES = sorted(PROFILES)


def _image(shape, pair, seed=0):
    rng = np.random.default_rng(seed)
    dt = TYPE_PAIRS[pair].input.np_dtype
    if np.issubdtype(dt, np.integer):
        hi = min(255, np.iinfo(dt).max)
        return rng.integers(0, hi, size=shape).astype(dt)
    return rng.random(shape).astype(dt)


def _reference(img, pair):
    return sat(img, pair=pair, backend="host", shard=False).output


def _check(run, ref, pair):
    assert run.output.dtype == ref.dtype
    if TYPE_PAIRS[pair].output.is_integer:
        np.testing.assert_array_equal(run.output, ref)
    else:
        np.testing.assert_allclose(run.output, ref, rtol=2e-4, atol=1e-5)


class TestAllPairsAllProfiles:
    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    @pytest.mark.parametrize("pair", sorted(TYPE_PAIRS))
    def test_ragged_grid_matches_host_reference(self, pair, profile):
        """A 3x3 grid with ragged bottom/right tiles, per pair x profile."""
        img = _image((70, 90), pair, seed=hash(pair) % 1000)
        run = sharded_sat(
            img, pair=pair, config=profile,
            shard={"tile_shape": (32, 48), "devices": "2xP100"},
        )
        assert run.report["grid"] == [3, 2]
        _check(run, _reference(img, pair), pair)

    @pytest.mark.parametrize("pair", ["8u32s", "32u32u", "64f64f"])
    def test_grid_not_multiple_of_devices(self, pair):
        """Grid size coprime to the device count: carries cross devices
        on every chain hop."""
        img = _image((96, 96), pair, seed=7)
        run = sharded_sat(
            img, pair=pair,
            shard={"tile_shape": (32, 32), "devices": "P100,V100"},
        )
        assert run.report["grid"] == [3, 3]
        assert run.report["d2d_ops"] > 0
        _check(run, _reference(img, pair), pair)


class TestDegenerateGrids:
    @pytest.mark.parametrize("shape,tile,grid", [
        ((40, 200), (64, 32), (1, 7)),   # 1xN: row chain only
        ((200, 40), (32, 64), (7, 1)),   # Nx1: column chain only
        ((33, 33), (32, 32), (2, 2)),    # one-pixel ragged edges
        ((64, 64), (64, 64), (1, 1)),    # single tile: no carries at all
        ((1, 100), (16, 16), (1, 7)),    # single-row image
        ((100, 1), (16, 16), (7, 1)),    # single-column image
    ])
    def test_shape_matches_host_reference(self, shape, tile, grid):
        img = _image(shape, "8u32s", seed=shape[0])
        run = sharded_sat(img, pair="8u32s",
                          shard={"tile_shape": tile, "devices": "2xP100"})
        assert tuple(run.report["grid"]) == grid
        np.testing.assert_array_equal(run.output, _reference(img, "8u32s"))

    @pytest.mark.parametrize("policy", ["roundrobin", "blockrow"])
    def test_placement_policies_agree(self, policy):
        img = _image((80, 80), "8u32s", seed=3)
        run = sharded_sat(
            img, pair="8u32s",
            shard={"tile_shape": (32, 32), "devices": "2xP100",
                   "placement": policy},
        )
        np.testing.assert_array_equal(run.output, _reference(img, "8u32s"))


class TestCarryProtocol:
    def test_single_carry_pass_accounting(self):
        """One kernel op and one carry op per tile, no second sweep —
        the single-pass guarantee, asserted via op accounting."""
        img = _image((96, 128), "8u32s", seed=1)
        run = sharded_sat(img, pair="8u32s",
                          shard={"tile_shape": (32, 32),
                                 "devices": "2xP100"})
        rep = run.report
        assert rep["kernel_ops"] == rep["n_tiles"] == 12
        assert rep["carry_ops"] == rep["n_tiles"]
        assert rep["full_sweeps"] == 0
        assert rep["carry_passes"] == 1
        # Simulator launches: exactly the per-tile local SATs, nothing
        # proportional to a second full-image pass.
        assert rep["launches"] == len(run.launches)
        assert rep["launches"] % rep["n_tiles"] == 0
        # Every tile resolved exactly once per chain dimension.
        assert rep["lookback"]["row"]["resolved"] == 12 - 3  # minus col 0
        assert rep["lookback"]["col"]["resolved"] == 12 - 4  # minus row 0

    def test_identical_calls_report_equal(self):
        """A report depends on its call alone: tile plans are computed
        per call, so nothing accumulates between two identical calls."""
        img = _image((96, 128), "8u32s", seed=1)

        def call():
            return sharded_sat(img, pair="8u32s",
                               shard={"tile_shape": (32, 32),
                                      "devices": "2xP100"})

        first, second = call(), call()
        assert first.report == second.report
        assert "plan_cache" not in first.report

    def test_lookback_defers_and_retries_across_devices(self):
        """Round-robin placement across unequal devices makes some tiles
        finish before their predecessors: the descriptor protocol must
        observe X, defer, and retry — never produce a wrong carry."""
        img = _image((128, 160), "8u32s", seed=2)
        run = sharded_sat(
            img, pair="8u32s",
            shard={"tile_shape": (32, 32), "devices": "P100,V100"},
        )
        lb = run.report["lookback"]
        assert lb["row"]["deferred"] + lb["col"]["deferred"] > 0
        assert run.report["retries"] == \
            lb["row"]["deferred"] + lb["col"]["deferred"]
        np.testing.assert_array_equal(run.output, _reference(img, "8u32s"))

    def test_overlap_across_two_devices(self):
        """The modeled cost report shows nonzero compute/carry overlap
        with >= 2 simulated devices — carries hide behind kernels."""
        img = _image((160, 160), "8u32s", seed=4)
        run = sharded_sat(img, pair="8u32s",
                          shard={"tile_shape": (32, 32),
                                 "devices": "2xP100",
                                 "streams_per_device": 2})
        rep = run.report
        assert len(rep["devices"]) == 2
        assert all(d["n_ops"] > 0 for d in rep["per_device"].values())
        assert rep["overlap_s"] > 0.0
        assert 0.0 < rep["overlap_fraction"] <= 1.0
        assert rep["makespan_s"] > 0.0
        assert run.time_s == rep["makespan_s"]

    def test_cold_buckets_mid_call_add_nonzero_carries(self, monkeypatch):
        """A ragged grid on a cleared engine: the edge tiles' buckets
        run cold mid-call, and their carries are added after the cold
        run instead of folded into a lowered scan.  Tiles may run at
        once, so calls are keyed by tile, and a call is cold when its own
        thread recorded a plan-cache miss during it."""
        cache = default_engine().cache
        cache.clear()
        calls = {}
        misses = collections.Counter()
        real_note_miss = cache.note_miss
        real = executor.run_single
        img = _image((100, 100), "8u32s", seed=8)

        def note_miss(n=1):
            misses[threading.get_ident()] += n
            real_note_miss(n)

        def spy(image, carry=None, **kwargs):
            before = misses[threading.get_ident()]
            run = real(image, carry=carry, **kwargs)
            row0, col0 = divmod(image.ctypes.data - img.ctypes.data,
                                img.strides[0])
            calls[(row0 // 40, col0 // 40)] = (
                misses[threading.get_ident()] > before, carry)
            return run

        monkeypatch.setattr(cache, "note_miss", note_miss)
        monkeypatch.setattr(executor, "run_single", spy)
        run = sharded_sat(
            img, pair="8u32s",
            config=ExecutionConfig(sanitize=False, bounds_check=False,
                                   backend="gpusim"),
            shard={"tile_shape": (40, 40), "devices": "2xP100"},
        )
        np.testing.assert_array_equal(run.output, _reference(img, "8u32s"))
        assert len(calls) == 9
        # Tiles (0,2), (2,0) and (2,2) open the 64x32, 32x64 and 32x32
        # buckets; (2,2) has both carries.
        later_cold = [(lft.any(), top.any())
                      for tile, (cold, (lft, top)) in sorted(calls.items())
                      if cold and tile != (0, 0)]
        assert later_cold == [(True, False), (False, True), (True, True)]
        assert [tile for tile, (cold, _) in sorted(calls.items())
                if cold] == [(0, 0), (0, 2), (2, 0), (2, 2)]

    @pytest.mark.parametrize("pair", ["8u32s", "32f32f"])
    def test_lookback_carries_stay_load_bearing(self, monkeypatch, pair):
        """Integer tiles fold carries read at issue time, but the
        lookback still checks them; float tiles add what it resolves."""
        img = _image((96, 96), pair, seed=9)

        def call():
            return sharded_sat(img, pair=pair,
                               shard={"tile_shape": (32, 32),
                                      "devices": "2xP100"})

        clean = call().output
        real = DescriptorChain.lookback

        def perturbed(chain, i):
            excl = real(chain, i)
            if excl is not None and chain.name == "row1" and i == 1:
                excl = excl + 1
            return excl

        monkeypatch.setattr(DescriptorChain, "lookback", perturbed)
        if TYPE_PAIRS[pair].output.is_integer:
            with pytest.raises(RuntimeError, match="folded"):
                call()
        else:
            assert not np.array_equal(call().output, clean)

    def test_shardrun_is_a_satrun(self):
        img = _image((50, 50), "8u32s", seed=5)
        run = sharded_sat(img, pair="8u32s",
                          shard={"tile_shape": (32, 32)})
        assert isinstance(run, ShardRun)
        assert run.pair == "8u32s" and run.algorithm == "brlt_scanrow"
        assert run.time_us == pytest.approx(run.report["makespan_s"] * 1e6)

    @pytest.mark.parametrize("algorithm",
                             ["brlt_scanrow", "scanrow_brlt",
                              "scan_row_column"])
    def test_all_paper_kernels_shard(self, algorithm):
        img = _image((70, 70), "8u32s", seed=6)
        run = sharded_sat(img, pair="8u32s", algorithm=algorithm,
                          shard={"tile_shape": (32, 32)})
        np.testing.assert_array_equal(run.output, _reference(img, "8u32s"))
