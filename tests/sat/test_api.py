"""Public sat() API: dispatch, defaults, errors."""

import numpy as np
import pytest

from repro import ALGORITHMS, integral, sat, sat_batch
from repro.engine import Engine
from repro.engine import batch as batch_mod
from repro.exec.config import execution, resolve_execution
from repro.plan import DEFAULT_ALGORITHM, get_planner
from repro.sat.naive import sat_reference
from repro.serve import SatRequest
from repro.serve.batcher import DynamicBatcher
from repro.shard import ShardRun


class TestDispatch:
    def test_default_algorithm_is_brlt_scanrow(self):
        # autotune pinned off: under the "autotuned" profile the planner,
        # not the static default, picks the kernel.
        img = np.ones((40, 40), dtype=np.float32)
        assert sat(img, autotune=False).algorithm == "brlt_scanrow"

    def test_registry_contains_paper_and_baselines(self):
        for name in ("brlt_scanrow", "scanrow_brlt", "scan_row_column",
                     "opencv", "npp", "bilgic", "cpu_numpy", "cpu_serial"):
            assert name in ALGORITHMS

    @pytest.mark.parametrize("algorithm", ["opencv", "bilgic", "cpu_numpy"])
    def test_baselines_via_api(self, algorithm):
        img = np.random.default_rng(0).integers(0, 256, (64, 70)).astype(np.uint8)
        run = sat(img, pair="8u32s", algorithm=algorithm)
        np.testing.assert_array_equal(run.output, sat_reference(img, "8u32s"))

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            sat(np.ones((32, 32), dtype=np.float32), algorithm="magic")

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            sat(np.ones((2, 3, 4), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_sized_rejected(self, shape):
        """0xN / Nx0 inputs have no well-defined SAT; previously these fell
        through to shape-dependent kernel failures deep in the drivers."""
        with pytest.raises(ValueError, match="at least one row"):
            sat(np.ones(shape, dtype=np.float32))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1)])
    def test_degenerate_but_valid_shapes(self, shape):
        img = np.random.default_rng(7).integers(0, 256, shape).astype(np.uint8)
        run = sat(img, pair="8u32s")
        np.testing.assert_array_equal(run.output, sat_reference(img, "8u32s"))

    def test_1x1_identity(self):
        img = np.array([[42]], dtype=np.uint8)
        assert sat(img, pair="8u32s").output.tolist() == [[42]]


class TestDefaults:
    def test_uint8_defaults_to_8u32s(self):
        img = np.ones((32, 32), dtype=np.uint8)
        run = sat(img)
        assert run.pair == "8u32s"
        assert run.output.dtype == np.int32

    def test_float_defaults_to_identity_pair(self):
        img = np.ones((32, 32), dtype=np.float32)
        assert sat(img).pair == "32f32f"

    def test_device_selection(self):
        img = np.ones((32, 32), dtype=np.float32)
        assert sat(img, device="V100").device == "V100"

    def test_opts_forwarded(self):
        img = np.ones((32, 32), dtype=np.float32)
        run = sat(img, algorithm="scanrow_brlt", scan="ladner_fischer")
        np.testing.assert_allclose(run.output, sat_reference(img, "32f32f"))


class TestDtypeErrors:
    def test_unsupported_input_dtype_names_pairs(self):
        img = np.ones((16, 16), dtype=np.int8)
        with pytest.raises(ValueError, match="unsupported SAT input dtype"):
            sat(img)
        with pytest.raises(ValueError, match="8u32s"):
            sat(img)

    def test_unsupported_complex_dtype(self):
        with pytest.raises(ValueError, match="unsupported SAT input dtype"):
            sat(np.ones((16, 16), dtype=np.complex64))

    def test_bogus_pair_string(self):
        img = np.ones((16, 16), dtype=np.uint8)
        with pytest.raises(ValueError, match="unsupported type pair '9q9q'"):
            sat(img, pair="9q9q")

    def test_bogus_pair_names_supported_pairs(self):
        img = np.ones((16, 16), dtype=np.uint8)
        with pytest.raises(ValueError, match="32f32f"):
            sat(img, pair="nonsense")

    def test_non_string_pair_garbage(self):
        img = np.ones((16, 16), dtype=np.uint8)
        with pytest.raises(ValueError, match="unsupported type pair"):
            sat(img, pair=3.14)


class TestIntegralWrapper:
    def test_returns_plain_array(self):
        img = np.random.default_rng(1).integers(0, 256, (45, 61)).astype(np.uint8)
        out = integral(img)
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, sat_reference(img, "8u32s"))

    def test_opencv_semantics_documented_and_true(self):
        """The docstring's claimed correspondence with ``cv2.integral``:
        inclusive == cv2out[1:, 1:], exclusive == cv2out[:-1, :-1], where
        cv2out is the (H+1, W+1) zero-padded exclusive table."""
        img = np.random.default_rng(2).integers(0, 256, (30, 41)).astype(np.uint8)
        h, w = img.shape
        cv2out = np.zeros((h + 1, w + 1), dtype=np.int64)
        cv2out[1:, 1:] = img.astype(np.int64).cumsum(0).cumsum(1)
        np.testing.assert_array_equal(
            integral(img, pair="8u32s"), cv2out[1:, 1:])
        np.testing.assert_array_equal(
            integral(img, pair="8u32s", exclusive=True), cv2out[:-1, :-1])

    def test_parity_with_opencv_baseline(self):
        img = np.random.default_rng(8).integers(0, 256, (33, 47)).astype(np.uint8)
        np.testing.assert_array_equal(
            integral(img, pair="8u32s"),
            integral(img, pair="8u32s", algorithm="opencv"))


class TestSatRun:
    def test_time_is_sum_of_kernels(self):
        img = np.ones((64, 64), dtype=np.float32)
        run = sat(img)
        assert run.time_us == pytest.approx(
            sum(t for _, t in run.kernel_times_us()))

    def test_cpu_baseline_has_no_launches(self):
        img = np.ones((32, 32), dtype=np.float32)
        run = sat(img, algorithm="cpu_numpy")
        assert run.launches == [] and run.time_us == 0


class TestExclusiveForm:
    def test_exclusive_option(self):
        from repro.sat.naive import exclusive_from_inclusive
        img = np.random.default_rng(3).integers(0, 256, (40, 50)).astype(np.uint8)
        inc = sat(img).output
        exc = sat(img, exclusive=True).output
        np.testing.assert_array_equal(exc, exclusive_from_inclusive(inc))

    def test_exclusive_borders_zero(self):
        img = np.ones((33, 47), dtype=np.uint8)
        exc = sat(img, exclusive=True).output
        assert np.all(exc[0] == 0) and np.all(exc[:, 0] == 0)
        assert exc[-1, -1] == 32 * 46


class TestM40Device:
    def test_algorithms_run_on_m40(self):
        img = np.random.default_rng(4).integers(0, 256, (64, 96)).astype(np.uint8)
        run = sat(img, pair="8u32s", device="M40")
        np.testing.assert_array_equal(run.output, sat_reference(img, "8u32s"))
        assert run.device == "M40"

    def test_m40_slower_than_p100(self):
        img = np.random.default_rng(5).integers(0, 256, (1024, 1024)).astype(np.uint8)
        tm = sat(img, pair="8u32s", device="M40").time_us
        tp = sat(img, pair="8u32s", device="P100").time_us
        assert tm > tp


class TestEntryPointsAgree:
    """Whole and sharded ``sat()``, ``sat_batch()`` and the serve
    batcher's ``compat_key_of`` choose one algorithm, with the same opts,
    for the same call."""

    SHAPE = (150, 200)

    @pytest.mark.parametrize("autotune", [False, True])
    @pytest.mark.parametrize("algorithm, opts", [
        (None, {}),
        ("auto", {}),
        ("scanrow_brlt", {"scan": "ladner_fischer"}),
    ])
    def test_same_choice(self, monkeypatch, algorithm, opts, autotune):
        monkeypatch.setenv("REPRO_SHARD_THRESHOLD", str(64 * 64))
        monkeypatch.setenv("REPRO_SHARD_TILE", "64x64")
        monkeypatch.setenv("REPRO_SHARD_DEVICES", "2xP100")
        # A fresh default engine, so the plan keys sat() records are seen.
        monkeypatch.setattr(batch_mod, "_default_engine", Engine())
        img = np.random.default_rng(3).integers(
            0, 256, self.SHAPE).astype(np.uint8)
        kw = dict(pair="8u32s", algorithm=algorithm, autotune=autotune, **opts)
        with execution(sanitize=False, bounds_check=False, device="P100"):
            whole = sat(img, shard=False, **kw)
            whole_keys = set(batch_mod.default_engine().cache.keys())
            sharded = sat(img, **kw)
            shard_keys = (set(batch_mod.default_engine().cache.keys())
                          - whole_keys)
            eng = Engine()
            batch = sat_batch([img], engine=eng, **kw)
            key = DynamicBatcher.compat_key_of(
                SatRequest(img, pair="8u32s", algorithm=algorithm, opts=opts),
                resolve_execution(autotune=autotune))
        if algorithm is None and not autotune:
            want, want_opts = DEFAULT_ALGORITHM, {}
        elif algorithm in (None, "auto"):
            decision = get_planner().decide(self.SHAPE, "8u32s", "P100")
            want, want_opts = decision.algorithm, decision.opts_dict()
        else:
            want, want_opts = algorithm, opts
        assert isinstance(sharded, ShardRun)
        assert not isinstance(whole, ShardRun)
        chosen = [whole.algorithm, sharded.algorithm, batch.algorithm,
                  key.algorithm]
        assert chosen == [want] * 4
        want_key_opts = tuple(sorted(want_opts.items()))
        assert key.opts == want_key_opts
        plan_keys = whole_keys | shard_keys | set(eng.cache.keys())
        assert whole_keys and shard_keys and eng.cache.keys()
        assert {(k.algorithm, tuple(o for o in k.opts if o[0] != "bounds_check"))
                for k in plan_keys} == {(want, want_key_opts)}
