"""Compiled-program lifecycle: cold record → warm replay → fallback.

Covers the plan-state machine a ``gpusim`` call drives through the
default engine's plan cache, for single ``sat()`` calls (one-image
batches) and batches alike: a cold call records and lowers, warm calls
execute the compiled program, lowering refusals pin the bucket to the
interpreted path, execute-time failures drop the program and recompile
on the next call, and the trusted slow modes (sanitizer, bounds checks)
never run over compiled code.  References come from the drivers, which
interpret without touching the cache.
"""

import numpy as np
import pytest

from repro.engine import Engine
from repro.engine.batch import default_engine
from repro.obs import get_metrics, reset_metrics
from repro.sat.api import sat, sat_batch
from repro.sat.brlt_scanrow import sat_brlt_scanrow
from repro.sat.scanrow_brlt import sat_scanrow_brlt

from ..helpers import make_image


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "0")
    default_engine().cache.clear()
    reset_metrics()
    yield
    default_engine().cache.clear()


def _plans(cache):
    return list(cache._plans.values())


class TestLifecycle:
    def test_cold_records_and_lowers_then_warm_replays(self):
        img = make_image((64, 48), "8u32s", seed=1)
        m = get_metrics()
        cold = sat(img, pair="8u32s", backend="gpusim")
        assert cold.backend == "gpusim"
        assert m.counter_total("compile.miss") == 1
        assert m.counter_total("compile.hit") == 0
        (plan,) = _plans(default_engine().cache)
        assert plan.recorded and plan.compiled is not None
        assert plan.compiled.executions == 0

        warm = sat(img, pair="8u32s", backend="gpusim")
        assert warm.backend == "gpusim"
        assert plan.compiled.executions == 1
        assert m.counter_total("compile.hit") == 1
        assert warm.output.tobytes() == cold.output.tobytes()
        # Warm counters/timings are clones of the recorded cold launch.
        assert warm.time_us == pytest.approx(cold.time_us)
        for a, b in zip(warm.launches, cold.launches):
            assert a.counters.as_dict() == b.counters.as_dict()

    @pytest.mark.parametrize("single_backend, batch_backend", [
        ("gpusim", "gpusim"),
        ("compiled", "compiled"),
        ("gpusim", "compiled"),
    ])
    def test_sat_and_sat_batch_share_one_plan(self, single_backend,
                                              batch_backend):
        """A single call is a one-image batch, and ``compiled`` is an
        alias of ``gpusim``: both calls record, lower and reuse one plan
        for their bucket, and both report ``gpusim``."""
        img = make_image((64, 64), "8u32s", seed=6)
        m = get_metrics()
        single = sat(img, pair="8u32s", algorithm="brlt_scanrow",
                     backend=single_backend)
        batch = sat_batch([img], pair="8u32s", algorithm="brlt_scanrow",
                          backend=batch_backend)
        assert len(default_engine().cache.keys()) == 1
        assert m.counter_total("compile.miss") == 1
        assert batch.plan_hits == 1 and batch.plan_misses == 0
        assert single.backend == batch.runs[0].backend == "gpusim"
        assert batch.runs[0].output.tobytes() == single.output.tobytes()

    @pytest.mark.parametrize("pair", ["8u32s", "8u32f", "8u64f", "32f32f",
                                      "32f64f", "64f64f"])
    @pytest.mark.parametrize("algorithm", ["brlt_scanrow", "scan_row_column"])
    def test_plans_run_transpose_free(self, algorithm, pair):
        """Serial passes have a body for each physical axis, so layout
        propagation never materialises a transpose, whatever the pair."""
        img = make_image((64, 96), pair, seed=2)
        cold = sat(img, pair=pair, algorithm=algorithm, backend="gpusim")
        warm = sat(img, pair=pair, algorithm=algorithm, backend="gpusim")
        (plan,) = _plans(default_engine().cache)
        assert plan.compiled.executions == 1
        assert plan.compiled.transposes == 0
        assert warm.output.tobytes() == cold.output.tobytes()

    def test_execute_failure_falls_back_and_recompiles(self):
        img = make_image((40, 40), "8u32s", seed=3)
        ref = sat_brlt_scanrow(img, pair="8u32s")
        sat(img, pair="8u32s", backend="gpusim")
        (plan,) = _plans(default_engine().cache)

        def boom(stack):
            raise RuntimeError("lowered program diverged")

        for p in plan.compiled.passes:
            p.rows = p.cols = boom
        m = get_metrics()
        out = sat(img, pair="8u32s", backend="gpusim")
        assert out.output.tobytes() == ref.output.tobytes()
        assert m.counter_total("compile.fallback") == 1
        assert plan.compiled is None  # program dropped, plan kept

        # The recorded plan is intact: the next call recompiles and runs
        # the fresh program.
        again = sat(img, pair="8u32s", backend="gpusim")
        assert plan.compiled is not None
        assert m.counter_total("compile.miss") == 2
        assert again.output.tobytes() == ref.output.tobytes()

    def test_lowering_refusal_pins_interpreted_path(self, monkeypatch):
        from repro.compile import ops

        monkeypatch.delitem(ops.WARP_SCAN_LOWERED, "brent_kung")
        img = make_image((48, 32), "32f32f", seed=4)
        ref = sat_scanrow_brlt(img, pair="32f32f", scan="brent_kung")
        m = get_metrics()
        cold = sat(img, pair="32f32f", algorithm="scanrow_brlt",
                   scan="brent_kung", backend="gpusim")
        assert m.counter_total("compile.fallback") == 1
        (plan,) = _plans(default_engine().cache)
        assert plan.compiled is None
        assert plan.compile_attempts == plan.MAX_COMPILE_ATTEMPTS

        # Warm calls stay interpreted without re-attempting the lowering.
        warm = sat(img, pair="32f32f", algorithm="scanrow_brlt",
                   scan="brent_kung", backend="gpusim")
        assert m.counter_total("compile.fallback") == 1
        assert warm.backend == "gpusim"
        for r in (cold, warm):
            assert r.output.tobytes() == ref.output.tobytes()

    def test_sanitize_delegates_to_interpreter(self):
        img = make_image((33, 31), "8u32s", seed=5)
        run = sat(img, pair="8u32s", backend="gpusim", sanitize=True)
        assert run.backend == "gpusim"
        assert all(s.timing.sanitizer is not None for s in run.launches)
        assert _plans(default_engine().cache) == []


class TestBatchLifecycle:
    def test_batch_fallback_replays_interpreted(self):
        imgs = [make_image((64, 64), "8u32s", seed=i) for i in range(4)]
        ref = Engine().run_batch(imgs, pair="8u32s")
        eng = Engine()
        eng.run_batch(imgs, pair="8u32s", backend="gpusim")
        (plan,) = _plans(eng.cache)

        def boom(stack):
            raise RuntimeError("lowered program diverged")

        for p in plan.compiled.passes:
            p.rows = p.cols = boom
        m = get_metrics()
        got = eng.run_batch(imgs, pair="8u32s", backend="gpusim")
        assert m.counter_total("compile.fallback") >= 1
        assert plan.compiled is None
        for r, c in zip(ref.runs, got.runs):
            assert r.output.tobytes() == c.output.tobytes()

        # Recompiled on the next batch; warm images execute compiled.
        again = eng.run_batch(imgs, pair="8u32s", backend="gpusim")
        assert plan.compiled is not None and plan.compiled.executions > 0
        for r, c in zip(ref.runs, again.runs):
            assert r.output.tobytes() == c.output.tobytes()

    def test_batch_hits_count_per_image(self):
        imgs = [make_image((64, 64), "8u32s", seed=i) for i in range(5)]
        eng = Engine()
        m = get_metrics()
        eng.run_batch(imgs, pair="8u32s", backend="gpusim")
        # One cold image records; the other four execute compiled.
        assert m.counter_total("compile.miss") == 1
        assert m.counter_total("compile.hit") == 4

