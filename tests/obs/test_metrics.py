"""MetricsRegistry instruments, labels and stack integration."""

from __future__ import annotations

import json

import pytest

from repro import sat, sat_batch
from repro.engine import Engine
from repro.obs import MetricsRegistry, get_metrics, reset_metrics
from repro.sat.brlt_scanrow import sat_brlt_scanrow

from ..helpers import make_image


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(4)
        assert reg.value("hits") == 5.0
        assert reg.value("misses") is None

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").set(7)
        assert reg.value("depth") == 7.0

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in (2.0, 8.0, 5.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3 and s["sum"] == 15.0
        assert s["min"] == 2.0 and s["max"] == 8.0 and s["mean"] == 5.0
        # Bucketed quantile estimates live alongside the exact moments;
        # they are accurate to one log-bucket width (~19%) and clamped to
        # the observed range.
        assert 2.0 <= s["p50"] <= 8.0
        assert s["p50"] <= s["p95"] <= s["p99"] <= 8.0
        empty = reg.histogram("empty").summary()
        assert empty["count"] == 0 and empty["p99"] == 0.0

    def test_histogram_quantiles_track_exact(self):
        import numpy as np

        from repro.obs.quantiles import GROWTH

        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=3.0, sigma=0.8, size=5000)
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in values:
            h.observe(float(v))
        for q, exact in zip((0.5, 0.95, 0.99),
                            np.percentile(values, [50, 95, 99])):
            est = h.quantile(q)
            # One log-bucket of relative error, by construction.
            assert exact / GROWTH <= est <= exact * GROWTH

    def test_histogram_count_below(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 10.0, 100.0, 1000.0):
            h.observe(v)
        assert h.count_below(0.5) == 0
        assert h.count_below(15.0) == 2
        assert h.count_below(5000.0) == 4

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("calls", algo="a").inc()
        reg.counter("calls", algo="b").inc(2)
        assert reg.value("calls", algo="a") == 1.0
        assert reg.value("calls", algo="b") == 2.0
        assert reg.counter_total("calls") == 3.0

    def test_snapshot_is_json_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a", k="v").inc()
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a{k=v}"] == 1.0
        json.dumps(snap)  # JSON-serialisable throughout

    def test_snapshot_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("gpusim.launches").inc()
        reg.counter("engine.batches").inc()
        assert list(reg.snapshot(prefix="gpusim.")) == ["gpusim.launches"]

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.value("x") is None


class TestStackIntegration:
    @pytest.fixture(autouse=True)
    def _batched_mode(self):
        # Pin sanitize/bounds off: under the sanitized CI profile the
        # engine falls back to per-image execution, which would remove the
        # replay counters these tests assert on.
        from repro.exec.config import ExecutionConfig, execution

        with execution(ExecutionConfig(sanitize=False, bounds_check=False)):
            yield

    def test_sat_increments_launch_and_call_counters(self):
        """An executor run (the driver) counts its launches, one
        ``sat.calls`` and its modeled time; a warm ``sat()`` runs no
        executor and counts a one-image engine batch instead."""
        reset_metrics()
        img = make_image((64, 64), "8u32s", seed=3)
        sat_brlt_scanrow(img, pair="8u32s", backend="gpusim")
        m = get_metrics()
        assert m.counter_total("gpusim.launches") == 2.0
        assert m.value("sat.calls", algorithm="brlt_scanrow",
                       backend="gpusim") == 1.0
        h = m.histogram("sat.modeled_us", algorithm="brlt_scanrow")
        assert h.count == 1 and h.total > 0

        sat(img, pair="8u32s", algorithm="brlt_scanrow", backend="gpusim")
        reset_metrics()
        sat(img, pair="8u32s", algorithm="brlt_scanrow", backend="gpusim")
        m = get_metrics()
        assert m.counter_total("gpusim.launches") == 0
        assert m.counter_total("sat.calls") == 0
        assert m.value("engine.images", algorithm="brlt_scanrow") == 1.0
        assert m.value("engine.plan_hits") == 1.0

    def test_batch_increments_engine_and_replay_counters(self):
        reset_metrics()
        imgs = [make_image((64, 64), "8u32s", seed=i) for i in range(6)]
        run = Engine().run_batch(imgs, pair="8u32s", algorithm="brlt_scanrow",
                                 backend="gpusim")
        m = get_metrics()
        assert m.value("engine.batches", algorithm="brlt_scanrow") == 1.0
        assert m.value("engine.images", algorithm="brlt_scanrow") == 6.0
        assert m.value("engine.plan_hits") == float(run.plan_hits)
        assert m.value("engine.plan_misses") == float(run.plan_misses)
        assert m.counter_total("gpusim.replays") > 0

    def test_runner_calibration_counters(self):
        from repro.harness import Runner

        reset_metrics()
        r = Runner(calibration=128, validate=False)
        r.measure("brlt_scanrow", "8u32s", "P100", 512)
        m = get_metrics()
        assert m.value("runner.calibrations", algorithm="brlt_scanrow") == 1.0
        assert m.value("runner.projections", algorithm="brlt_scanrow") == 1.0
        assert r.metrics is m
