"""Load-generator harness: report shape, arrival models, error paths."""

import json

import numpy as np
import pytest

from repro.obs import reset_metrics
from repro.sat.api import sat
from repro.serve import (
    LoadReport,
    RectSumRequest,
    SatRequest,
    SatService,
    run_closed_loop,
    run_open_loop,
)


def _imgs(n=4, shape=(32, 32)):
    rng = np.random.default_rng(5)
    return [rng.integers(0, 255, size=shape, dtype=np.uint8)
            for _ in range(n)]


@pytest.fixture
def svc():
    reset_metrics()
    with SatService(workers=2, max_delay_s=0.004) as service:
        yield service


class TestClosedLoop:
    def test_report_accounting(self, svc):
        rep = run_closed_loop(svc, _imgs(), clients=4, requests_per_client=6)
        assert isinstance(rep, LoadReport)
        assert rep.mode == "closed" and rep.clients == 4
        assert rep.n_requests == 24 and rep.n_ok == 24 and rep.n_errors == 0
        assert rep.throughput_rps > 0
        assert rep.duration_s > 0
        lat = rep.latency_ms
        assert set(lat) == {"p50", "p95", "p99", "mean", "max"}
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert 0.0 <= rep.coalesce_ratio <= 1.0
        assert rep.mean_batch_size >= 1.0
        assert sum(rep.batch_reasons.values()) == 24

    def test_same_shape_stream_coalesces(self, svc):
        rep = run_closed_loop(svc, _imgs(1), clients=6,
                              requests_per_client=6)
        assert rep.coalesce_ratio > 0.5
        assert rep.mean_batch_size > 1.0

    def test_custom_request_factory(self, svc):
        imgs = _imgs(2)
        tables = [sat(im).output for im in imgs]

        def factory(i):
            return RectSumRequest(imgs[i % 2], rects=[(0, 0, 8, 8)])

        rep = run_closed_loop(svc, imgs, clients=2, requests_per_client=4,
                              request_factory=factory)
        assert rep.n_ok == 8 and rep.n_errors == 0
        del tables

    def test_errors_counted_not_raised(self, svc):
        def factory(i):
            if i % 2:
                return SatRequest(np.zeros((2, 2, 2), np.uint8))  # invalid
            return SatRequest(_imgs(1)[0])

        rep = run_closed_loop(svc, _imgs(1), clients=2,
                              requests_per_client=4, request_factory=factory)
        assert rep.n_errors == 4 and rep.n_ok == 4
        assert rep.n_requests == 8
        # Throughput counts completed requests only: failures are not served.
        assert rep.throughput_rps == rep.n_ok / rep.duration_s

    def test_needs_images_or_factory(self, svc):
        with pytest.raises(ValueError, match="at least one image"):
            run_closed_loop(svc, [], clients=1)


class TestOpenLoop:
    def test_report_accounting(self, svc):
        rep = run_open_loop(svc, _imgs(), rate_rps=400.0, n_requests=20)
        assert rep.mode == "open"
        assert rep.offered_rps == 400.0
        assert rep.n_requests == 20 and rep.n_errors == 0
        assert rep.latency_ms["p50"] > 0
        # Can't exceed the offered rate by definition of the window.
        assert rep.throughput_rps <= 400.0 * 1.5

    def test_invalid_requests_counted(self, svc):
        def factory(i):
            if i == 0:
                return SatRequest(np.zeros((2, 2, 2), np.uint8))
            return SatRequest(_imgs(1)[0])

        rep = run_open_loop(svc, _imgs(1), rate_rps=500.0, n_requests=5,
                            request_factory=factory)
        assert rep.n_errors == 1 and rep.n_ok == 4

    def test_rejects_bad_rate(self, svc):
        with pytest.raises(ValueError, match="rate_rps"):
            run_open_loop(svc, _imgs(1), rate_rps=0.0)


class TestReportSerialisation:
    def test_to_dict_is_json_ready(self, svc):
        rep = run_closed_loop(svc, _imgs(1), clients=2,
                              requests_per_client=3)
        d = rep.to_dict()
        json.dumps(d)
        assert d["mode"] == "closed"
        assert d["n_requests"] == 6
        assert "p99" in d["latency_ms"]
