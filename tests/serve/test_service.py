"""SatService end-to-end: concurrency acceptance, endpoints, lifecycle.

The headline test is the ISSUE's acceptance criterion: a closed-loop load
from 8+ client threads with mixed shapes and dtypes, where **every**
response must be bit-identical to a serial ``sat()`` of the same image —
coalescing is an optimisation, never an observable.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.exec.config import execution
from repro.obs import get_metrics, reset_metrics
from repro.sat.api import sat
from repro.sat.box_filter import box_filter as direct_box_filter
from repro.sat.box_filter import rect_sums as direct_rect_sums
from repro.sat.naive import exclusive_from_inclusive
from repro.serve import batcher as batcher_mod
from repro.serve import (
    BoxFilterRequest,
    RectSumRequest,
    SatRequest,
    SatService,
    ServeError,
)

from ..helpers import count_resolves

RNG = np.random.default_rng(42)

#: Mixed workload: three u8 shapes (two sharing a bucket) and one f32.
def _mixed_images():
    imgs = [
        RNG.integers(0, 255, size=(48, 64), dtype=np.uint8),
        RNG.integers(0, 255, size=(45, 61), dtype=np.uint8),  # same bucket
        RNG.integers(0, 255, size=(96, 32), dtype=np.uint8),
        RNG.random((48, 64), dtype=np.float32),
    ]
    return imgs


@pytest.fixture
def svc():
    reset_metrics()
    with SatService(workers=3, max_delay_s=0.005) as service:
        yield service


class TestAcceptanceConcurrency:
    def test_closed_loop_mixed_tenants_bit_identical(self, svc):
        """8 client threads × 6 requests, mixed shapes/dtypes: every
        response equals the serial reference bit for bit."""
        imgs = _mixed_images()
        refs = [sat(im).output for im in imgs]
        n_clients, per_client = 8, 6
        results = {}
        errors = []
        lock = threading.Lock()
        gate = threading.Event()

        def client(cid):
            gate.wait()
            for j in range(per_client):
                idx = (cid + j) % len(imgs)
                try:
                    resp = svc.request(SatRequest(imgs[idx]), timeout=60)
                except Exception as exc:  # pragma: no cover - fail below
                    with lock:
                        errors.append(exc)
                    continue
                with lock:
                    results[(cid, j)] = (idx, resp)

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(n_clients)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()

        assert not errors, errors
        assert len(results) == n_clients * per_client
        for (cid, j), (idx, resp) in results.items():
            assert np.array_equal(resp.result, refs[idx]), \
                f"client {cid} request {j} diverged from serial sat()"
        # Under 8 concurrent clients on 4 keys, coalescing must happen.
        assert any(resp.coalesced for _, resp in results.values())

    def test_same_shape_stream_coalesces_majority(self, svc):
        """The ISSUE's coalesce bar: >50% of a same-shape stream rides
        shared launches."""
        img = _mixed_images()[0]
        ref = sat(img).output
        n = 32
        futs = [svc.submit(SatRequest(img)) for _ in range(n)]
        resps = [f.result(timeout=60) for f in futs]
        for r in resps:
            assert np.array_equal(r.result, ref)
        coalesced = sum(1 for r in resps if r.coalesced)
        assert coalesced / n > 0.5
        assert svc.stats()["coalesce_ratio"] > 0.5

    def test_mixed_kinds_share_one_launch(self, svc):
        """sat / rect_sum / box_filter on one bucket coalesce: all kinds
        reduce to the same SAT, finish() differs per request."""
        img = _mixed_images()[0]
        table = sat(img).output
        rects = np.array([[0, 0, 10, 10], [4, 4, 40, 60]])
        futs = [
            svc.submit(SatRequest(img)),
            svc.submit(RectSumRequest(img, rects=rects)),
            svc.submit(BoxFilterRequest(img, radius=2)),
            svc.submit(SatRequest(img, exclusive=True)),
        ]
        sat_r, rect_r, box_r, ex_r = [f.result(timeout=60) for f in futs]
        assert np.array_equal(sat_r.result, table)
        assert np.array_equal(
            rect_r.result,
            direct_rect_sums(table, rects[:, 0], rects[:, 1],
                             rects[:, 2], rects[:, 3]))
        assert np.array_equal(box_r.result,
                              direct_box_filter(table, 2, normalize=True))
        assert np.array_equal(ex_r.result, exclusive_from_inclusive(table))
        assert all(r.coalesced for r in (sat_r, rect_r, box_r, ex_r))
        assert {r.kind for r in (sat_r, rect_r, box_r, ex_r)} == \
            {"sat", "rect_sum", "box_filter"}

    def test_busy_workers_coalesce_without_a_timer(self, monkeypatch):
        """Default service (no linger): 8 closed-loop clients on one shape
        keep 2 workers busy, and the requests that queue meanwhile leave
        together when a worker asks.  The clients send in rounds, and
        each batch is held until every client's request of the round is
        queued, in a batch or answered.  A round then leaves in at most
        three batches (each worker's first take, then the rest together),
        so at least 6 of every 8 requests coalesce however the threads
        are scheduled."""
        reset_metrics()
        img = _mixed_images()[0]
        ref = sat(img).output
        n_clients, per_client = 8, 8
        resps, errors = [], []
        lock = threading.Lock()
        gate = threading.Event()
        # Requests in taken batches, and clients answered this round.
        seen = threading.Condition()
        batched, answered = [0], [0]

        def next_round():
            with seen:
                answered[0] = 0

        rounds = threading.Barrier(n_clients, action=next_round)
        real_run_group = Engine.run_group

        def held_run_group(engine, images, *args, **kwargs):
            with seen:
                batched[0] += len(images)
                seen.wait_for(lambda: service.batcher.queue_depth
                              + batched[0] + answered[0] >= n_clients,
                              timeout=30)
            try:
                return real_run_group(engine, images, *args, **kwargs)
            finally:
                with seen:
                    batched[0] -= len(images)

        def client():
            gate.wait()
            for _ in range(per_client):
                try:
                    fut = service.submit(SatRequest(img))
                    with seen:
                        seen.notify_all()
                    resp = fut.result(timeout=60)
                except Exception as exc:  # pragma: no cover - fail below
                    with lock:
                        errors.append(exc)
                else:
                    with lock:
                        resps.append(resp)
                with seen:
                    answered[0] += 1
                    seen.notify_all()
                rounds.wait(timeout=60)

        monkeypatch.setattr(Engine, "run_group", held_run_group)
        with SatService(workers=2) as service:
            threads = [threading.Thread(target=client)
                       for _ in range(n_clients)]
            for t in threads:
                t.start()
            gate.set()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            ratio = service.stats()["coalesce_ratio"]
        assert not errors, errors
        assert len(resps) == n_clients * per_client
        for r in resps:
            assert np.array_equal(r.result, ref)
        assert ratio > 0.5

    @given(picks=st.lists(st.integers(0, 3), min_size=1, max_size=8))
    @settings(deadline=None, max_examples=5)
    def test_property_any_mix_is_bit_identical(self, picks):
        """Hypothesis-generated request mixes through a fresh service
        match direct sat() exactly — shapes, buckets and dtypes mixed."""
        imgs = _mixed_images()
        refs = [sat(im).output for im in imgs]
        with SatService(workers=2, max_delay_s=0.003) as service:
            futs = [service.submit(SatRequest(imgs[i])) for i in picks]
            for i, fut in zip(picks, futs):
                assert np.array_equal(fut.result(timeout=60).result, refs[i])


class TestResponses:
    def test_response_envelope(self, svc):
        img = _mixed_images()[0]
        resp = svc.request(SatRequest(img), timeout=60)
        assert resp.kind == "sat"
        assert resp.request_id > 0
        assert resp.latency_us > 0
        assert resp.batch_size >= 1
        assert resp.batch_reason in ("size", "deadline", "flush")

    def test_sat_batch_convenience(self, svc):
        imgs = _mixed_images()
        outs = svc.sat_batch(imgs, timeout=60)
        for out, im in zip(outs, imgs):
            assert np.array_equal(out, sat(im).output)

    def test_rect_sums_and_box_filter_conveniences(self, svc):
        img = _mixed_images()[2]
        table = sat(img).output
        got = svc.rect_sums(img, [(0, 0, 5, 5)], timeout=60)
        want = direct_rect_sums(table, np.array([0]), np.array([0]),
                                np.array([5]), np.array([5]))
        assert np.array_equal(got, want)
        assert np.array_equal(
            svc.box_filter(img, 1, timeout=60),
            direct_box_filter(table, 1, normalize=True))


    def test_warm_request_resolves_its_config_once(self, monkeypatch):
        """The service resolves each request on the submitting thread;
        the worker's engine call runs that config as it is."""
        img = _mixed_images()[0]
        cfg = {"sanitize": False, "bounds_check": False}
        with SatService(workers=1, config=cfg) as service:
            cold = service.sat(img, algorithm="brlt_scanrow", timeout=60)
            calls = count_resolves(monkeypatch)
            warm = service.sat(img, algorithm="brlt_scanrow", timeout=60)
        assert dict(calls) == {"repro.serve.service": 1}
        assert np.array_equal(warm, cold)

    def test_timeline_starts_at_the_public_call(self, monkeypatch):
        """Config resolution on the submitting thread is part of the
        request: a slow ``_resolve`` shows up in ``submit_us``, and the
        stages still sum to the reported latency."""
        img = _mixed_images()[0]
        with SatService(workers=1) as service:
            service.sat(img, timeout=60)  # cold bucket out of the way
            real = service._resolve

            def slow_resolve(request):
                time.sleep(0.02)
                return real(request)

            monkeypatch.setattr(service, "_resolve", slow_resolve)
            resp = service.request(SatRequest(img), timeout=60)
        tl = resp.timeline
        assert tl.submit_us >= 20_000
        assert tl.components_sum_us() == pytest.approx(tl.latency_us,
                                                       rel=0.01)
        assert resp.latency_us == pytest.approx(tl.latency_us, rel=1e-9)

    def test_submit_stage_covers_the_callers_work(self, monkeypatch):
        """The submit stage ends once the request is queued, its events
        emitted and the workers woken: a slow ``serve.requests`` event
        shows up in ``submit_us``, not in ``queue_wait_us``."""
        img = _mixed_images()[0]
        real = batcher_mod.emit

        def slow_emit(name, *args, **fields):
            if name == "serve.requests":
                time.sleep(0.005)
            return real(name, *args, **fields)

        with SatService(workers=1) as service:
            service.sat(img, timeout=60)  # cold bucket out of the way
            monkeypatch.setattr(batcher_mod, "emit", slow_emit)
            resp = service.request(SatRequest(img), timeout=60)
        tl = resp.timeline
        assert tl.submit_us >= 5_000
        assert tl.queue_wait_us < 5_000
        assert tl.components_sum_us() == pytest.approx(tl.latency_us,
                                                       rel=0.01)


class TestEndpoints:
    def test_health_shape(self, svc):
        h = svc.health()
        assert h["status"] == "ok"
        assert h["workers"] == {"alive": 3, "configured": 3}
        assert h["uptime_s"] >= 0
        assert h["closed"] is False

    def test_stats_after_traffic(self, svc):
        imgs = _mixed_images()
        svc.sat_batch([imgs[0]] * 8, timeout=60)
        s = svc.stats()
        assert s["requests"] == 8 and s["responses"] == 8
        assert s["errors"] == 0
        assert 0.0 <= s["coalesce_ratio"] <= 1.0
        # Sanitized runs bypass the plan cache, so assert the structure
        # rather than a count.
        assert set(s["plan_cache"]) == \
            {"size", "hits", "misses", "evictions", "hit_rate"}
        assert any(k.startswith("serve.") for k in s["metrics"])
        json.dumps(s)   # must be JSON-serialisable for the HTTP facade

    def test_http_endpoints(self, svc):
        host, port = svc.start_http()
        assert port > 0
        # Idempotent: second call returns the same binding.
        assert svc.start_http() == (host, port)
        svc.sat(_mixed_images()[0], timeout=60)
        health = json.loads(urllib.request.urlopen(
            f"http://{host}:{port}/health", timeout=10).read())
        assert health["status"] == "ok"
        stats = json.loads(urllib.request.urlopen(
            f"http://{host}:{port}/stats", timeout=10).read())
        assert stats["responses"] >= 1
        with pytest.raises(urllib.error.HTTPError) as ei:
            urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=10)
        assert ei.value.code == 404

    def test_metrics_registry_names(self, svc):
        svc.sat_batch([_mixed_images()[0]] * 4, timeout=60)
        m = get_metrics()
        assert m.counter_total("serve.requests") == 4
        assert m.counter_total("serve.responses") == 4
        assert m.counter_total("serve.batches") >= 1
        assert m.histogram("serve.request_latency_us").count == 4
        assert m.histogram("serve.batch_size").count >= 1


class TestLifecycle:
    def test_close_drains_pending(self):
        reset_metrics()
        imgs = _mixed_images()
        service = SatService(workers=2, max_delay_s=0.05)  # long window
        futs = [service.submit(SatRequest(imgs[i % len(imgs)]))
                for i in range(6)]
        service.close()     # must flush + complete, not drop
        for i, fut in enumerate(futs):
            resp = fut.result(timeout=60)
            assert np.array_equal(resp.result,
                                  sat(imgs[i % len(imgs)]).output)
        assert service.health()["status"] == "stopped"

    def test_close_is_idempotent(self):
        service = SatService(workers=1)
        service.close()
        service.close()

    def test_context_manager(self):
        with SatService(workers=1) as service:
            img = np.ones((16, 16), np.uint8)
            assert np.array_equal(service.sat(img, timeout=60),
                                  sat(img).output)
        with pytest.raises(ServeError):
            service.submit(SatRequest(img))

    def test_submit_racing_close_is_structured(self):
        """close() landing between the service's closed check and the
        batcher's queueing still fails with ServeError(shutdown)."""
        with SatService(workers=1) as service:
            service.batcher.close()
            with pytest.raises(ServeError) as ei:
                service.submit(SatRequest(np.ones((16, 16), np.uint8)))
        assert ei.value.code == "shutdown"

    def test_baseline_ignores_an_ambient_backend(self):
        """A spec-less baseline runs its own CPU path whatever backend the
        submitter's context prefers, as a direct ``sat()`` does.  A
        non-gpusim backend in the request's own config is rejected at
        submit, with the ``ValueError`` ``sat()`` raises."""
        img = np.random.default_rng(5).integers(0, 255, size=(40, 56),
                                                dtype=np.uint8)
        with execution(backend="host"):
            ref = sat(img, pair="8u32s", algorithm="opencv").output
            with SatService(workers=1) as service:
                got = service.sat(img, pair="8u32s", algorithm="opencv",
                                  timeout=60)
                with pytest.raises(ValueError, match="no kernel spec"):
                    service.submit(SatRequest(img, pair="8u32s",
                                              algorithm="opencv",
                                              config={"backend": "host"}))
        np.testing.assert_array_equal(got, ref)

    def test_per_request_config_separates_batches(self, svc):
        """Requests pinning different execution modes must not share a
        launch, even at the same shape."""
        img = _mixed_images()[0]
        f_true = svc.submit(SatRequest(img, config={"bounds_check": True}))
        f_false = svc.submit(SatRequest(img, config={"bounds_check": False}))
        r_true = f_true.result(timeout=60)
        r_false = f_false.result(timeout=60)
        # Identical data (bounds checks only observe) but separate batches.
        assert np.array_equal(r_true.result, r_false.result)
        assert r_true.batch_size == 1 and r_false.batch_size == 1
