"""Worker-pool fault isolation: injected failures poison nothing but
their own request.

``WorkerPool._run_group`` is the execution seam: tests wrap it to raise
``CompileError`` (the engine's lowering error) or a plain
``RuntimeError`` (standing for any exception escaping the engine) for
marked "poison" images.  The contract under test:

* a failing batched launch is retried solo, so batch-mates of a poisoned
  request still succeed, bit-identical to direct ``sat()``;
* the poisoned request fails with a structured
  :class:`~repro.serve.request.ServeError` (``code="execution_error"``,
  original exception type in ``details``), never a bare traceback;
* ``serve.worker_error`` / ``serve.errors`` metrics record the failure;
* the pool keeps serving: every worker stays alive and later requests
  complete normally;
* ``finish()`` failures (bad per-request parameters) fail only their
  request with ``code="bad_request"``.
"""

import numpy as np
import pytest

from repro.compile.lower import CompileError
from repro.obs import get_metrics, reset_metrics
from repro.sat.api import sat
from repro.serve import RectSumRequest, SatRequest, SatService, ServeError

#: Pixel value marking an image as poison for the injected fault.
POISON = 137


def _img(seed=0, shape=(32, 32)):
    img = np.random.default_rng(seed).integers(
        0, 100, size=shape, dtype=np.uint8)
    img[0, 0] = 0   # never the poison marker by accident
    return img


def _poison_img(shape=(32, 32)):
    img = _img(seed=99, shape=shape)
    img[0, 0] = POISON
    return img


@pytest.fixture
def svc():
    reset_metrics()
    with SatService(workers=2, max_delay_s=0.005) as service:
        yield service


def _inject(service, exc_type, monkeypatch):
    """Make the pool's engine submission raise ``exc_type`` whenever the
    group contains a poison-marked image."""
    original = service.pool._run_group

    def failing(images, key):
        if any(int(im[0, 0]) == POISON for im in images):
            raise exc_type(f"injected {exc_type.__name__}")
        return original(images, key)

    monkeypatch.setattr(service.pool, "_run_group", failing)


@pytest.mark.parametrize("exc_type", [RuntimeError, CompileError])
class TestExecutionFaults:
    def test_poison_fails_alone_batchmates_succeed(self, svc, monkeypatch,
                                                   exc_type):
        _inject(svc, exc_type, monkeypatch)
        clean = [_img(seed=i) for i in range(5)]
        futs = [svc.submit(SatRequest(im)) for im in clean]
        poison_fut = svc.submit(SatRequest(_poison_img()))

        for im, fut in zip(clean, futs):
            resp = fut.result(timeout=30)
            assert np.array_equal(resp.result, sat(im).output)
        with pytest.raises(ServeError) as ei:
            poison_fut.result(timeout=30)
        err = ei.value
        assert err.code == "execution_error"
        assert err.details["error"] == exc_type.__name__
        assert err.details["batch_error"] == exc_type.__name__
        assert err.request_id is not None
        assert err.to_dict()["code"] == "execution_error"

    def test_pool_keeps_serving_after_fault(self, svc, monkeypatch,
                                            exc_type):
        _inject(svc, exc_type, monkeypatch)
        with pytest.raises(ServeError):
            svc.sat(_poison_img(), timeout=30)
        assert svc.pool.alive == svc.pool.n_workers
        im = _img(seed=3)
        assert np.array_equal(svc.sat(im, timeout=30), sat(im).output)
        assert svc.health()["status"] == "ok"

    def test_worker_error_metric_recorded(self, svc, monkeypatch, exc_type):
        _inject(svc, exc_type, monkeypatch)
        with pytest.raises(ServeError):
            svc.sat(_poison_img(), timeout=30)
        m = get_metrics()
        assert m.value("serve.worker_error", error=exc_type.__name__) >= 1
        assert m.value("serve.errors", code="execution_error") == 1

    def test_repeated_faults_do_not_accumulate_damage(self, svc,
                                                      monkeypatch, exc_type):
        _inject(svc, exc_type, monkeypatch)
        for _ in range(4):
            with pytest.raises(ServeError):
                svc.sat(_poison_img(), timeout=30)
        assert svc.pool.alive == svc.pool.n_workers
        im = _img(seed=5)
        assert np.array_equal(svc.sat(im, timeout=30), sat(im).output)
        assert get_metrics().value("serve.errors",
                                   code="execution_error") == 4


class TestFinishFaults:
    def test_bad_rects_fail_as_bad_request(self, svc):
        with pytest.raises(ServeError) as ei:
            svc.request(RectSumRequest(_img(), rects=[]), timeout=30)
        assert ei.value.code == "bad_request"
        assert get_metrics().value("serve.errors", code="bad_request") == 1

    def test_finish_fault_spares_batchmates(self, svc):
        good = _img(seed=1)
        futs = [svc.submit(SatRequest(good)) for _ in range(3)]
        bad = svc.submit(RectSumRequest(_img(seed=2), rects=[]))
        for fut in futs:
            assert np.array_equal(fut.result(timeout=30).result,
                                  sat(good).output)
        with pytest.raises(ServeError):
            bad.result(timeout=30)
        assert svc.pool.alive == svc.pool.n_workers

    def test_submit_side_validation_is_synchronous(self, svc):
        with pytest.raises(ValueError, match="does not match pair"):
            svc.submit(SatRequest(
                np.zeros((8, 8), np.float32), pair="8u32s"))
        with pytest.raises(KeyError, match="unknown algorithm"):
            svc.submit(SatRequest(_img(), algorithm="nope"))

    def test_shutdown_error_after_close(self):
        service = SatService(workers=1)
        service.close()
        with pytest.raises(ServeError) as ei:
            service.submit(SatRequest(_img()))
        assert ei.value.code == "shutdown"


class TestLastResortLoopGuard:
    def test_completion_stage_crash_fails_batch_not_worker(self, svc,
                                                           monkeypatch):
        """An exception escaping even the solo-retry path must fail the
        batch's futures (execution_error) and leave the worker alive."""
        monkeypatch.setattr(
            svc.pool, "_execute",
            lambda batch: (_ for _ in ()).throw(RuntimeError("boom")))
        fut = svc.submit(SatRequest(_img()))
        with pytest.raises(ServeError) as ei:
            fut.result(timeout=30)
        assert ei.value.code == "execution_error"
        assert svc.pool.alive == svc.pool.n_workers
        monkeypatch.undo()
        im = _img(seed=8)
        assert np.array_equal(svc.sat(im, timeout=30), sat(im).output)
