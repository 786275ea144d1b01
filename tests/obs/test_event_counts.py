"""Exact registry updates per warm operation.

Every ``inc``, ``observe``, ``set`` and ``add`` on a metrics instrument
is counted, on every thread, for one warm call of each entry point
under a pinned config (``gpusim``; sanitizer, bounds checks and
autotune off), so every CI profile sees the same numbers.  A change
that moves a count updates its pin here and says why in CHANGES.md.

Where the counts come from (``8u32s``, two-pass ``brlt_scanrow``):

* a warm ``sat()`` or ``sat_batch`` is one engine batch: one
  ``compile.hit``, two ``gpusim.replays`` (one per pass) and five
  per-batch engine series;
* one warm serve request adds, on the caller, ``serve.requests`` and the
  queue-depth gauge, and on the worker the four admission updates, one
  response counter and the latency histogram;
* a warm 4x4-tile sharded call is 16 one-image batches plus five
  per-call shard counters.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.batch import sat_batch
from repro.exec.config import ExecutionConfig, execution
from repro.obs import metrics
from repro.sat.api import sat
from repro.serve import SatRequest, SatService
from repro.shard import sharded_sat

from ..helpers import make_image

CONFIG = ExecutionConfig(backend="gpusim", sanitize=False,
                         bounds_check=False, autotune=False)
PAIR = "8u32s"
SHAPE = (128, 128)

WARM_SAT = 8
WARM_SAT_BATCH = 8
WARM_SERVE_REQUEST = 16
#: 16 tiles x 8 engine updates, plus shard.runs, shard.tiles,
#: shard.carry_ops, shard.lookback.steps and shard.lookback.deferred.
WARM_SHARDED = 16 * 8 + 5


@pytest.fixture
def updates(monkeypatch):
    """A counter of registry updates; read it with ``updates()``."""
    n = [0]
    lock = threading.Lock()

    def counting(real):
        def update(self, *args):
            with lock:
                n[0] += 1
            return real(self, *args)
        return update

    for cls, names in ((metrics.Counter, ("inc",)),
                       (metrics.Histogram, ("observe",)),
                       (metrics.Gauge, ("set", "add"))):
        for name in names:
            monkeypatch.setattr(cls, name, counting(getattr(cls, name)))

    def read_and_reset():
        with lock:
            value, n[0] = n[0], 0
        return value

    return read_and_reset


def _warm(call, updates) -> int:
    """Registry updates of the second of two identical calls."""
    with execution(CONFIG):
        call()
        updates()
        call()
        return updates()


def test_warm_sat(updates):
    img = make_image(SHAPE, PAIR, seed=0)
    assert _warm(lambda: sat(img, pair=PAIR), updates) == WARM_SAT


def test_warm_sat_batch(updates):
    imgs = [make_image(SHAPE, PAIR, seed=i) for i in range(8)]
    assert _warm(lambda: sat_batch(imgs, pair=PAIR),
                 updates) == WARM_SAT_BATCH


def test_warm_serve_request(updates):
    img = make_image(SHAPE, PAIR, seed=0)
    with SatService(workers=1, config=CONFIG) as svc:
        got = _warm(lambda: svc.request(SatRequest(img, pair=PAIR),
                                        timeout=60), updates)
    assert got == WARM_SERVE_REQUEST


def test_warm_sharded_call(updates):
    img = make_image((512, 512), PAIR, seed=0)
    got = _warm(lambda: sharded_sat(img, pair=PAIR, shard={
        "tile_shape": (128, 128), "devices": "2xP100"}), updates)
    assert got == WARM_SHARDED
