"""Host parallelism changes no result, and it stays safe under load.

The engine's pool (:mod:`repro.engine.pool`) computes sharded tiles as a
wavefront and runs deep warm stacks one depth slice per core.  Every
figure a call reports must equal the one-part run, where all work runs
inline and in order: outputs, every launch entry, every shard report
key and a batch's modeled times.  One part is forced by patching the
pool's part count; the parallel side uses at least two parts, so the
pool runs on any host.  The sanitizer and bounds checks are pinned off:
they keep every tile on the interpreter, with nothing to run at once.
"""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import Engine, pool
from repro.engine.batch import default_engine
from repro.engine.scheduler import BatchScheduler
from repro.exec.config import ExecutionConfig
from repro.obs import Tracer, tracing
from repro.sat.api import sat
from repro.serve import SatRequest, SatService
from repro.serve.pool import WorkerPool
from repro.shard import executor, sharded_sat

from ..helpers import make_image

PARALLEL = max(2, pool.parts())
CONFIG = ExecutionConfig(sanitize=False, bounds_check=False)
#: ``(image shape, tile shape)``: an aligned grid and two ragged ones.
GRIDS = {
    "aligned": ((2048, 3072), (1024, 1024)),
    "ragged": ((3000, 2500), (1024, 1024)),
    "small": ((100, 100), (40, 40)),
}
ALGORITHMS = ("brlt_scanrow", "scanrow_brlt", "scan_row_column")
#: Warm stacks of depth 2, 3 and 17 (shallow, odd, deep), each of at
#: least ``PARALLEL_MIN_ELEMS`` elements, so the parallel side splits
#: them.
STACKS = {2: (736, 736), 3: (608, 608), 17: (256, 256)}


@pytest.fixture
def set_parts(monkeypatch):
    def set_parts(n):
        monkeypatch.setattr(pool, "parts", lambda: n)
    return set_parts


def _sharded(img, pair, tile, backend="gpusim"):
    return sharded_sat(img, pair=pair, config=CONFIG, backend=backend,
                       shard={"tile_shape": tile, "devices": "2xP100"})


def _assert_same_shard_run(a, b):
    assert a.output.dtype == b.output.dtype
    assert a.output.tobytes() == b.output.tobytes()
    assert a.launches == b.launches
    assert a.report == b.report
    assert (a.backend, a.algorithm, a.device, a.pair) == \
        (b.backend, b.algorithm, b.device, b.pair)


@pytest.mark.parametrize("pair", ["8u32s", "32f32f", "64f64f"])
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("state", ["cleared", "warm"])
def test_sharded_run_equals_one_part_run(set_parts, pair, grid, state):
    shape, tile = GRIDS[grid]
    img = make_image(shape, pair, seed=1)
    runs = []
    for n in (PARALLEL, 1):
        set_parts(n)
        if state == "cleared":
            default_engine().cache.clear()
        else:
            _sharded(img, pair, tile)
        runs.append(_sharded(img, pair, tile))
    _assert_same_shard_run(*runs)


@pytest.mark.parametrize("pair", ["8u32s", "32f32f"])
def test_host_sharded_run_equals_one_part_run(set_parts, pair):
    shape, tile = GRIDS["small"]
    img = make_image(shape, pair, seed=2)
    runs = []
    for n in (PARALLEL, 1):
        set_parts(n)
        runs.append(_sharded(img, pair, tile, backend="host"))
    _assert_same_shard_run(*runs)


@pytest.mark.parametrize("pair", ["32f32f", "64f64f"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("depth", sorted(STACKS))
def test_warm_stack_equals_one_part_run(set_parts, depth, algorithm, pair):
    # Room for the whole stack in one chunk, so 64f64f stacks split too.
    eng = Engine(scheduler=BatchScheduler(max_stack_bytes=1 << 26))
    stack = np.stack([make_image(STACKS[depth], pair, seed=s)
                      for s in range(depth)])
    kw = dict(pair=pair, algorithm=algorithm, config=CONFIG)
    eng.run_batch(stack, **kw)
    (plan,) = eng.cache._plans.values()
    runs, calls = [], []
    for n in (PARALLEL, 1):
        set_parts(n)
        before = plan.compiled.executions
        runs.append(eng.run_batch(stack, **kw))
        calls.append(plan.compiled.executions - before)
    assert calls == [min(depth, PARALLEL), 1]
    par, one = runs
    for a, b in zip(par.runs, one.runs):
        assert a.output.tobytes() == b.output.tobytes()
        assert a.launches == b.launches
    assert par.modeled_batched_s == one.modeled_batched_s
    assert par.modeled_sequential_s == one.modeled_sequential_s
    assert (par.plan_hits, par.plan_misses) == (one.plan_hits, one.plan_misses)


# -- concurrency -------------------------------------------------------------

def _shard_in_workers(monkeypatch, tile):
    """Make every serve worker compute its requests sharded, through the
    worker pool's engine seam."""
    def run_group(self, images, key):
        return SimpleNamespace(runs=[
            sharded_sat(im, pair=key.pair, algorithm=key.algorithm,
                        config=key.config, shard={"tile_shape": tile},
                        **dict(key.opts))
            for im in images])

    monkeypatch.setattr(WorkerPool, "_run_group", run_group)


def test_two_serve_workers_shard_at_once(monkeypatch, set_parts):
    set_parts(PARALLEL)
    _shard_in_workers(monkeypatch, (256, 256))
    imgs = [make_image((768, 640), "8u32s", seed=s) for s in (3, 4)]
    refs = [sat(im, pair="8u32s", shard=False).output for im in imgs]
    with SatService(workers=2, config=CONFIG) as svc:
        futs = [svc.submit(SatRequest(im, pair="8u32s")) for im in imgs]
        outs = [f.result(timeout=120).result for f in futs]
    for out, ref in zip(outs, refs):
        assert out.tobytes() == ref.tobytes()


def test_sharded_timeline_annotations_equal_one_part_run(monkeypatch,
                                                         set_parts):
    _shard_in_workers(monkeypatch, (128, 128))
    img = make_image((500, 700), "32f32f", seed=5)
    default_engine().cache.clear()
    got = []
    for n in (PARALLEL, 1, PARALLEL):
        set_parts(n)
        with SatService(workers=1, config=CONFIG) as svc:
            # An explicit algorithm: no planner wall time on the submit side.
            resp = svc.request(SatRequest(img, pair="32f32f",
                                          algorithm="brlt_scanrow"),
                               timeout=120)
        got.append(resp.timeline.annotations)
    # The first run records the plans; the warm runs must agree exactly.
    assert got[0]["plan_misses"] > 0
    assert got[1] == got[2]
    assert got[1]["plan_hits"] == 24 and "shard_kernel_us" in got[1]


def test_large_batch_inside_a_pool_task_runs_inline(set_parts):
    set_parts(PARALLEL)
    eng = Engine()
    stack = np.stack([make_image((512, 512), "32f32f", seed=s)
                      for s in range(4)])
    kw = dict(pair="32f32f", algorithm="brlt_scanrow", config=CONFIG)
    eng.run_batch(stack, **kw)
    (plan,) = eng.cache._plans.values()
    threads = []
    real_run = plan.compiled.run

    def run(x3):
        threads.append(threading.current_thread())
        return real_run(x3)

    plan.compiled.run = run
    task = pool.submit(lambda: (threading.current_thread(),
                                eng.run_batch(stack, **kw)))
    worker, got = task.result(timeout=60)
    assert worker is not threading.current_thread()
    assert threads == [worker]
    want = eng.run_batch(stack, **kw)
    assert len(threads) == 1 + min(4, PARALLEL)
    for a, b in zip(got.runs, want.runs):
        assert a.output.tobytes() == b.output.tobytes()


def test_failing_tile_raises_after_in_flight_tiles(monkeypatch, set_parts):
    set_parts(PARALLEL)
    img = make_image((160, 160), "8u32s", seed=6)
    lock = threading.Lock()
    started, finished = [], []
    real = executor.run_single

    def spy(image, **kwargs):
        tile = divmod(image.ctypes.data - img.ctypes.data, img.strides[0])
        with lock:
            started.append(tile)
        try:
            if tile == (40, 40):
                raise RuntimeError("tile failed")
            time.sleep(0.02)
            return real(image, **kwargs)
        finally:
            with lock:
                finished.append(tile)

    monkeypatch.setattr(executor, "run_single", spy)
    with pytest.raises(RuntimeError, match="tile failed"):
        sharded_sat(img, pair="8u32s", config=CONFIG,
                    shard={"tile_shape": (40, 40)})
    with lock:
        n_started = len(started)
        assert sorted(started) == sorted(finished)
    time.sleep(0.2)
    assert len(started) == n_started
    # Integer tiles wait for the tiles to their left and above, so no
    # tile below or right of the failed one started.
    assert not [t for t in started if t[0] >= 40 and t[1] >= 40
                and t != (40, 40)]


@pytest.mark.parametrize("pair", ["8u32s", "32f32f"])
def test_traced_equals_untraced_and_tile_spans_reach_caller(set_parts, pair):
    set_parts(PARALLEL)
    shape, tile = GRIDS["small"]
    img = make_image(shape, pair, seed=7)
    plain = _sharded(img, pair, tile)
    tracer = Tracer()
    with tracing(tracer):
        with tracer.span("caller") as caller:
            traced = _sharded(img, pair, tile)
    _assert_same_shard_run(plain, traced)
    tiles = [s for s in tracer.spans if s.name.startswith("shard.tile[")]
    assert sorted(s.name for s in tiles) == sorted(
        f"shard.tile[{r},{c}]" for r in range(3) for c in range(3))
    assert {s.parent_id for s in tiles} == {caller.id}
    assert {s.trace_id for s in tiles} == {caller.trace_id}


def test_in_place_run_takes_the_plan_lock_only_to_fall_back():
    eng = Engine()
    img = make_image((64, 64), "8u32s", seed=8)
    kw = dict(pair="8u32s", algorithm="brlt_scanrow", config=CONFIG)
    want = eng.run_batch([img], **kw).runs[0].output.copy()
    (plan,) = eng.cache._plans.values()
    taken = []

    class Recording:
        def __init__(self, lock):
            self.lock = lock

        def __enter__(self):
            self.lock.acquire()
            taken.append(threading.current_thread())

        def __exit__(self, *exc):
            self.lock.release()

    plan.lock = Recording(plan.lock)
    dst = np.empty((64, 64), dtype=np.int32)
    eng.run_batch([img], out=dst, **kw)
    assert taken == [] and dst.tobytes() == want.tobytes()

    def boom(stack):
        raise RuntimeError("lowered program diverged")

    for p in plan.compiled.passes:
        p.rows = p.cols = boom
    dst[...] = 0
    eng.run_batch([img], out=dst, **kw)
    assert taken == [threading.current_thread()]
    assert plan.compiled is None and dst.tobytes() == want.tobytes()


def test_program_counters_stay_exact_under_concurrent_runs():
    eng = Engine()
    kw = dict(pair="32f32f", algorithm="scanrow_brlt", config=CONFIG)
    img = make_image((64, 64), "32f32f", seed=9)
    eng.run_batch([img], **kw)
    (plan,) = eng.cache._plans.values()
    prog = plan.compiled
    n_threads, n_runs = 8, 50
    per_run = prog.transposes
    prog.run(np.zeros((1, 64, 64), dtype=np.float32))
    per_run = prog.transposes - per_run
    assert per_run > 0
    start = (prog.executions, prog.transposes)
    stack = np.zeros((1, 64, 64), dtype=np.float32)

    def hammer():
        for _ in range(n_runs):
            prog.run(stack.copy())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    total = n_threads * n_runs
    assert prog.executions - start[0] == total
    assert prog.transposes - start[1] == total * per_run
