"""LaunchPlanCache and the engine under concurrent callers.

The serving layer points N worker threads at one shared engine; these
tests pin the two guarantees that makes safe: the cache never hands two
threads different plan objects for one key (double cold-compile), and
concurrent same-bucket execution through the per-plan lock stays
bit-identical to serial runs.
"""

import threading

import numpy as np
import pytest

from repro import sat, sat_batch
from repro.engine import Engine, LaunchPlanCache, PlanKey
from repro.exec.registry import get_kernel_spec


def _spec():
    return get_kernel_spec("brlt_scanrow")


def _key(bucket=(64, 64)):
    return PlanKey.make("brlt_scanrow", "P100", "8u32s", bucket, {})


def _run_threads(n, fn):
    barrier = threading.Barrier(n)
    errors = []

    def wrapped(i):
        barrier.wait()
        try:
            fn(i)
        except BaseException as exc:
            errors.append(exc)

    ts = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert not errors, errors


class TestCacheConcurrency:
    def test_one_plan_per_key_under_races(self):
        """All threads racing get_or_create on one key must receive the
        same object — a second SatPlan would mean a second cold record."""
        cache = LaunchPlanCache()
        spec = _spec()
        got = []
        lock = threading.Lock()

        def create(i):
            p = cache.get_or_create(_key(), spec)
            with lock:
                got.append(p)

        _run_threads(8, create)
        assert len(got) == 8
        assert all(p is got[0] for p in got)
        assert len(cache) == 1

    def test_disjoint_keys_no_corruption(self):
        cache = LaunchPlanCache()
        spec = _spec()
        per_thread = 6

        def create(i):
            for j in range(per_thread):
                bucket = (32 * (1 + i), 32 * (1 + j))
                p = cache.get_or_create(_key(bucket), spec)
                assert p.key.bucket == bucket

        _run_threads(4, create)
        assert len(cache) == 4 * per_thread
        assert cache.evictions == 0

    def test_eviction_accounting_under_threads(self):
        """Bounded cache, disjoint key streams: every key is created once,
        so creations - final size == evictions, exactly."""
        cache = LaunchPlanCache(max_plans=5)
        spec = _spec()
        per_thread = 8
        n_threads = 4

        def create(i):
            for j in range(per_thread):
                cache.get_or_create(_key((32 * (1 + i), 32 * (1 + j))), spec)

        _run_threads(n_threads, create)
        assert len(cache) == 5
        assert cache.evictions == n_threads * per_thread - 5
        assert set(cache.keys()) <= {
            _key((32 * (1 + i), 32 * (1 + j)))
            for i in range(n_threads) for j in range(per_thread)
        }

    def test_hit_accounting_is_exact_under_threads(self):
        cache = LaunchPlanCache()
        _run_threads(8, lambda i: [cache.note_hit() or cache.note_miss()
                                   for _ in range(100)])
        assert cache.hits == 800 and cache.misses == 800
        assert cache.hit_rate == pytest.approx(0.5)


class TestEngineConcurrency:
    @pytest.fixture(autouse=True)
    def _no_sanitize(self, monkeypatch):
        # Sanitized batches bypass the plan cache by design; pin it off so
        # the cold/warm accounting below is profile-independent.
        monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "0")

    def test_same_bucket_no_double_cold_compile(self):
        """8 threads, one bucket: exactly one cold record (misses == 1),
        everyone else replays warm — the per-plan lock's whole point."""
        eng = Engine()
        img = np.arange(64 * 64, dtype=np.uint8).reshape(64, 64) % 251
        ref = sat(img, pair="8u32s").output
        outs = [None] * 8

        def run(i):
            run_ = sat_batch([img], pair="8u32s", engine=eng)
            outs[i] = run_.runs[0].output

        _run_threads(8, run)
        for out in outs:
            assert np.array_equal(out, ref)
        assert eng.cache.misses == 1
        assert eng.cache.hits == 7
        assert len(eng.cache) == 1

    def test_distinct_buckets_run_concurrently_correct(self):
        """Different buckets take different plan locks; results must match
        serial references bit for bit, one plan per bucket."""
        eng = Engine()
        rng = np.random.default_rng(7)
        shapes = [(32, 32), (64, 64), (96, 96), (64, 96)]
        imgs = [rng.integers(0, 255, size=s, dtype=np.uint8) for s in shapes]
        refs = [sat(im, pair="8u32s").output for im in imgs]
        outs = {}
        lock = threading.Lock()

        def run(i):
            im = imgs[i % len(imgs)]
            run_ = sat_batch([im], pair="8u32s", engine=eng)
            with lock:
                outs.setdefault(i, run_.runs[0].output)

        _run_threads(8, run)
        for i, out in outs.items():
            assert np.array_equal(out, refs[i % len(imgs)])
        assert len(eng.cache) == len(shapes)
        assert eng.cache.misses == len(shapes)

    def test_concurrent_mixed_batches_bit_identical(self):
        eng = Engine()
        rng = np.random.default_rng(11)
        imgs = [rng.integers(0, 255, size=(48, 40), dtype=np.uint8)
                for _ in range(6)]
        refs = [sat(im, pair="8u32s").output for im in imgs]
        results = [None] * 4

        def run(i):
            run_ = sat_batch(imgs, pair="8u32s", engine=eng)
            results[i] = [r.output for r in run_.runs]

        _run_threads(4, run)
        for outs in results:
            for out, ref in zip(outs, refs):
                assert np.array_equal(out, ref)
