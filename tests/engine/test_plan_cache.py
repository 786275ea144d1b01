"""LaunchPlanCache: keying, hit accounting, LRU bounds."""

import numpy as np
import pytest

from repro import sat_batch
from repro.dtypes import parse_pair
from repro.engine import BATCH_SPECS, Engine, LaunchPlanCache, PlanKey
from repro.gpusim.device import get_device
from repro.obs import get_metrics, reset_metrics


def _spec(pair="8u32s", device="P100"):
    return BATCH_SPECS["brlt_scanrow"](parse_pair(pair), get_device(device))


def _key(bucket=(64, 64), **kw):
    base = dict(algorithm="brlt_scanrow", device="P100", pair="8u32s",
                bucket=bucket, opts={})
    base.update(kw)
    return PlanKey.make(**base)


class TestPlanKey:
    def test_same_inputs_same_key(self):
        assert _key() == _key()
        assert hash(_key()) == hash(_key())

    def test_opts_order_canonicalised(self):
        a = PlanKey.make("x", "P100", "8u32s", (32, 32),
                         {"scan": "kogge_stone", "brlt_stride": 33})
        b = PlanKey.make("x", "P100", "8u32s", (32, 32),
                         {"brlt_stride": 33, "scan": "kogge_stone"})
        assert a == b

    @pytest.mark.parametrize("kw", [
        dict(bucket=(96, 64)),
        dict(pair="32f32f"),
        dict(device="V100"),
        dict(algorithm="scanrow_brlt"),
        dict(opts={"scan": "serial"}),
    ])
    def test_any_component_changes_key(self, kw):
        assert _key(**kw) != _key()


class TestCache:
    def test_get_or_create_reuses(self):
        cache = LaunchPlanCache()
        spec = _spec()
        p1 = cache.get_or_create(_key(), spec)
        p2 = cache.get_or_create(_key(), spec)
        assert p1 is p2
        assert len(cache) == 1 and _key() in cache

    def test_lru_eviction(self):
        cache = LaunchPlanCache(max_plans=2)
        spec = _spec()
        k1, k2, k3 = _key((32, 32)), _key((64, 64)), _key((96, 96))
        cache.get_or_create(k1, spec)
        cache.get_or_create(k2, spec)
        cache.get_or_create(k3, spec)
        assert len(cache) == 2
        assert k1 not in cache and k2 in cache and k3 in cache
        assert cache.evictions == 1

    def test_lookup_refreshes_recency(self):
        """Touching a plan protects it: the cold one is evicted instead."""
        cache = LaunchPlanCache(max_plans=2)
        spec = _spec()
        k1, k2, k3 = _key((32, 32)), _key((64, 64)), _key((96, 96))
        cache.get_or_create(k1, spec)
        cache.get_or_create(k2, spec)
        cache.get_or_create(k1, spec)  # refresh k1
        cache.get_or_create(k3, spec)  # evicts k2, not k1
        assert k1 in cache and k2 not in cache and k3 in cache

    def test_eviction_and_size_exported_as_metrics(self):
        reset_metrics()
        cache = LaunchPlanCache(max_plans=2)
        spec = _spec()
        for bucket in ((32, 32), (64, 64), (96, 96)):
            cache.get_or_create(_key(bucket), spec)
        m = get_metrics()
        assert m.counter_total("engine.plan_cache.evictions") == 1
        assert m.value("engine.plan_cache.size") == 2.0
        cache.clear()
        assert m.value("engine.plan_cache.size") == 0.0

    def test_capacity_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MAX_PLANS", "3")
        assert LaunchPlanCache().max_plans == 3
        monkeypatch.setenv("REPRO_ENGINE_MAX_PLANS", "not-a-number")
        assert LaunchPlanCache().max_plans == 256
        assert LaunchPlanCache(max_plans=7).max_plans == 7

    def test_hit_rate(self):
        cache = LaunchPlanCache()
        assert cache.hit_rate == 0.0
        cache.note_miss()
        cache.note_hit(9)
        assert cache.hit_rate == pytest.approx(0.9)

    def test_clear(self):
        cache = LaunchPlanCache()
        cache.get_or_create(_key(), _spec())
        cache.note_hit(3)
        cache.note_miss()
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0


class TestCacheThroughEngine:
    @pytest.fixture(autouse=True)
    def _no_sanitize(self, monkeypatch):
        # Sanitized batches bypass the plan cache by design.
        monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "0")

    def test_hits_accumulate_across_calls(self):
        eng = Engine()
        imgs = [np.ones((64, 64), dtype=np.uint8)] * 3
        sat_batch(imgs, pair="8u32s", engine=eng)
        sat_batch(imgs, pair="8u32s", engine=eng)
        assert eng.cache.misses == 1 and eng.cache.hits == 5
        assert eng.cache.hit_rate == pytest.approx(5 / 6)

    def test_distinct_buckets_record_distinct_plans(self):
        eng = Engine()
        imgs = [np.ones((64, 64), np.uint8), np.ones((96, 96), np.uint8)]
        run = sat_batch(imgs, pair="8u32s", engine=eng)
        assert run.plan_misses == 2 and len(eng.cache) == 2

    def test_padded_shapes_share_a_plan(self):
        """Raw shapes that pad to the same bucket share every counter and
        timing, so they share one plan (second image is a cache hit)."""
        eng = Engine()
        spec = _spec()
        assert eng.scheduler.bucket_of((60, 62), spec.pad) == \
            eng.scheduler.bucket_of((64, 64), spec.pad)
        imgs = [np.ones((64, 64), np.uint8), np.ones((60, 62), np.uint8)]
        run = sat_batch(imgs, pair="8u32s", engine=eng)
        assert run.plan_misses == 1 and run.plan_hits == 1
        assert len(run.buckets) == 1
