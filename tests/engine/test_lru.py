"""The shared LRU cache: eviction order, statistics, metric emission.

Three plan memos delegate here (launch plans, tile plans, planner
decisions); these tests pin the contract they all rely on so a change to
the shared implementation cannot silently skew any one of them.
"""

import threading

import pytest

from repro.engine.lru import LRUCache
from repro.obs.metrics import get_metrics, reset_metrics


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_metrics()
    yield
    reset_metrics()


class TestBasics:
    def test_put_get_and_contains(self):
        c = LRUCache(4)
        c.put("a", 1)
        assert "a" in c and c.get("a") == 1
        assert c.get("nope", default=42) == 42
        assert len(c) == 1
        assert list(c.keys()) == ["a"]
        assert list(c.values()) == [1]

    def test_eviction_is_lru_first(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)          # evicts "a"
        assert "a" not in c and "b" in c and "c" in c
        assert c.evictions == 1

    def test_lookup_refreshes_recency(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")             # "b" becomes LRU
        c.put("c", 3)
        assert "a" in c and "b" not in c

    def test_clear_empties_and_resets_counters(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.get("a")
        c.get("x")
        c.clear()
        assert len(c) == 0
        assert c.hits == 0 and c.misses == 0 and c.evictions == 0

    def test_max_size_floor_is_one(self):
        c = LRUCache(0)
        c.put("a", 1)
        c.put("b", 2)
        assert len(c) == 1


class TestStatistics:
    def test_hit_miss_accounting(self):
        c = LRUCache(4)
        c.put("a", 1)
        c.get("a")
        c.get("a")
        c.get("zzz")
        assert c.hits == 2 and c.misses == 1
        assert c.hit_rate == pytest.approx(2 / 3)

    def test_get_or_create_counts_and_flags(self):
        c = LRUCache(4)
        v1, created1 = c.get_or_create("k", lambda: object())
        v2, created2 = c.get_or_create("k", lambda: object())
        assert created1 and not created2
        assert v1 is v2
        assert c.misses == 1 and c.hits == 1

    def test_factory_runs_once_under_races(self):
        c = LRUCache(4)
        built = []

        def factory():
            built.append(1)
            return object()

        barrier = threading.Barrier(8)
        got = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            v, _ = c.get_or_create("k", factory)
            with lock:
                got.append(v)

        ts = [threading.Thread(target=worker) for _ in range(8)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert len(built) == 1
        assert all(v is got[0] for v in got)


class TestMetricsEmission:
    def test_prefix_emits_evictions_and_size(self):
        c = LRUCache(1, metrics_prefix="test.lru")
        c.put("a", 1)
        c.put("b", 2)
        m = get_metrics()
        assert m.counter("test.lru.evictions").value == 1
        assert m.gauge("test.lru.size").value == 1

    def test_lookups_emitted_only_when_asked(self):
        quiet = LRUCache(2, metrics_prefix="quiet.lru")
        quiet.put("a", 1)
        quiet.get("a")
        quiet.get("x")
        m = get_metrics()
        assert m.counter("quiet.lru.hits").value == 0
        assert m.counter("quiet.lru.misses").value == 0

        loud = LRUCache(2, metrics_prefix="loud.lru", emit_lookups=True)
        loud.put("a", 1)
        loud.get("a")
        loud.get("x")
        assert m.counter("loud.lru.hits").value == 1
        assert m.counter("loud.lru.misses").value == 1

    def test_no_prefix_no_registry_traffic(self):
        c = LRUCache(1)
        c.put("a", 1)
        c.put("b", 2)
        snap = get_metrics().snapshot()
        assert not any("lru" in k for k in snap)


class TestCallSitesKeepTheirNames:
    """The refactor contract: both pre-existing memos publish the same
    metric names they did before the extraction."""

    def test_launch_plan_cache_prefix(self):
        from repro.engine import LaunchPlanCache, PlanKey
        from repro.exec.registry import get_kernel_spec

        cache = LaunchPlanCache(max_plans=1)
        spec = get_kernel_spec("brlt_scanrow")
        for bucket in ((64, 64), (96, 96)):
            key = PlanKey.make("brlt_scanrow", "P100", "8u32s", bucket, {})
            cache.get_or_create(key, spec)
        m = get_metrics()
        assert m.counter("engine.plan_cache.evictions").value == 1
        assert m.gauge("engine.plan_cache.size").value == 1

    def test_tile_scheduler_prefix(self):
        from repro.engine.scheduler import TileScheduler

        sched = TileScheduler(tile_shape=(64, 64))
        sched.plan((128, 128), 2, 2)
        sched.plan((128, 128), 2, 2)
        m = get_metrics()
        assert m.counter("engine.tile_plans.misses").value == 1
        assert m.counter("engine.tile_plans.hits").value == 1
