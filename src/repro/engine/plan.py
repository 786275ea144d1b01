"""Launch plans for batched SAT execution, and the cache that reuses them.

An interpreted SAT run pays per-launch fixed costs that are pure functions of
the launch *geometry*: padded shapes, grid/block dims, shared-memory
layout, coalescing/bank-conflict analysis and cost-model setup.  None of
them depend on the pixel values.  A :class:`SatPlan` memoises all of that
for one ``(shape-bucket, pair, algorithm, device, opts)`` key —
recorded once from a cold run, then lowered into the plan's
:class:`~repro.compile.lower.CompiledPlan`, which every further image in
the bucket executes with zero interpreter steps.  Buckets without a
program (bounds-checked, lowering refused, program failed) replay each
image through :func:`~repro.gpusim.launch.replay_kernel` instead.

The plan also owns the reusable padded staging buffers the batch path
stacks images into, so steady-state batches allocate nothing per image.

The cache is LRU-bounded (``max_plans``, default 256, overridable with
``REPRO_ENGINE_MAX_PLANS``) so varied shape streams cannot hoard plans,
programs and staging buffers without limit; evictions and the live size are
exported through :func:`repro.obs.metrics.get_metrics` as
``engine.plan_cache.evictions`` / ``engine.plan_cache.size``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exec.config import env
from ..exec.registry import KernelSpec
from ..gpusim.launch import LaunchPlan
from .lru import LRUCache

__all__ = ["PlanKey", "SatPlan", "LaunchPlanCache"]


@dataclass(frozen=True)
class PlanKey:
    """Cache key: everything the launch geometry depends on.

    ``bucket`` is the *padded* image shape — images whose raw shapes pad to
    the same multiple share every counter and timing, so they share a plan.
    ``opts`` is the canonicalised (sorted) tuple of algorithm options that
    reach the kernels.  Only ``gpusim`` calls record plans.
    """

    algorithm: str
    device: str
    pair: str
    bucket: Tuple[int, int]
    opts: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, algorithm: str, device: str, pair: str,
             bucket: Tuple[int, int], opts: dict) -> "PlanKey":
        return cls(
            algorithm=algorithm,
            device=device,
            pair=pair,
            bucket=(int(bucket[0]), int(bucket[1])),
            opts=tuple(sorted(opts.items())),
        )


@dataclass
class SatPlan:
    """Memoised launch recipe for one plan-cache bucket."""

    key: PlanKey
    spec: KernelSpec
    #: One :class:`~repro.gpusim.launch.LaunchPlan` per kernel pass.
    launch_plans: List[LaunchPlan] = field(default_factory=list)
    #: Reusable padded staging buffers, keyed ``(role, shape, dtype-str)``.
    staging: Dict[tuple, np.ndarray] = field(default_factory=dict)
    #: Lowered program (:class:`~repro.compile.lower.CompiledPlan`) that
    #: warm chunks run; ``None`` until compiled (or after an execute-time
    #: fallback dropped it).
    compiled: Optional[object] = None
    #: Lowering attempts so far; a deterministic :class:`~repro.compile.
    #: lower.CompileError` pins this to ``MAX_COMPILE_ATTEMPTS`` so the
    #: bucket stays on per-image replay instead of recompiling forever.
    compile_attempts: int = 0
    #: Modeled time of one stacked launch per pass, summed over the
    #: passes, keyed by batch depth.  It depends only on the recorded
    #: stats and the depth, so warm chunks compute each depth once.
    stacked_time_s: Dict[int, float] = field(default_factory=dict)
    #: Serialises the uses of this plan that mutate its state across
    #: threads: the cold recording run, lowering, warm chunks through the
    #: staging buffers, and dropping a failed program.  A warm run that
    #: computes in its output destination reads only recorded state and
    #: runs without it.  Different plans run fully in parallel.
    lock: threading.Lock = field(default_factory=threading.Lock,
                                 repr=False, compare=False)

    MAX_COMPILE_ATTEMPTS = 2

    def __post_init__(self) -> None:
        if not self.launch_plans:
            self.launch_plans = [LaunchPlan() for _ in self.spec.passes]

    @property
    def recorded(self) -> bool:
        """Whether a cold run has populated every pass's launch plan."""
        return all(lp.recorded for lp in self.launch_plans)

    @property
    def solo_time_s(self) -> float:
        """Modeled per-image time of the recorded cold run (all passes)."""
        return sum(lp.stats.time_s for lp in self.launch_plans)

    def get_staging(self, role: str, shape: Tuple[int, ...],
                    dtype) -> np.ndarray:
        """A reusable buffer of exactly ``shape``/``dtype`` for ``role``.

        The buffer contents are whatever the previous use left behind;
        callers must overwrite every element they read back (the batch
        path's kernels cover the full padded stack, and the input fill
        re-zeroes pad regions explicitly).
        """
        k = (role, tuple(int(s) for s in shape), np.dtype(dtype).str)
        buf = self.staging.get(k)
        if buf is None:
            buf = np.zeros(shape, dtype=dtype)
            self.staging[k] = buf
        return buf


def _default_max_plans() -> int:
    raw = (env("REPRO_ENGINE_MAX_PLANS") or "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return 256


class LaunchPlanCache:
    """LRU-bounded cache of :class:`SatPlan` keyed by :class:`PlanKey`.

    Hits and misses are counted *per image*: an image whose bucket plan was
    already recorded (by an earlier call or earlier in the same batch)
    counts as a hit; the one cold run that records a plan is the miss.
    Lookups refresh recency, so steady shape mixes keep their plans while
    one-off shapes age out; evictions and the live size are mirrored into
    the process :class:`~repro.obs.metrics.MetricsRegistry`.

    All cache operations are thread-safe: the serving layer's worker pool
    looks up, inserts and evicts from many threads against one shared
    cache.  The cache lock only guards the key -> plan map and the
    hit/miss/eviction statistics; *executing* on a plan is serialised by
    the plan's own :attr:`SatPlan.lock`, so a cold recording in one bucket
    never blocks warm runs in another.  An evicted plan that a worker is
    still executing on stays alive through that worker's reference and is
    dropped when the worker releases it.
    """

    def __init__(self, max_plans: Optional[int] = None):
        self.max_plans = int(max_plans if max_plans is not None
                             else _default_max_plans())
        # Storage + eviction + size/eviction metrics live in the shared
        # LRU; per-image hit/miss accounting stays here (the LRU's own
        # lookup counts have different semantics and are left unused).
        self._plans = LRUCache(self.max_plans,
                               metrics_prefix="engine.plan_cache")
        self._lock = self._plans.lock
        self.hits = 0
        self.misses = 0

    @property
    def evictions(self) -> int:
        return self._plans.evictions

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._plans

    def keys(self) -> List[PlanKey]:
        """The live plan keys, LRU-first (a consistent point-in-time copy)."""
        return self._plans.keys()

    @property
    def hit_rate(self) -> float:
        """Fraction of image lookups served by a recorded plan."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def note_hit(self, n: int = 1) -> None:
        with self._lock:
            self.hits += n

    def note_miss(self, n: int = 1) -> None:
        with self._lock:
            self.misses += n

    def get_or_create(self, key: PlanKey, spec: KernelSpec) -> SatPlan:
        """The plan for ``key``, creating (and possibly evicting) as needed."""
        plan, _ = self._plans.get_or_create(
            key, lambda: SatPlan(key=key, spec=spec))
        return plan

    def clear(self) -> None:
        """Drop every plan and reset the hit/miss/eviction statistics."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
