"""Batched SAT execution engine: plan caching, scheduling, ``sat_batch``.

See :mod:`repro.engine.batch` for the execution model and ``docs/engine.md``
for the user-facing description.
"""

from .batch import BatchRun, Engine, default_engine, sat_batch
from .plan import LaunchPlanCache, PlanKey, SatPlan
from .scheduler import BatchScheduler, BucketGroup

__all__ = [
    "BatchRun",
    "Engine",
    "default_engine",
    "sat_batch",
    "LaunchPlanCache",
    "PlanKey",
    "SatPlan",
    "BatchScheduler",
    "BucketGroup",
]
