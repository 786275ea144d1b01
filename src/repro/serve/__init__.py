"""SAT-as-a-service: dynamic batching over a worker pool.

A thread-based serving layer for the SAT primitive: concurrent tenants
submit :class:`SatRequest` / :class:`RectSumRequest` /
:class:`BoxFilterRequest` objects to one :class:`SatService`; a
:class:`DynamicBatcher` coalesces compatible requests (same algorithm,
dtype pair, shape bucket and resolved execution config) into the stacked
launches the engine's plan cache makes nearly free; admission is
demand-driven (an idle worker takes the oldest request's group at once,
split at the size knee), so requests coalesce while every worker is busy;
a :class:`WorkerPool` drains the batches into one shared
:class:`~repro.engine.batch.Engine`.

Every response carries a :class:`~repro.obs.context.RequestTimeline`
decomposing its wall latency; with tracing enabled
(``SatService(tracer=...)`` or an ambient ``tracing()`` scope on the
submitting thread), request spans propagate across the worker boundary
and coalesced batches record span links.  ``stats()`` and the HTTP
facade (``/health``, ``/stats``, Prometheus ``/metrics``) expose live
bucketed latency quantiles and optional SLO burn rates
(``SatService(slo=True)``).

Start here: :class:`SatService` (``docs/serving.md`` for the guide,
``benchmarks/bench_serve.py`` for the load-generator harness).
"""

from .batcher import Batch, CompatKey, DynamicBatcher
from .loadgen import LoadReport, run_closed_loop, run_open_loop
from .pool import WorkerPool
from .request import (
    BoxFilterRequest,
    RectSumRequest,
    SatRequest,
    ServeError,
    ServeRequest,
    ServeResponse,
)
from .service import SatService

__all__ = [
    "SatService",
    "DynamicBatcher",
    "CompatKey",
    "Batch",
    "WorkerPool",
    "ServeRequest",
    "SatRequest",
    "RectSumRequest",
    "BoxFilterRequest",
    "ServeResponse",
    "ServeError",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
]
