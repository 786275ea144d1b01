"""SatService: the multi-tenant serving facade.

One object wires the pieces together: a :class:`~repro.serve.batcher.
DynamicBatcher` coalescing concurrent requests by compatibility key, a
:class:`~repro.serve.pool.WorkerPool` of threads draining it into one
shared :class:`~repro.engine.batch.Engine` (shared plan cache → every
worker serves every bucket warm), and ``health``/``stats`` endpoints
backed by the process-global :class:`~repro.obs.metrics.MetricsRegistry`.

    >>> from repro.serve import SatService, SatRequest
    >>> with SatService(workers=4) as svc:                # doctest: +SKIP
    ...     table = svc.sat(img)                  # sync convenience
    ...     fut = svc.submit(SatRequest(img))     # async, a Future
    ...     resp = fut.result()                   # ServeResponse

Execution-config resolution happens on the **submitting** thread
(request ``config`` > service ``config`` > the submitter's ambient
``execution()`` contexts > env/profile), so a client inside
``with execution(sanitize=True):`` gets sanitized runs even though the
actual work happens on a worker thread with no such context.

An optional HTTP facade (:meth:`start_http`) serves ``GET /health`` and
``GET /stats`` as JSON on a loopback port — enough for external probes
and scrapes without adding any dependency beyond the stdlib.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.batch import Engine
from ..exec.config import ConfigLike, ExecutionConfig, _coerce, resolve_execution
from ..obs.exporters import to_prometheus
from ..obs.metrics import get_metrics
from ..obs.slo import SloTracker
from ..obs.trace import Tracer, current_tracer
from .batcher import DynamicBatcher
from .pool import WorkerPool
from .request import (
    BoxFilterRequest,
    RectSumRequest,
    SatRequest,
    ServeError,
    ServeRequest,
    ServeResponse,
)

__all__ = ["SatService"]


class SatService:
    """Thread-based SAT serving: dynamic batching over a worker pool.

    Admission is demand-driven: an idle worker takes the oldest queued
    request's group at once, so by default requests coalesce only while
    every worker is busy.  ``max_delay_s`` (default 0) is an opt-in
    linger: the minimum time a group's oldest request waits before the
    group may be taken, trading that much latency for deeper batches at
    light load; see :class:`~repro.serve.batcher.DynamicBatcher`.
    """

    def __init__(
        self,
        workers: int = 4,
        max_delay_s: float = 0.0,
        max_stack_bytes: Optional[int] = None,
        max_batch: Optional[int] = None,
        engine: Optional[Engine] = None,
        config: ConfigLike = None,
        device: Optional[str] = None,
        start: bool = True,
        tracer: Optional[Tracer] = None,
        slo=None,
    ):
        #: Service-level default config, layered *under* per-request
        #: configs and *over* nothing — ambient contexts and env still
        #: apply below it through normal resolution.
        self.config = config
        self.device = device
        #: Service-level tracer: used for requests whose submitting
        #: thread has no ambient tracer of its own.  Context vars do not
        #: cross thread spawns, so a client thread pool outside any
        #: ``tracing()`` scope needs this to get request spans at all.
        #: ``None`` (the default) keeps tracing fully off — the
        #: bit-identical no-op path.
        self.tracer = tracer
        #: Optional SLO burn-rate tracker: ``True`` for stock objectives,
        #: a mapping for knobs (``latency_threshold_us``...), a
        #: pre-built :class:`~repro.obs.slo.SloTracker`, or ``None``.
        self.slo = SloTracker.from_config(slo)
        self.engine = engine if engine is not None else Engine()
        self.batcher = DynamicBatcher(
            max_delay_s=max_delay_s,
            max_stack_bytes=max_stack_bytes,
            max_batch=max_batch,
        )
        self.pool = WorkerPool(self.batcher, self.engine, n_workers=workers)
        self._t0 = time.monotonic()
        self._closed = False
        self._http: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        if start:
            self.pool.start()

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "SatService":
        self.pool.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Drain the queue, stop the workers and the HTTP facade."""
        if self._closed:
            return
        self._closed = True
        self.batcher.close()
        self.pool.join(timeout=timeout)
        self.stop_http()

    # -- submission ------------------------------------------------------
    def submit(self, request: ServeRequest) -> Future:
        """Queue one request; returns a Future of
        :class:`~repro.serve.request.ServeResponse`.

        Invalid requests raise synchronously (``ValueError``/``KeyError``);
        submitting to a closed service raises
        :class:`~repro.serve.request.ServeError` (``code="shutdown"``).
        The request's timeline starts here, so its submit stage includes
        config resolution.
        """
        t_submit = time.perf_counter()
        if self._closed:
            raise ServeError("shutdown", "service is closed",
                             request_id=request.request_id)
        resolved = self._resolve(request)
        # Tracer resolution mirrors config resolution: the submitting
        # thread's ambient tracer wins; the service-level tracer is the
        # fallback for bare client threads (context vars don't cross
        # thread spawns).  None -> untraced, the guarded no-op path.
        tracer = current_tracer()
        if tracer is None:
            tracer = self.tracer
        return self.batcher.submit(request, resolved, tracer=tracer,
                                   t_submit=t_submit)

    def _resolve(self, request: ServeRequest) -> ExecutionConfig:
        """Resolve the request's execution modes on the calling thread."""
        merged = _coerce(request.config).merged_over(_coerce(self.config))
        return resolve_execution(
            merged, device=request.device or self.device
        )

    # -- sync conveniences ----------------------------------------------
    def request(self, req: ServeRequest,
                timeout: Optional[float] = None) -> ServeResponse:
        """Submit and wait; returns the full response envelope."""
        return self.submit(req).result(timeout=timeout)

    def sat(self, image: np.ndarray, timeout: Optional[float] = None,
            **kwargs) -> np.ndarray:
        """SAT of one image through the service (blocking)."""
        return self.request(SatRequest(image, **kwargs), timeout).result

    def rect_sums(self, image: np.ndarray, rects,
                  timeout: Optional[float] = None, **kwargs) -> np.ndarray:
        """Rectangle sums over ``image``'s SAT (blocking)."""
        return self.request(
            RectSumRequest(image, rects=rects, **kwargs), timeout
        ).result

    def box_filter(self, image: np.ndarray, radius: int,
                   timeout: Optional[float] = None, **kwargs) -> np.ndarray:
        """App-level box filter over ``image`` (blocking)."""
        return self.request(
            BoxFilterRequest(image, radius=radius, **kwargs), timeout
        ).result

    def sat_batch(self, images: Sequence[np.ndarray],
                  timeout: Optional[float] = None,
                  **kwargs) -> List[np.ndarray]:
        """Submit many SAT requests at once and wait for all.

        Unlike :func:`repro.sat_batch` this goes through the batcher, so
        the images may coalesce with *other* tenants' concurrent traffic.
        """
        futs = [self.submit(SatRequest(im, **kwargs)) for im in images]
        return [f.result(timeout=timeout).result for f in futs]

    # -- endpoints -------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Liveness summary: cheap enough for a tight probe loop."""
        alive = self.pool.alive
        status = "stopped" if self._closed else (
            "ok" if alive == self.pool.n_workers else "degraded"
        )
        return {
            "status": status,
            "uptime_s": round(time.monotonic() - self._t0, 3),
            "workers": {"alive": alive, "configured": self.pool.n_workers},
            "queue_depth": self.batcher.queue_depth,
            "closed": self._closed,
        }

    def stats(self) -> Dict[str, Any]:
        """Serving statistics from the process metrics registry.

        ``coalesce_ratio`` is the fraction of completed requests that
        shared their launch with at least one other request — the
        figure of merit for the batcher (a same-shape stream should
        exceed 0.5 easily; see ``benchmarks/bench_serve.py``).

        ``latency_quantiles`` carries live bucketed p50/p95/p99 for the
        request-latency and batch-wait histograms; ``slo`` (when a
        tracker is configured) reports each objective's burn rates and
        ok/warning/breach state — every ``stats()`` call advances the
        tracker's sampling window.
        """
        m = get_metrics()
        responses = m.counter_total("serve.responses")
        coalesced = m.counter_total("serve.coalesced_requests")
        cache = self.engine.cache
        out = {
            "requests": m.counter_total("serve.requests"),
            "responses": responses,
            "errors": m.counter_total("serve.errors"),
            "worker_errors": m.counter_total("serve.worker_error"),
            "batches": m.counter_total("serve.batches"),
            "coalesce_ratio": (coalesced / responses) if responses else 0.0,
            "queue_depth": self.batcher.queue_depth,
            "plan_cache": {
                "size": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": cache.hit_rate,
            },
            "latency_quantiles": {
                "request_latency_us":
                    m.histogram("serve.request_latency_us").percentiles(),
                "batch_wait_us":
                    m.histogram("serve.batch_wait_us").percentiles(),
            },
            "metrics": m.snapshot(prefix="serve."),
        }
        if self.slo is not None:
            out["slo"] = self.slo.evaluate()
        return out

    # -- HTTP facade -----------------------------------------------------
    def start_http(self, port: int = 0,
                   host: str = "127.0.0.1") -> Tuple[str, int]:
        """Serve ``GET /health``, ``GET /stats`` (JSON) and
        ``GET /metrics`` (Prometheus text exposition) over HTTP.

        ``port=0`` binds an ephemeral port; returns ``(host, port)``.
        """
        if self._http is not None:
            addr = self._http.server_address
            return str(addr[0]), int(addr[1])
        service = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                routes = {"/health": service.health, "/stats": service.stats}
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    # Prometheus text exposition of the whole registry —
                    # a scrape target for any stock collector.
                    body = to_prometheus(get_metrics()).encode()
                    self.send_response(200)
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                else:
                    ctype = "application/json"
                    fn = routes.get(path)
                    if fn is None:
                        body = json.dumps({
                            "error": "not found",
                            "routes": sorted(routes) + ["/metrics"],
                        }).encode()
                        self.send_response(404)
                    else:
                        body = json.dumps(fn()).encode()
                        self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence request logging
                pass

        self._http = ThreadingHTTPServer((host, port), Handler)
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, name="serve-http", daemon=True
        )
        self._http_thread.start()
        addr = self._http.server_address
        return str(addr[0]), int(addr[1])

    def stop_http(self) -> None:
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http = None
            self._http_thread = None
