"""Worker pool: executes admitted batches on a shared engine.

Workers pull :class:`~repro.serve.batcher.Batch` objects from the
batcher and run each through :meth:`repro.engine.batch.Engine.run_group`
— the engine's pre-coalesced entry point — on one **shared** engine, so
every worker warms the same plan cache and a request's bucket is warm no
matter which worker serves it.  Per-plan locks inside the engine
serialise same-bucket execution; different buckets run fully in
parallel.

Fault isolation
---------------
A worker never dies on a request failure:

* a batched launch that raises (any exception escaping the engine's own
  fallbacks, e.g. a ``CompileError``) increments
  ``serve.worker_error`` and is **retried solo**, one request at a time,
  so one poisoned request cannot fail its batch-mates;
* a solo execution failure fails *that request only*, with a structured
  :class:`~repro.serve.request.ServeError` (``code="execution_error"``,
  original exception type/message in ``details``) set on its future;
* a ``finish()`` (post-processing) failure — e.g. out-of-range
  rectangles — fails only its request with ``code="bad_request"``.

The loop itself is wrapped as a last resort: an exception escaping the
execution path fails the batch's remaining futures and keeps the thread
serving.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from ..engine.batch import Engine
from ..obs.context import RequestTimeline, TraceContext, _timeline
from ..obs.events import emit
from ..obs.trace import tracing
from .batcher import Batch, DynamicBatcher
from .request import ServeError, ServeResponse

__all__ = ["WorkerPool"]


class WorkerPool:
    """N daemon threads draining one batcher into one shared engine."""

    def __init__(self, batcher: DynamicBatcher, engine: Engine,
                 n_workers: int = 4, name: str = "serve"):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.batcher = batcher
        self.engine = engine
        self.n_workers = int(n_workers)
        self.name = name
        self._threads: List[threading.Thread] = []
        self._started = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for i in range(self.n_workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"{self.name}-worker-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the workers to exit (after ``batcher.close()``)."""
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        for t in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            t.join(remaining)

    @property
    def alive(self) -> int:
        """Workers currently serving (the health endpoint's figure)."""
        return sum(1 for t in self._threads if t.is_alive())

    # -- the worker loop -------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self.batcher.take()
            if batch is None:  # closed and drained
                return
            try:
                self._execute(batch)
            except BaseException as exc:  # pragma: no cover - last resort
                self._fail_remaining(batch, exc)

    # -- execution -------------------------------------------------------
    def _run_recorded(self, images, key, tracer, ctx,
                      annotations: Dict[str, float]):
        """Run ``images`` as one group, recording the timeline events of
        the run into ``annotations``.  With a ``tracer``, that tracer is
        the ambient one (workers inherit no client context vars) and
        ``ctx`` the thread's span lineage, so engine/launch/replay/plan
        spans nest under the originating request."""
        token = _timeline.set(annotations)
        try:
            if tracer is None:
                return self._run_group(images, key)
            with tracing(tracer), tracer.activate(ctx):
                return self._run_group(images, key)
        finally:
            _timeline.reset(token)

    def _run_group(self, images, key):
        """One engine submission for a pre-coalesced group (test seam)."""
        return self.engine.run_group(
            images,
            pair=key.pair,
            algorithm=key.algorithm,
            config=key.config,
            **dict(key.opts),
        )

    def _open_batch_span(self, batch: Batch):
        """One ``serve.batch`` span per admitted batch.

        The span is a *child of the first request's span* (the batch
        executes somewhere; the oldest request is the natural home) and
        carries **span links** to every coalesced request's context —
        the trace-level record of which requests shared this launch.
        Returns ``(tracer, span)`` — ``(None, None)`` when no entry was
        traced.
        """
        for entry in batch.entries:
            if entry.tracer is not None:
                tracer = entry.tracer
                break
        else:
            return None, None
        ctxs = [e.ctx for e in batch.entries if e.ctx is not None]
        span = tracer.start_span(
            "serve.batch", category="serve.batch",
            ctx=ctxs[0] if ctxs else None, links=ctxs,
            batch_size=len(batch.entries), reason=batch.reason,
            algorithm=batch.key.algorithm, pair=batch.key.pair,
            bucket=batch.key.bucket,
            request_ids=[e.request.request_id for e in batch.entries],
        )
        return tracer, span

    def _execute(self, batch: Batch) -> None:
        key = batch.key
        tracer, bspan = self._open_batch_span(batch)
        bctx = (TraceContext(trace_id=bspan.trace_id, span_id=bspan.id)
                if bspan is not None else None)
        annotations: Dict[str, float] = {}
        t_started = time.perf_counter()
        try:
            run = self._run_recorded(batch.images, key, tracer, bctx,
                                     annotations)
        except Exception as exc:
            if bspan is not None:
                bspan.attrs["error"] = type(exc).__name__
                tracer.end_span(bspan)
            emit("serve.worker_error", error=type(exc).__name__)
            self._execute_solo(batch, exc)
            return
        t_executed = time.perf_counter()
        if bspan is not None:
            tracer.end_span(bspan)
        for entry, satrun in zip(batch.entries, run.runs):
            self._complete(entry, batch, satrun.output,
                           t_started=t_started, t_executed=t_executed,
                           annotations=annotations)

    def _execute_solo(self, batch: Batch, batch_exc: Exception) -> None:
        """Batched launch failed: isolate the poison by re-running solo."""
        for entry in batch.entries:
            if entry.future.done():  # pragma: no cover - defensive
                continue
            annotations: Dict[str, float] = {}
            t_started = time.perf_counter()
            try:
                run = self._run_recorded([entry.request.image], batch.key,
                                         entry.tracer, entry.ctx,
                                         annotations)
            except Exception as exc:
                emit("serve.worker_error", error=type(exc).__name__)
                emit("serve.errors", code="execution_error")
                self._finish_span(entry, error=type(exc).__name__)
                entry.future.set_exception(ServeError(
                    code="execution_error",
                    message=f"{batch.key.algorithm} execution failed: {exc}",
                    request_id=entry.request.request_id,
                    details={
                        "error": type(exc).__name__,
                        "batch_error": type(batch_exc).__name__,
                        "batch_size": len(batch.entries),
                    },
                ))
                continue
            self._complete(entry, batch, run.runs[0].output, solo=True,
                           t_started=t_started,
                           t_executed=time.perf_counter(),
                           annotations=annotations)

    @staticmethod
    def _finish_span(entry, **attrs) -> None:
        """Close the request's span (if traced) with final attributes."""
        if entry.span is not None and entry.tracer is not None:
            entry.span.attrs.update(attrs)
            entry.tracer.end_span(entry.span)
            entry.span = None

    def _complete(self, entry, batch: Batch, table, solo: bool = False,
                  t_started: float = 0.0, t_executed: float = 0.0,
                  annotations: Optional[Dict[str, float]] = None) -> None:
        """Post-process and resolve one request's future."""
        try:
            result = entry.request.finish(table)
        except Exception as exc:
            emit("serve.errors", code="bad_request")
            self._finish_span(entry, error=type(exc).__name__)
            entry.future.set_exception(ServeError(
                code="bad_request",
                message=str(exc),
                request_id=entry.request.request_id,
                details={"error": type(exc).__name__},
            ))
            return
        depth = 1 if solo else len(batch.entries)
        queued = entry.t_queued or entry.t_submit
        admitted = batch.t_admitted or queued
        # Submit-side annotations (plan.decide on the client thread)
        # merge additively with the worker's execute-side ones.
        merged = dict(entry.annotations)
        for k, v in (annotations or {}).items():
            merged[k] = merged.get(k, 0.0) + v
        timeline = RequestTimeline.from_marks(
            submitted=entry.t_submit,
            queued=queued,
            admitted=admitted,
            started=t_started or admitted,
            executed=t_executed or t_started or admitted,
            completed=time.perf_counter(),
            batch_size=depth,
            batch_reason=batch.reason,
            annotations=merged,
        )
        resp = ServeResponse(
            request_id=entry.request.request_id,
            kind=entry.request.kind,
            result=result,
            latency_us=timeline.latency_us,
            batch_size=depth,
            batch_reason=batch.reason,
            timeline=timeline,
            trace_id=entry.ctx.trace_id if entry.ctx is not None else 0,
        )
        emit("serve.responses", kind=entry.request.kind)
        if resp.coalesced:
            emit("serve.coalesced_requests")
        emit("serve.request_latency_us", timeline.latency_us)
        self._finish_span(entry, batch_size=depth, solo=solo,
                          latency_us=timeline.latency_us)
        entry.future.set_result(resp)

    def _fail_remaining(self, batch: Batch, exc: BaseException) -> None:
        emit("serve.worker_error", error=type(exc).__name__)
        for entry in batch.entries:
            if not entry.future.done():
                emit("serve.errors", code="execution_error")
                self._finish_span(entry, error=type(exc).__name__)
                entry.future.set_exception(ServeError(
                    code="execution_error",
                    message=f"worker failed: {exc}",
                    request_id=entry.request.request_id,
                    details={"error": type(exc).__name__},
                ))
