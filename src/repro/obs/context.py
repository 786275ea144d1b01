"""Request-scoped trace context and latency timelines for serving.

PR 5's tracer stops at the thread boundary: a traced
:class:`~repro.serve.service.SatService` request loses its span lineage
the moment the :class:`~repro.serve.batcher.DynamicBatcher` hands it to a
:class:`~repro.serve.pool.WorkerPool` thread, because span nesting lives
in a per-thread stack.  This module closes the gap with two pieces:

:class:`TraceContext`
    An immutable capture of *where in the span tree a request was born*
    (trace id, parent span id, baggage).  It is taken on the submitting
    thread, travels inside the request object, and is re-activated on
    the worker via :meth:`~repro.obs.trace.Tracer.activate`, so
    launch/replay/engine/plan/shard spans nest under the originating
    request even though they execute on a different thread.  Requests
    that coalesce into one batch each keep their own trace; the batch
    span records them as **span links**.

:class:`RequestTimeline`
    The Fig.-8 discipline applied to serving: every response carries a
    decomposition of its end-to-end wall latency into consecutive,
    non-overlapping stages measured from one monotonic clock —

    ``submit → queue_wait → dispatch_wait → execute → finish``

    which therefore **sum exactly** to ``latency_us``.  Orthogonal
    attributions that overlap the stages (modeled kernel µs, plan.decide
    µs, plan/compile cache hits, shard carry overhead) ride along as
    ``annotations`` — they explain *execute*, they do not re-partition
    it.

The annotations are gathered through a context-local accumulator
(:func:`recording_timeline`): the engine, planner and shard executor
emit their events unconditionally (:func:`repro.obs.emit`), and the
event table's timeline key routes each value here; with no accumulator
installed that costs one context-var read — the same
disabled-is-a-no-op invariant the tracer keeps.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple

from .trace import Tracer, next_trace_id

__all__ = [
    "TraceContext",
    "RequestTimeline",
    "recording_timeline",
    "timeline_active",
    "timeline_merge",
]


def _bag(baggage: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in baggage.items()))


@dataclass(frozen=True)
class TraceContext:
    """Immutable span lineage captured on one thread for use on another.

    ``span_id == 0`` means "root of the trace": spans opened under this
    context become trace roots rather than children.
    """

    trace_id: int
    span_id: int = 0
    #: Sorted ``(key, value)`` string pairs — hashable, JSON-friendly.
    baggage: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def capture(cls, tracer: Optional[Tracer], **baggage) -> Optional["TraceContext"]:
        """Capture the calling thread's current lineage from ``tracer``.

        Inside an open span, the new context continues that span's trace
        as a child.  Outside any span — the common serving case, a bare
        client thread — each capture allocates a **fresh trace id**, so
        concurrent tenants get distinct traces.  ``tracer=None`` returns
        ``None`` (tracing disabled: no ids are allocated).
        """
        if tracer is None:
            return None
        cur = tracer.current_span
        if cur is not None:
            return cls(trace_id=cur.trace_id, span_id=cur.id,
                       baggage=_bag(baggage))
        return cls(trace_id=next_trace_id(), span_id=0, baggage=_bag(baggage))

    @classmethod
    def root(cls, **baggage) -> "TraceContext":
        """A fresh root context (new process-unique trace id)."""
        return cls(trace_id=next_trace_id(), span_id=0, baggage=_bag(baggage))

    def child(self, span_id: int) -> "TraceContext":
        """The same trace, re-rooted under ``span_id`` (baggage kept)."""
        return TraceContext(trace_id=self.trace_id, span_id=int(span_id),
                            baggage=self.baggage)

    @property
    def baggage_dict(self) -> Dict[str, str]:
        return dict(self.baggage)

    def as_dict(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "baggage": self.baggage_dict}


# Ordered latency components; consecutive deltas of one clock, so they
# sum to latency_us exactly (see from_marks).
TIMELINE_COMPONENTS: Tuple[str, ...] = (
    "submit_us",       # submit() entry -> queued (config resolution,
                       #   plan.decide for auto, request-span open)
    "queue_wait_us",   # queued -> a worker's take() admits its batch
                       #   (waits for a free worker, or an opt-in linger)
    "dispatch_wait_us",  # batch admitted -> its worker starts the launch
    "execute_us",      # engine run_group window (compile, replay, shard)
    "finish_us",       # table ready -> response built & future resolved
)


@dataclass
class RequestTimeline:
    """Per-request latency decomposition attached to every response.

    The five stage fields are consecutive intervals of one monotonic
    clock and sum **exactly** to ``latency_us``; ``annotations`` carries
    overlapping attributions (modeled kernel µs, plan/compile cache
    traffic, shard carry) that explain the execute stage without
    re-partitioning it.  Annotations are batch-scoped: every request
    coalesced into a batch shares its execute window and therefore its
    annotations.
    """

    submit_us: float = 0.0
    queue_wait_us: float = 0.0
    dispatch_wait_us: float = 0.0
    execute_us: float = 0.0
    finish_us: float = 0.0
    #: End-to-end wall latency (same clock, same endpoints as the sum).
    latency_us: float = 0.0
    batch_size: int = 1
    batch_reason: str = ""
    annotations: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_marks(cls, *, submitted: float, queued: float, admitted: float,
                   started: float, executed: float, completed: float,
                   batch_size: int = 1, batch_reason: str = "",
                   annotations: Optional[Dict[str, float]] = None,
                   ) -> "RequestTimeline":
        """Build from six ``perf_counter()`` marks (seconds) along one
        request's path; component sums are exact by construction."""
        return cls(
            submit_us=(queued - submitted) * 1e6,
            queue_wait_us=(admitted - queued) * 1e6,
            dispatch_wait_us=(started - admitted) * 1e6,
            execute_us=(executed - started) * 1e6,
            finish_us=(completed - executed) * 1e6,
            latency_us=(completed - submitted) * 1e6,
            batch_size=batch_size,
            batch_reason=batch_reason,
            annotations=dict(annotations or {}),
        )

    def components(self) -> Dict[str, float]:
        """The five stage durations, in path order."""
        return {name: getattr(self, name) for name in TIMELINE_COMPONENTS}

    def components_sum_us(self) -> float:
        return sum(self.components().values())

    def as_dict(self) -> Dict[str, Any]:
        d = self.components()
        d["latency_us"] = self.latency_us
        d["batch_size"] = self.batch_size
        d["batch_reason"] = self.batch_reason
        d["annotations"] = dict(self.annotations)
        return d


# -- timeline annotation accumulator ---------------------------------------

#: The installing thread's annotation accumulator; ``None`` = disabled.
_timeline: ContextVar[Optional[Dict[str, float]]] = ContextVar(
    "repro_obs_timeline", default=None
)


@contextmanager
def recording_timeline(acc: Optional[Dict[str, float]] = None,
                       ) -> Iterator[Dict[str, float]]:
    """Install an annotation accumulator for the enclosed work.

    The worker wraps each batch execution in this; events the engine,
    planner and shard executor emit then accumulate under their timeline
    keys (:data:`repro.obs.events.EVENTS`) without the emitters knowing
    whether anyone is listening.
    """
    if acc is None:
        acc = {}
    token = _timeline.set(acc)
    try:
        yield acc
    finally:
        _timeline.reset(token)


def timeline_active() -> bool:
    """Whether a timeline accumulator is installed (one context-var read)."""
    return _timeline.get() is not None


def timeline_merge(notes: Optional[Dict[str, float]]) -> None:
    """Add another accumulator's ``notes`` into the recording timeline,
    in their order — how the sharded executor folds each tile's notes in
    row-major order.  A no-op when nothing is recording."""
    acc = _timeline.get()
    if acc is not None and notes:
        for name, value in notes.items():
            acc[name] = acc.get(name, 0.0) + value
