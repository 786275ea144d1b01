"""One table of telemetry events, and the one call that emits them.

Every event site is one :func:`emit` call naming a row of
:data:`EVENTS`.  The row, not the call site, decides the sinks and their
names: the registry series named like the event (a counter adds ``n``, a
histogram observes it, a gauge is set to it) labelled by the row's label
fields; the request-timeline key under which ``n`` accumulates; and the
trace, as an attribute set to ``n`` on the enclosing span or an instant
event carrying every field.  Fields that are not labels reach only the
trace.
``docs/observability.md`` lists the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .context import _timeline
from .metrics import get_metrics
from .trace import current_tracer

__all__ = ["Event", "EVENTS", "emit"]

#: Registry kind -> the instrument method an emitted value goes through.
_UPDATE = {"counter": "inc", "histogram": "observe", "gauge": "set"}


@dataclass(frozen=True)
class Event:
    """Where one event goes: the registry instrument ``kind`` (``None``
    when the registry does not keep it) and its ``labels``; the
    ``timeline`` key; the enclosing ``span``'s attribute, or the
    category of an ``instant`` event, whose name gains the value of the
    ``suffix`` field."""

    kind: Optional[str] = None
    labels: Tuple[str, ...] = ()
    timeline: Optional[str] = None
    span: Optional[str] = None
    instant: Optional[str] = None
    suffix: Optional[str] = None


_C, _H, _G = "counter", "histogram", "gauge"
_ALG = ("algorithm",)

#: Every event the stack emits, by name.
EVENTS: Dict[str, Event] = {
    # engine: one batch, its buckets and their lowered programs
    "engine.batches": Event(_C, _ALG),
    "engine.images": Event(_C, _ALG),
    "engine.plan_hits": Event(_C, timeline="plan_hits", span="plan_hits"),
    "engine.plan_misses": Event(_C, timeline="plan_misses", span="plan_misses"),
    "engine.modeled_batched_s": Event(_H, _ALG, span="modeled_batched_s"),
    "engine.modeled_kernel_us": Event(_H, _ALG, timeline="modeled_kernel_us"),
    "engine.plan_cache.evictions": Event(_C),
    "engine.plan_cache.size": Event(_G),
    "plan.hit": Event(instant="batch"),
    "plan.miss": Event(instant="batch"),
    "compile.hit": Event(_C, _ALG, timeline="compile_hits"),
    "compile.miss": Event(_C, _ALG, timeline="compile_misses"),
    "compile.fallback": Event(_C, _ALG, timeline="compile_fallbacks", instant="compile"),
    # simulator launches, backend runs, harness calibrations
    "gpusim.launches": Event(_C, ("kernel",)),
    "gpusim.replays": Event(_C, ("kernel",)),
    "sat.calls": Event(_C, ("algorithm", "backend")),
    "sat.modeled_us": Event(_H, _ALG, span="modeled_us"),
    "runner.calibrations": Event(_C, _ALG),
    "runner.projections": Event(_C, _ALG),
    # planner
    "plan.decisions": Event(_C),
    "plan.decide_us": Event(timeline="plan_decide_us"),
    "plan.decision": Event(instant="plan"),
    "plan.cache.hits": Event(_C),
    "plan.cache.misses": Event(_C),
    "plan.cache.evictions": Event(_C),
    "plan.cache.size": Event(_G),
    # sharded executor
    "shard.runs": Event(_C, _ALG),
    "shard.tiles": Event(_C, _ALG),
    "shard.carry_ops": Event(_C),
    "shard.carry_us": Event(timeline="shard_carry_us"),
    "shard.kernel_us": Event(timeline="shard_kernel_us"),
    "shard.lookback.steps": Event(_C),
    "shard.lookback.deferred": Event(_C),
    "shard.device": Event(instant="shard", suffix="device"),
    "shard.series.frames": Event(_C, _ALG),
    "shard.series": Event(instant="shard"),
    # serving
    "serve.requests": Event(_C, ("kind", "algorithm")),
    "serve.queue_depth": Event(_G),
    "serve.batches": Event(_C, ("reason",)),
    "serve.batch_size": Event(_H),
    "serve.batch_wait_us": Event(_H),
    "serve.responses": Event(_C, ("kind",)),
    "serve.coalesced_requests": Event(_C),
    "serve.request_latency_us": Event(_H),
    "serve.errors": Event(_C, ("code",)),
    "serve.worker_error": Event(_C, ("error",)),
}


def emit(name: str, n: float = 1, **fields) -> None:
    """Emit event ``name`` with value ``n`` to every sink its row declares.

    An unknown ``name`` raises ``KeyError``, and so does a missing label
    field: an event outside the table cannot be emitted.
    """
    ev = EVENTS[name]
    if ev.kind is not None:
        labels = {k: fields[k] for k in ev.labels}
        instrument = getattr(get_metrics(), ev.kind)(name, **labels)
        getattr(instrument, _UPDATE[ev.kind])(n)
    if ev.timeline is not None:
        acc = _timeline.get()
        if acc is not None:
            acc[ev.timeline] = acc.get(ev.timeline, 0.0) + n
    if ev.span is None and ev.instant is None:
        return
    tracer = current_tracer()
    if tracer is None:
        return
    if ev.span is not None:
        span = tracer.current_span
        if span is not None:
            span.attrs[ev.span] = n
    else:
        if ev.suffix is not None:
            name = f"{name}.{fields.pop(ev.suffix)}"
        tracer.event(name, category=ev.instant, **fields)
