"""Structured tracing: spans and events over the whole execution stack.

The tracer is the observability counterpart of
:class:`~repro.exec.config.ExecutionConfig` — one resolution path, highest
precedence first:

1. **explicit keyword** at a call site (``sat(img, trace=tracer)``);
2. **context manager** (``with tracing() as tr:``), innermost first — a
   ``tracing(enabled=False)`` context explicitly shadows everything below;
3. **environment**: ``REPRO_TRACE`` (same falsy spellings as every other
   ``REPRO_*`` flag) routes spans into a process-global tracer reachable
   via :func:`env_tracer`.

With nothing configured, :func:`current_tracer` returns ``None`` and every
instrumentation site reduces to one context-var read plus one environment
lookup — the guarded no-op path.  Tracing is deliberately **not** an
:class:`~repro.exec.config.ExecutionConfig` field: it must never reach
plan-cache keys, kernel arguments or counters, so enabling it cannot
perturb outputs, timings or sanitizer reports.

Span model
----------
A :class:`Span` is one timed region with a ``category`` describing which
layer emitted it:

=================  ====================================================
category           emitted by
=================  ====================================================
``sat``            one backend ``run()`` (all passes of one algorithm)
``launch``         :func:`~repro.gpusim.launch.launch_kernel` (cold)
``replay``         :func:`~repro.gpusim.launch.warm_launch` (any warm run)
``kernel.phase``   a stage inside a kernel body (load/brlt/scan/...)
``pass.host``      one host-backend pass
``batch``          one :meth:`~repro.engine.batch.Engine.run_batch`
``chunk``          one warm stacked chunk of the engine
``calibrate``      one :class:`~repro.harness.runner.Runner` calibration
=================  ====================================================

Launch/replay spans carry the resolved execution modes, the grid/block
geometry and a snapshot of the :class:`~repro.gpusim.counters.CostCounters`
plus the modeled :class:`~repro.gpusim.cost.model.KernelTiming` components
(microseconds).  Kernel-phase spans carry the dependency-chain clock at
entry and exit (``chain0``/``chain1``), which is how the Chrome exporter
places them on the modeled timeline.  All attribute collection happens by
*reading* simulator state, never writing it.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

from ..exec.config import env_flag

__all__ = [
    "TRACE_ENV",
    "Span",
    "Tracer",
    "next_trace_id",
    "tracing",
    "current_tracer",
    "resolve_tracer",
    "env_tracer",
    "kernel_phase",
    "annotate_launch",
]

#: Environment flag enabling the process-global tracer (lowest precedence).
TRACE_ENV = "REPRO_TRACE"

# Process-wide id counters: span and trace ids stay unique across every
# Tracer instance, so merged multi-thread / multi-tracer exports never
# collide.  ``itertools.count`` increments are atomic under the GIL.
_span_ids = itertools.count(1)
_trace_ids = itertools.count(1)


def next_trace_id() -> int:
    """Allocate a fresh process-unique trace id."""
    return next(_trace_ids)


@dataclass
class Span:
    """One timed region of the execution stack."""

    id: int
    parent_id: Optional[int]
    name: str
    category: str
    #: Host wall clock at open/close (``time.perf_counter_ns``).
    t0_ns: int
    t1_ns: int = 0
    #: Structured attributes (config, geometry, counters, timing...).
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: The request/trace this span belongs to (cross-thread correlation).
    trace_id: int = 0
    #: Span links: causal edges that are not parent/child — e.g. a batch
    #: span linking every request that coalesced into it.  Each link is
    #: ``{"trace_id": int, "span_id": int}``.
    links: List[Dict[str, int]] = field(default_factory=list)
    #: Name of the thread that opened the span (exporters group host
    #: tracks by thread).
    thread: str = ""

    @property
    def wall_us(self) -> float:
        """Host wall-clock duration, microseconds."""
        return (self.t1_ns - self.t0_ns) / 1e3

    @property
    def modeled_us(self) -> Optional[float]:
        """Modeled GPU duration, if this span represents a kernel."""
        return self.attrs.get("modeled_us")


class Tracer:
    """Collects :class:`Span` and instant events for one traced region.

    Spans are appended in *open* order (pre-order of the span tree per
    thread), so a child always follows its parent; ``parent_id``
    reconstructs nesting.  The tracer is cheap but not free — it exists
    only while tracing is enabled; disabled call sites never construct
    spans at all.

    Thread safety: the serving layer traces from client and worker
    threads concurrently into one tracer.  The open-span stack is
    **thread-local** (nesting is a per-thread notion), appends to the
    shared ``spans``/``events`` lists take a lock, and span ids come from
    a process-wide counter.  A worker re-parents its spans under the
    originating request with :meth:`activate`.
    """

    def __init__(self):
        self.spans: List[Span] = []
        #: Instant events: plan-cache hits/misses, compile fallbacks...
        self.events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Default trace id for spans opened with no enclosing span and
        #: no :meth:`activate` context (single-request CLI traces).
        self.trace_id = next(_trace_ids)

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def _stack(self) -> List[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span *on the calling thread*."""
        st = self._stack
        return st[-1] if st else None

    def lineage(self) -> "tuple[int, Optional[int]]":
        """(trace_id, parent span id) a new span on this thread inherits."""
        st = self._stack
        if st:
            return st[-1].trace_id, st[-1].id
        amb = getattr(self._local, "ambient", None)
        if amb is not None:
            return amb
        return self.trace_id, None

    @contextmanager
    def activate(self, ctx) -> Iterator[None]:
        """Adopt a captured trace context as this thread's span lineage.

        ``ctx`` is anything with ``trace_id``/``span_id`` attributes
        (:class:`~repro.obs.context.TraceContext`).  While active, spans
        opened on this thread with an empty stack parent under
        ``ctx.span_id`` and carry ``ctx.trace_id`` — this is how a worker
        thread nests engine/launch/replay spans under the submitting
        request's span.  ``ctx=None`` is a no-op scope.
        """
        if ctx is None:
            yield
            return
        prev = getattr(self._local, "ambient", None)
        self._local.ambient = (
            int(ctx.trace_id),
            int(ctx.span_id) if ctx.span_id else None,
        )
        try:
            yield
        finally:
            self._local.ambient = prev

    @contextmanager
    def span(self, name: str, category: str = "span", **attrs) -> Iterator[Span]:
        """Open a span around a ``with`` block; yields it for annotation."""
        trace_id, parent_id = self.lineage()
        sp = Span(
            id=next(_span_ids),
            parent_id=parent_id,
            name=name,
            category=category,
            t0_ns=time.perf_counter_ns(),
            attrs=dict(attrs),
            trace_id=trace_id,
            thread=threading.current_thread().name,
        )
        with self._lock:
            self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.t1_ns = time.perf_counter_ns()

    def start_span(self, name: str, category: str = "span", ctx=None,
                   links=None, **attrs) -> Span:
        """Open a span *without* entering the per-thread stack.

        For regions whose lifetime crosses threads — a serve request span
        is opened on the submitting thread and closed by whichever worker
        completes it — the ``with``-block discipline of :meth:`span`
        cannot apply.  ``ctx`` overrides lineage (else the calling
        thread's resolution is used); ``links`` is an iterable of
        trace-context-like objects recorded as span links.  Close with
        :meth:`end_span`.
        """
        if ctx is not None:
            trace_id = int(ctx.trace_id)
            parent_id = int(ctx.span_id) if ctx.span_id else None
        else:
            trace_id, parent_id = self.lineage()
        sp = Span(
            id=next(_span_ids),
            parent_id=parent_id,
            name=name,
            category=category,
            t0_ns=time.perf_counter_ns(),
            attrs=dict(attrs),
            trace_id=trace_id,
            thread=threading.current_thread().name,
        )
        if links:
            sp.links = [
                {"trace_id": int(l.trace_id), "span_id": int(l.span_id)}
                for l in links
            ]
        with self._lock:
            self.spans.append(sp)
        return sp

    def end_span(self, sp: Span) -> Span:
        """Close a span opened with :meth:`start_span`."""
        sp.t1_ns = time.perf_counter_ns()
        return sp

    def event(self, name: str, category: str = "event", **attrs) -> Dict[str, Any]:
        """Record an instant event attached to the current span (if any)."""
        cur = self.current_span
        ev = {
            "name": name,
            "category": category,
            "t_ns": time.perf_counter_ns(),
            "span_id": cur.id if cur is not None else None,
            **attrs,
        }
        with self._lock:
            self.events.append(ev)
        return ev

    def clear(self) -> None:
        """Drop collected spans/events (the id counters keep running)."""
        with self._lock:
            self.spans.clear()
            self.events.clear()


# -- resolution ------------------------------------------------------------

_UNSET = object()

#: Innermost :func:`tracing` context; ``None`` means explicitly disabled.
_context: ContextVar[Any] = ContextVar("repro_obs_tracer", default=_UNSET)

_env_tracer: Optional[Tracer] = None


def env_tracer() -> Tracer:
    """The process-global tracer behind ``REPRO_TRACE`` (lazily created)."""
    global _env_tracer
    if _env_tracer is None:
        _env_tracer = Tracer()
    return _env_tracer


def current_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is off (the fast path).

    Resolution: innermost :func:`tracing` context (which may explicitly
    disable), then the ``REPRO_TRACE`` environment flag routing to the
    process-global :func:`env_tracer`.
    """
    ctx = _context.get()
    if ctx is not _UNSET:
        return ctx  # a Tracer, or None when a context disabled tracing
    if env_flag(TRACE_ENV, False):
        return env_tracer()
    return None


def resolve_tracer(trace: Union[None, bool, Tracer] = None) -> Optional[Tracer]:
    """Resolve a call-site ``trace=`` keyword over the ambient resolution.

    ``None`` defers to :func:`current_tracer`; ``False`` disables for this
    call; ``True`` uses the ambient tracer or, absent one, the global
    :func:`env_tracer`; a :class:`Tracer` is used directly.
    """
    if trace is None:
        return current_tracer()
    if trace is False:
        return None
    if trace is True:
        ambient = current_tracer()
        # Explicit identity check: an empty Tracer is len()==0, hence falsy.
        return ambient if ambient is not None else env_tracer()
    return trace


@contextmanager
def tracing(tracer: Optional[Tracer] = None, enabled: bool = True) -> Iterator[Optional[Tracer]]:
    """Scope a tracer over a ``with`` block.

    >>> with tracing() as tr:
    ...     run = sat(img)                       # doctest: +SKIP
    >>> [s.name for s in tr.spans]               # doctest: +SKIP

    ``enabled=False`` pushes an explicit *disable*, shadowing any outer
    context and the ``REPRO_TRACE`` environment flag.
    """
    tr = (tracer if tracer is not None else Tracer()) if enabled else None
    token = _context.set(tr)
    try:
        yield tr
    finally:
        _context.reset(token)


# -- instrumentation helpers ----------------------------------------------

def kernel_phase(tracer: Optional[Tracer], ctx, name: str):
    """Span a stage inside a kernel body, marking chain-clock progress.

    ``chain0``/``chain1`` are the block critical-path clock of the
    executing :class:`~repro.gpusim.block.KernelContext` at entry/exit;
    exporters use their deltas to place the phase inside the launch's
    modeled duration.  Reads counters only — never perturbs them.  With
    ``tracer=None`` this is a no-op context.
    """
    if tracer is None:
        return nullcontext()
    return _kernel_phase(tracer, ctx, name)


@contextmanager
def _kernel_phase(tracer: Tracer, ctx, name: str) -> Iterator[Span]:
    with tracer.span(name, category="kernel.phase",
                     chain0=ctx.counters.chain_clocks) as sp:
        yield sp
    sp.attrs["chain1"] = ctx.counters.chain_clocks


def annotate_launch(span: Span, stats, *, sanitize: Optional[bool] = None,
                    bounds_check: Optional[bool] = None) -> Span:
    """Attach the full launch record to a launch/replay span.

    Everything is copied into plain JSON-friendly values so exporters need
    no knowledge of simulator types.
    """
    timing = stats.timing
    span.attrs.update(
        device=stats.device.name,
        grid=tuple(stats.grid),
        block=tuple(stats.block),
        regs_per_thread=stats.regs_per_thread,
        smem_per_block=stats.smem_per_block,
        counters=stats.counters.as_dict(),
        modeled_us=timing.total * 1e6,
        t_gmem_us=timing.t_gmem * 1e6,
        t_smem_us=timing.t_smem * 1e6,
        t_exec_us=timing.t_exec * 1e6,
        t_latency_us=timing.t_latency * 1e6,
        t_overhead_us=timing.t_overhead * 1e6,
        bound=timing.bound,
        waves=timing.waves,
    )
    if sanitize is not None:
        span.attrs["sanitize"] = bool(sanitize)
    if bounds_check is not None:
        span.attrs["bounds_check"] = bool(bounds_check)
    return span
