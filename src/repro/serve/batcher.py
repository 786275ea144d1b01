"""Dynamic request batcher: demand-driven coalescing.

The batcher is the piece that turns chaotic concurrent traffic into the
warm, same-shaped batches the engine's plan cache and lowered programs
make nearly free.  Requests are grouped by their **compatibility key** — every
dimension the batched launch geometry depends on:

* algorithm and dtype pair,
* shape *bucket* (the padded shape, :meth:`BatchScheduler.bucket_of` at
  the algorithm's pad multiples — two raw shapes that pad identically
  share every counter, so they share a launch),
* the fully **resolved** :class:`~repro.exec.ExecutionConfig`
  (:meth:`~repro.exec.ExecutionConfig.compat_key`): sanitize/
  bounds-check/backend/device, resolved on the *submitting* thread so
  ambient ``execution()`` contexts and env profiles are honoured,
* canonicalised algorithm options (``scan=``, ``brlt_stride=``...).

Admission is **demand-driven**: a batch forms when a worker asks for one
(:meth:`DynamicBatcher.take`), not when a timer fires.  Each ask admits
the one *eligible* group whose oldest request is oldest, and the batch
takes every request queued under that key at that moment, split only at
the size knee.  A group is eligible, with the batch's reason:

* **size** — it holds at least its depth cap, the stacked staging
  footprint that reaches the engine's chunk bound
  (:class:`~repro.engine.scheduler.BatchScheduler`'s 12 MB knee).  Any
  deeper and the engine would split the launch anyway, so the batch
  takes exactly the cap and the rest stays queued;
* **deadline** — its oldest request has lingered ``max_delay_s``.  The
  default linger is 0, so a request never waits while a worker is idle,
  and batches form from the requests that queue while every worker is
  busy.  A positive linger is opt-in: the minimum time a group's oldest
  request waits before the group is eligible.  At linger 0 a demand
  admission reports ``"deadline"``, because its zero linger has elapsed;
* **flush** — :meth:`~DynamicBatcher.flush` or shutdown made it eligible
  before its linger elapsed.

Serving the oldest head first makes starvation impossible: every take
removes the oldest eligible request, so each request in turn becomes the
oldest.

The clock is injectable so the policy is testable deterministically
(:mod:`tests.serve.test_batcher_policy` drives it with a fake clock and
Hypothesis-generated arrival sequences).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..dtypes import TypePair, parse_pair, resolve_pair
from ..engine.batch import check_baseline_backend, check_image, choose_algorithm
from ..engine.scheduler import BatchScheduler
from ..exec.config import ExecutionConfig
from ..exec.registry import get_kernel_spec, has_kernel_spec
from ..obs.context import TraceContext, _timeline
from ..obs.events import emit
from ..obs.trace import Span, Tracer
from .request import ServeError, ServeRequest

__all__ = ["CompatKey", "Batch", "DynamicBatcher", "KEY_MEMO_SIZE"]

#: Request spellings whose derived :class:`CompatKey` the batcher keeps
#: (:meth:`DynamicBatcher.compat_key_of`) before it starts over.
KEY_MEMO_SIZE = 1024
_keys: Dict[tuple, "CompatKey"] = {}


@dataclass(frozen=True)
class CompatKey:
    """Everything two requests must share to ride one stacked launch."""

    algorithm: str
    pair: str
    bucket: Tuple[int, int]
    #: ``ExecutionConfig.compat_key()`` of the resolved config.
    exec_key: Tuple[Tuple[str, object], ...]
    #: Canonicalised algorithm options.
    opts: Tuple[Tuple[str, object], ...] = ()

    @cached_property
    def config(self) -> ExecutionConfig:
        """The resolved execution config this key was built from, made
        once per key.

        ``autotune`` is off: the planner's decision is already folded
        into ``algorithm`` and ``opts``, so the config is fully resolved
        and the engine runs it without resolving again.
        """
        return ExecutionConfig(autotune=False, **dict(self.exec_key))

    @cached_property
    def image_bytes(self) -> int:
        """One image's stacked staging bytes in this key's bucket."""
        tp = parse_pair(self.pair)
        return BatchScheduler.stack_bytes(
            self.bucket, tp.input.np_dtype, tp.output.np_dtype
        )


def _pair_of(img: np.ndarray, pair) -> TypePair:
    """The request's type pair, which must take ``img``'s dtype as is."""
    tp = resolve_pair(img, pair)
    if img.dtype != tp.input.np_dtype:
        raise ValueError(
            f"request image dtype {img.dtype} does not match pair "
            f"{tp.name} (input {tp.input.np_dtype}); cast at the client "
            f"so coalescing keys stay exact"
        )
    return tp


def _derive_key(img: np.ndarray, request: ServeRequest,
                resolved: ExecutionConfig, algorithm, opts) -> CompatKey:
    """:meth:`DynamicBatcher.compat_key_of`'s derivation, uncached."""
    tp = _pair_of(img, request.pair)
    algorithm, opts = choose_algorithm(algorithm, img.shape, tp, resolved,
                                       opts)
    if has_kernel_spec(algorithm):
        pad = get_kernel_spec(algorithm).pad
        bucket = BatchScheduler.bucket_of(img.shape, pad)
    else:
        check_baseline_backend(algorithm, request.config)
        resolved = resolved.with_fields(backend="gpusim")
        bucket = (int(img.shape[0]), int(img.shape[1]))
    return CompatKey(
        algorithm=algorithm,
        pair=tp.name,
        bucket=bucket,
        exec_key=resolved.compat_key(),
        opts=tuple(sorted(opts.items())),
    )


@dataclass
class _Pending:
    """One queued request plus its completion plumbing."""

    request: ServeRequest
    future: Future
    #: Submitting clock (batcher clock) time, for deadline accounting.
    arrival: float
    #: ``time.perf_counter()`` at submit *entry* (before config and key
    #: resolution), the timeline's origin and the latency measurement's
    #: start.
    t_submit: float
    #: ``time.perf_counter()`` once the request is queued, its events
    #: emitted and the workers woken: the end of the submit stage.
    t_queued: float = 0.0
    #: Submit order within the batcher, which ranks group heads: arrival
    #: stamps can tie (a coarse or injected clock) or run backwards.
    seq: int = 0
    #: The request's open span (tracing enabled) — closed at completion.
    span: Optional[Span] = None
    #: Lineage under the request span, for the worker to link/nest under.
    ctx: Optional[TraceContext] = None
    #: The tracer the span lives in (completion runs on a worker thread).
    tracer: Optional[Tracer] = None
    #: Submit-side timeline annotations (plan.decide runs on the
    #: submitting thread); merged with the worker's at completion.
    annotations: Dict[str, float] = field(default_factory=dict)


@dataclass
class _Group:
    """The pending requests of one compatibility key."""

    key: CompatKey
    #: Admission depth: the stacked-bytes knee in images (>= 1).
    depth_cap: int
    entries: List[_Pending] = field(default_factory=list)

    def deadline(self, max_delay_s: float) -> float:
        return self.entries[0].arrival + max_delay_s

    @property
    def size_ready(self) -> bool:
        return len(self.entries) >= self.depth_cap


@dataclass
class Batch:
    """One admitted batch: what a worker's :meth:`DynamicBatcher.take`
    returns."""

    key: CompatKey
    entries: List[_Pending]
    #: Why it was admitted: ``"size"``, ``"deadline"`` or ``"flush"``.
    reason: str
    #: Batcher-clock admission time.
    admitted: float
    #: ``time.perf_counter()`` at admission (timelines use the perf
    #: clock throughout; ``admitted`` may come from an injected clock).
    t_admitted: float = 0.0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def images(self) -> List[np.ndarray]:
        return [p.request.image for p in self.entries]


class DynamicBatcher:
    """Coalesces compatible requests; a batch forms when a worker asks."""

    def __init__(
        self,
        max_delay_s: float = 0.0,
        max_stack_bytes: Optional[int] = None,
        max_batch: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        #: Linger: the minimum time a group's oldest request waits before
        #: the group is eligible (unless the size knee or a flush admits it
        #: sooner).  0, the default, makes every queued group eligible at
        #: once, so a request waits only while every worker is busy.
        self.max_delay_s = float(max_delay_s)
        #: Stacked-footprint knee; defaults to the engine scheduler's
        #: 12 MB chunk bound — the depth past which the engine would
        #: split the launch anyway.
        self.max_stack_bytes = int(
            max_stack_bytes if max_stack_bytes is not None
            else BatchScheduler().max_stack_bytes
        )
        #: Optional hard cap on batch depth (testing / tail-latency knob).
        self.max_batch = max_batch
        self._clock = clock
        self._cond = threading.Condition()
        self._groups: "OrderedDict[CompatKey, _Group]" = OrderedDict()
        self._closed = False
        #: Requests with ``seq`` up to this were flushed: eligible now.
        self._flushed = 0
        self._pending = 0
        self.submitted = 0
        self.admitted_batches = 0

    # -- keying ----------------------------------------------------------
    @staticmethod
    def depth_cap_for(key: CompatKey, max_stack_bytes: int,
                      max_batch: Optional[int] = None) -> int:
        """Admission depth of ``key``: the stacked-bytes knee in images."""
        cap = max(1, max_stack_bytes // max(1, key.image_bytes))
        if max_batch is not None:
            cap = min(cap, int(max_batch))
        return cap

    @staticmethod
    def compat_key_of(request: ServeRequest,
                      resolved: ExecutionConfig) -> CompatKey:
        """The compatibility key of ``request`` under ``resolved`` modes.

        ``resolved`` must be fully resolved (the service resolves on the
        submitting thread).  Spec-less baseline algorithms bucket at their
        raw shape — they never stack, so each shape is its own "batch of
        solo runs" — and key on the ``gpusim`` backend: like ``sat()``,
        they reject a non-``gpusim`` backend only when the request's own
        ``config`` asks for it, and ignore an ambient one.

        ``algorithm="auto"`` (or ``None`` under ``resolved.autotune``) is
        folded here: the :class:`~repro.plan.Planner` decision replaces
        the placeholder *before* keying, so autotuned requests coalesce
        with explicit requests for the same concrete configuration and
        workers only ever see concrete algorithms.

        The key is derived once per request spelling — shape, dtype,
        pair, algorithm, opts, ``resolved`` and the request's ``config``
        — and then kept (:data:`KEY_MEMO_SIZE` spellings); the image
        check runs on every request, and a request that raises is never
        kept.  An ``auto`` request consults the planner every time and
        is kept under the planner's decision.
        """
        img = request.image
        check_image(img, "request image")
        algorithm, opts = request.algorithm, request.opts
        if algorithm == "auto" or (algorithm is None and resolved.autotune):
            algorithm, opts = choose_algorithm(
                algorithm, img.shape, _pair_of(img, request.pair), resolved,
                opts)
        try:
            memo = (img.shape, img.dtype, request.pair, algorithm,
                    tuple(opts.items()), resolved, request.config)
            key = _keys.get(memo)
        except TypeError:  # unhashable opts or config: derived afresh
            memo = key = None
        if key is None:
            key = _derive_key(img, request, resolved, algorithm, opts)
            if memo is not None:
                if len(_keys) >= KEY_MEMO_SIZE:
                    _keys.clear()
                _keys[memo] = key
        return key

    # -- submission ------------------------------------------------------
    def submit(self, request: ServeRequest, resolved: ExecutionConfig,
               tracer: Optional[Tracer] = None,
               t_submit: Optional[float] = None) -> Future:
        """Queue ``request`` under its compatibility key; returns a Future.

        Raises :class:`ValueError`/``KeyError`` synchronously for invalid
        requests (bad image, unknown algorithm, dtype/pair mismatch) and
        :class:`~repro.serve.request.ServeError` (``code="shutdown"``)
        after :meth:`close` — a closed batcher accepts nothing.

        With a ``tracer``, a ``serve.request`` span is opened *here*, on
        the submitting thread — under the submitter's current span if it
        has one, else as the root of a fresh trace — and travels with the
        pending entry so the worker can nest execution under it and the
        completion path can close it.  The timeline starts at
        ``t_submit``, the caller's ``time.perf_counter()`` mark
        (:meth:`SatService.submit` takes it before resolving the config);
        without one it starts here, before key resolution, which runs
        plan.decide for ``auto`` requests.  The submit stage ends once the
        request is queued, its events emitted and the workers woken, so
        it covers all of the caller's work.
        """
        if t_submit is None:
            t_submit = time.perf_counter()
        sub_ann: Dict[str, float] = {}
        token = _timeline.set(sub_ann)
        try:
            key = self.compat_key_of(request, resolved)
        finally:
            _timeline.reset(token)
        fut: Future = Future()
        pend = _Pending(
            request=request, future=fut,
            arrival=self._clock(), t_submit=t_submit,
            annotations=sub_ann,
        )
        if tracer is not None:
            ctx = request.trace_ctx
            if ctx is None:
                ctx = TraceContext.capture(tracer)
            span = tracer.start_span(
                "serve.request", category="serve.request", ctx=ctx,
                request_id=request.request_id, kind=request.kind,
                algorithm=key.algorithm, pair=key.pair,
                bucket=key.bucket,
            )
            pend.span = span
            pend.ctx = ctx.child(span.id)
            pend.tracer = tracer
        with self._cond:
            if self._closed:
                if pend.span is not None:
                    pend.span.attrs["error"] = "closed"
                    tracer.end_span(pend.span)
                raise ServeError("shutdown", "batcher is closed",
                                 request_id=request.request_id)
            grp = self._groups.get(key)
            if grp is None:
                grp = _Group(
                    key=key,
                    depth_cap=self.depth_cap_for(
                        key, self.max_stack_bytes, self.max_batch
                    ),
                )
                self._groups[key] = grp
            self.submitted += 1
            pend.seq = self.submitted
            grp.entries.append(pend)
            self._pending += 1
            # Bookkeeping before the wake-up: the woken worker takes this
            # lock at once, and a submitter that needed it again would
            # queue behind the worker's admission.
            emit("serve.requests", kind=request.kind,
                 algorithm=key.algorithm)
            emit("serve.queue_depth", self._pending)
            self._cond.notify_all()
            # Still under the lock: a worker admits only once it is
            # released, so queued <= admitted.
            pend.t_queued = time.perf_counter()
        return fut

    # -- admission (callers hold self._cond) -----------------------------
    def _reason(self, grp: _Group, now: float) -> Optional[str]:
        """Why ``grp`` is eligible at ``now``; ``None`` while it must wait."""
        if grp.size_ready:
            return "size"
        if now >= grp.deadline(self.max_delay_s):
            return "deadline"
        if self._closed or grp.entries[0].seq <= self._flushed:
            return "flush"
        return None

    def _pick(self, now: float) -> Optional[Batch]:
        """Admit the eligible group whose oldest request is oldest: every
        request queued under its key, up to the depth cap."""
        eligible = [(grp.entries[0].seq, grp, why)
                    for grp in self._groups.values()
                    if (why := self._reason(grp, now)) is not None]
        if not eligible:
            return None
        _, grp, reason = min(eligible, key=lambda e: e[0])
        entries = grp.entries[:grp.depth_cap]
        del grp.entries[:grp.depth_cap]
        if not grp.entries:
            del self._groups[grp.key]
        self._pending -= len(entries)
        self.admitted_batches += 1
        emit("serve.batches", reason=reason)
        emit("serve.batch_size", len(entries))
        emit("serve.batch_wait_us", max(0.0, now - entries[0].arrival) * 1e6)
        emit("serve.queue_depth", self._pending)
        return Batch(key=grp.key, entries=entries, reason=reason,
                     admitted=now, t_admitted=time.perf_counter())

    def _next_deadline(self) -> Optional[float]:
        if not self._groups:
            return None
        return min(g.deadline(self.max_delay_s)
                   for g in self._groups.values())

    # -- consumption -----------------------------------------------------
    def take(self, timeout: Optional[float] = None) -> Optional[Batch]:
        """Block until a group is eligible, then admit it as one batch;
        the worker-pool entry point.

        Returns ``None`` when the batcher is closed and fully drained, or
        when ``timeout`` (seconds) elapses with nothing eligible.
        """
        t_end = (time.monotonic() + timeout) if timeout is not None else None
        with self._cond:
            while True:
                # One clock sample per iteration: the pick and the wait
                # computation must see the same ``now``, otherwise an
                # injected/non-monotonic clock stepping between the two
                # reads can yield a zero wait for a group that the pick
                # just declined — a busy spin.  With a single sample,
                # every deadline <= now was eligible, so the remaining
                # minimum deadline is strictly in the future and the wait
                # is strictly positive (clamped >= 0 for float-arithmetic
                # safety).
                now = self._clock()
                batch = self._pick(now)
                if batch is not None:
                    return batch
                if self._closed:  # every queued group is eligible: drained
                    return None
                waits = []
                nxt = self._next_deadline()
                if nxt is not None:
                    waits.append(max(0.0, nxt - now))
                if t_end is not None:
                    remaining = t_end - time.monotonic()
                    if remaining <= 0:
                        return None
                    waits.append(remaining)
                self._cond.wait(min(waits) if waits else None)

    def poll(self, now: Optional[float] = None) -> List[Batch]:
        """Non-blocking admission at time ``now`` (tests, drains).

        Repeats :meth:`take`'s pick at ``now`` (default: the batcher
        clock) until no group is eligible; returns the batches in
        admission order.
        """
        with self._cond:
            now = self._clock() if now is None else now
            out = []
            while (batch := self._pick(now)) is not None:
                out.append(batch)
            return out

    def flush(self) -> None:
        """Make every queued request eligible now (reason ``"flush"``
        where neither the size knee nor the linger already admits it)."""
        with self._cond:
            self._flushed = self.submitted
            self._cond.notify_all()

    def close(self) -> None:
        """Stop accepting requests; everything queued becomes eligible.

        Workers drain the remaining groups; subsequent :meth:`take` calls
        return ``None`` once everything is consumed.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- introspection ---------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Requests queued and not yet taken by a worker."""
        with self._cond:
            return self._pending

    def pending_keys(self) -> List[CompatKey]:
        with self._cond:
            return list(self._groups.keys())
