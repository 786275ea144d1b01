"""Request/response/error types for the SAT serving layer.

Every request kind a :class:`~repro.serve.service.SatService` accepts is a
small dataclass around one input image plus the knobs that decide its
*compatibility*: algorithm, dtype pair, execution config and algorithm
options.  All kinds reduce to one underlying SAT computation — an
app-level request is "a SAT plus a cheap host-side ``finish``" — so a
``rect_sum`` query can ride the same stacked launch as a plain ``sat``
request with the same compatibility key (see
:mod:`repro.serve.batcher`).

``finish(table)`` turns the inclusive SAT of the request's image into the
request's result; it runs on the worker thread after the batched launch
and may raise ``ValueError`` for bad per-request parameters (out-of-range
rectangles), failing only that request.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..exec.config import ConfigLike
from ..obs.context import RequestTimeline, TraceContext
from ..sat.box_filter import box_filter as _box_filter
from ..sat.box_filter import rect_sums as _rect_sums
from ..sat.naive import exclusive_from_inclusive

__all__ = [
    "ServeRequest",
    "SatRequest",
    "RectSumRequest",
    "BoxFilterRequest",
    "ServeResponse",
    "ServeError",
]

_request_ids = itertools.count(1)


@dataclass
class ServeRequest:
    """Base class: one image-bound request to the serving layer.

    Parameters shared by every kind:

    image:
        2-D input matrix (must match the pair's input dtype).
    pair:
        Type pair spelling (``"8u32s"``...); ``None`` resolves from the
        image dtype exactly as :func:`repro.sat.api.sat` does.
    algorithm:
        Key into :data:`repro.sat.api.ALGORITHMS`, or ``"auto"`` to let
        the :class:`~repro.plan.Planner` pick the modeled-fastest kernel
        for this request's shape, pair and device.  ``None`` (default)
        means ``"auto"`` when the resolved config has ``autotune=True``
        and the fixed default algorithm otherwise.  The decision is
        folded into the compatibility key at submit time, so autotuned
        requests coalesce with explicit ones.
    device:
        Simulated device name; ``None`` defers to config resolution.
    config:
        Per-request :class:`~repro.exec.ExecutionConfig` (or mapping /
        profile name), layered over the service default and the
        *submitting thread's* ambient execution contexts — resolution
        happens at submit time, never on a worker thread.
    opts:
        Algorithm options reaching the kernels (``scan=``,
        ``brlt_stride=``...), part of the compatibility key.
    """

    image: np.ndarray
    pair: Optional[str] = None
    algorithm: Optional[str] = None
    device: Optional[str] = None
    config: ConfigLike = None
    opts: Mapping[str, Any] = field(default_factory=dict)
    #: Unique id, assigned at construction (stable across retries).
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: Span lineage captured on the submitting thread (set explicitly to
    #: continue an existing trace; left ``None``, the service captures
    #: the submitter's current span — or starts a fresh trace — when
    #: tracing is enabled).  Never part of the compatibility key.
    trace_ctx: Optional[TraceContext] = None

    kind = "sat"

    def finish(self, table: np.ndarray) -> Any:
        """Turn the inclusive SAT of ``image`` into this request's result."""
        raise NotImplementedError


@dataclass
class SatRequest(ServeRequest):
    """Full SAT table request (inclusive by default, Eq. 1)."""

    #: Return the exclusive table of Eq. 2 instead (host-side shift).
    exclusive: bool = False

    kind = "sat"

    def finish(self, table: np.ndarray) -> np.ndarray:
        return exclusive_from_inclusive(table) if self.exclusive else table


@dataclass
class RectSumRequest(ServeRequest):
    """Rectangle-sum queries over the image's SAT (Fig. 1, four corners).

    ``rects`` is a sequence of inclusive ``(y0, x0, y1, x1)`` pixel
    rectangles (or an ``(N, 4)`` array); the result is the ``(N,)`` array
    of sums, int64-widened for integer SATs exactly as
    :func:`repro.sat.box_filter.rect_sums`.
    """

    rects: Union[Sequence[Tuple[int, int, int, int]], np.ndarray] = ()

    kind = "rect_sum"

    def finish(self, table: np.ndarray) -> np.ndarray:
        arr = np.atleast_2d(np.asarray(self.rects, dtype=np.int64))
        if arr.size == 0 or arr.shape[1] != 4:
            raise ValueError(
                f"rects must be a non-empty (N, 4) array of "
                f"(y0, x0, y1, x1), got shape {np.asarray(self.rects).shape}"
            )
        return _rect_sums(table, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


@dataclass
class BoxFilterRequest(ServeRequest):
    """App-level box filter from the SAT (Crow's original use case)."""

    radius: int = 1
    normalize: bool = True

    kind = "box_filter"

    def finish(self, table: np.ndarray) -> np.ndarray:
        return _box_filter(table, self.radius, normalize=self.normalize)


@dataclass
class ServeResponse:
    """One completed request."""

    request_id: int
    kind: str
    #: The request's result (SAT table, sums array, filtered image...).
    result: Any
    #: Submit-to-completion host latency, microseconds.
    latency_us: float = 0.0
    #: Depth of the coalesced batch this request rode in (1 = solo).
    batch_size: int = 1
    #: Why the batch was admitted: ``"size"`` (hit the stack-size knee),
    #: ``"deadline"`` (its oldest request's linger had elapsed — with the
    #: default linger of 0, any batch a worker took below the knee) or
    #: ``"flush"`` (drain or shutdown before the linger elapsed).
    batch_reason: str = "size"
    #: Whether the underlying launch was shared with other requests.
    coalesced: bool = False
    #: Where the latency went: stage decomposition summing exactly to
    #: ``latency_us``, plus batch-scoped annotations (modeled kernel µs,
    #: plan/compile cache traffic, shard carry).  Always populated.
    timeline: Optional[RequestTimeline] = None
    #: Trace id of the request's span tree (0 when tracing was off).
    trace_id: int = 0

    def __post_init__(self) -> None:
        self.coalesced = self.batch_size > 1


class ServeError(RuntimeError):
    """Structured per-request failure.

    ``code`` is a small stable vocabulary (``"bad_request"`` — invalid
    parameters, fails before/after execution; ``"execution_error"`` — the
    launch itself raised, e.g. an injected ``CompileError``;
    ``"shutdown"`` — the service closed before the request ran).  The
    worker pool attaches the original exception type and message in
    ``details`` so clients can log root causes without parsing strings.
    """

    def __init__(self, code: str, message: str,
                 request_id: Optional[int] = None,
                 details: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id
        self.details = dict(details or {})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "request_id": self.request_id,
            "details": self.details,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ServeError(code={self.code!r}, request_id={self.request_id}, "
                f"message={self.message!r})")
