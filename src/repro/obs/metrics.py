"""In-process metrics: counters, gauges and histograms.

One process-global :class:`MetricsRegistry` (:func:`get_metrics`)
aggregates across every ``sat()`` / ``sat_batch()`` call — LightScan-style
throughput figures (images/s, effective GB/s) and plan-cache / compile
reuse rates fall out of the same data instead of being recomputed ad hoc per
benchmark.  Instruments are labelled, e.g.::

    get_metrics().counter("sat.calls", algorithm="brlt_scanrow").inc()

Updates are O(1) dictionary operations with no I/O; the registry never
touches simulator state, so it cannot perturb counters, timings or
sanitizer reports.  ``snapshot()`` returns a plain JSON-friendly dict for
harness reports and exporters.

Thread safety
-------------
The serving layer (:mod:`repro.serve`) updates the registry from worker
and client threads concurrently, so every instrument update is atomic:
each instrument owns a lock (``+=`` on a Python attribute is a
read-modify-write across bytecodes and *does* lose updates under
contention), and the registry guards instrument creation and snapshots
with its own lock so a ``counter(name)`` race always returns the one
shared instrument.  The fast path is one uncontended lock acquire per
update — still no I/O and no simulator state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

from .quantiles import (
    DEFAULT_PERCENTILES,
    bucket_index,
    bucket_quantile,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "reset_metrics",
]

MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_key(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """Monotonically increasing count (atomic under threads)."""

    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n


@dataclass
class Gauge:
    """Last-set value (atomic under threads)."""

    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, v: float) -> None:
        with self._lock:
            self.value = float(v)

    def add(self, n: float) -> float:
        """Atomically add ``n`` (may be negative) and return the new value.

        Gauges tracking live quantities (queue depth, in-flight requests)
        are maintained by concurrent increments/decrements; ``set`` alone
        cannot express that without a read-modify-write race.
        """
        with self._lock:
            self.value += n
            return self.value


@dataclass
class Histogram:
    """Streaming distribution: count/sum/min/max plus log-spaced buckets.

    Observations land in fixed geometric buckets
    (:data:`repro.obs.quantiles.GROWTH` ≈ 19% wide), so live p50/p95/p99
    come out of ``quantile()`` with bounded error and O(1) update cost —
    no sample retention.  One lock keeps all fields mutually consistent:
    concurrent observers can never leave ``count`` and ``total``
    describing different sample sets.
    """

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    #: Sparse log-bucket counts: ``{bucket_index(v): n}``.
    buckets: Dict[int, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def observe(self, v: float) -> None:
        v = float(v)
        idx = bucket_index(v)
        with self._lock:
            self.count += 1
            self.total += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucketed estimate of the ``q``-quantile (``0 <= q <= 1``),
        clamped to the observed min/max; 0.0 when empty."""
        with self._lock:
            if not self.count:
                return 0.0
            return bucket_quantile(self.buckets, q, self.min, self.max)

    def percentiles(
        self, ps: Iterable[float] = DEFAULT_PERCENTILES
    ) -> Dict[str, float]:
        """Bucketed percentile estimates keyed ``"p50"``-style."""
        return {f"p{p:g}": self.quantile(p / 100.0) for p in ps}

    def count_below(self, threshold: float) -> int:
        """Samples with value ``<= threshold`` (bucket-resolution upper
        count; exact when ``threshold`` is a bucket boundary).

        The SLO tracker uses this as its "good events" counter for
        latency-threshold objectives.
        """
        t_idx = bucket_index(threshold)
        with self._lock:
            return sum(n for idx, n in self.buckets.items() if idx <= t_idx)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            if not self.count:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                        "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.total / self.count,
                "p50": bucket_quantile(self.buckets, 0.50, self.min, self.max),
                "p95": bucket_quantile(self.buckets, 0.95, self.min, self.max),
                "p99": bucket_quantile(self.buckets, 0.99, self.min, self.max),
            }


class MetricsRegistry:
    """Keyed store of instruments; one per process by default.

    Instrument creation and whole-registry views take the registry lock;
    updates on an already-created instrument only take that instrument's
    own lock, so hot counters do not serialise against each other.
    """

    def __init__(self):
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        self._lock = threading.RLock()

    # -- instrument accessors (create on first use) ---------------------
    def counter(self, name: str, **labels) -> Counter:
        k = _key(name, labels)
        c = self._counters.get(k)
        if c is None:
            with self._lock:
                c = self._counters.get(k)
                if c is None:
                    c = self._counters[k] = Counter()
        return c

    def gauge(self, name: str, **labels) -> Gauge:
        k = _key(name, labels)
        g = self._gauges.get(k)
        if g is None:
            with self._lock:
                g = self._gauges.get(k)
                if g is None:
                    g = self._gauges[k] = Gauge()
        return g

    def histogram(self, name: str, **labels) -> Histogram:
        k = _key(name, labels)
        h = self._histograms.get(k)
        if h is None:
            with self._lock:
                h = self._histograms.get(k)
                if h is None:
                    h = self._histograms[k] = Histogram()
        return h

    # -- queries ---------------------------------------------------------
    def value(self, name: str, **labels) -> Optional[float]:
        """Counter/gauge value for an exact key, ``None`` if never touched."""
        k = _key(name, labels)
        with self._lock:
            if k in self._counters:
                return self._counters[k].value
            if k in self._gauges:
                return self._gauges[k].value
        return None

    def counter_total(self, name: str) -> float:
        """Sum of one counter name across all label sets."""
        with self._lock:
            return sum(
                c.value for (n, _), c in self._counters.items() if n == name
            )

    def instruments(
        self,
    ) -> Tuple[Dict[MetricKey, Counter], Dict[MetricKey, Gauge],
               Dict[MetricKey, Histogram]]:
        """Shallow copies of the instrument maps (counters, gauges,
        histograms) keyed by ``(name, labels)`` — the raw view the
        Prometheus exposition and the SLO tracker read from."""
        with self._lock:
            return (dict(self._counters), dict(self._gauges),
                    dict(self._histograms))

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """JSON-friendly view of every instrument, sorted by formatted key."""
        out: Dict[str, Any] = {}
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        for k, c in counters:
            out[_format_key(k)] = c.value
        for k, g in gauges:
            out[_format_key(k)] = g.value
        for k, h in histograms:
            out[_format_key(k)] = h.summary()
        if prefix:
            out = {k: v for k, v in out.items() if k.startswith(prefix)}
        return dict(sorted(out.items()))

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_global = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry shared by the whole stack."""
    return _global


def reset_metrics() -> None:
    """Clear the process-global registry (tests, benchmark isolation)."""
    _global.reset()
