"""Load generation against a :class:`~repro.serve.service.SatService`.

Two canonical arrival models:

* **closed loop** (:func:`run_closed_loop`) — N client threads issuing
  requests back-to-back; offered load self-limits to service capacity, so
  the measured throughput *is* the capacity at that concurrency.  Latency
  here is the service's submit-to-completion time.
* **open loop** (:func:`run_open_loop`) — arrivals scheduled at a fixed
  rate regardless of completions, the model that exposes queueing
  collapse past saturation.  Latency is measured from the **scheduled**
  arrival time, not the actual submit time, so a slow service cannot
  hide queueing delay by back-pressuring the generator (the classic
  coordinated-omission mistake).

Both return a :class:`LoadReport` with p50/p95/p99 latency, throughput
and coalescing statistics; ``benchmarks/bench_serve.py`` sweeps these
across arrival rates and client counts into ``BENCH_serve.json``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..obs.quantiles import DEFAULT_PERCENTILES, percentiles
from .request import SatRequest, ServeRequest
from .service import SatService

__all__ = ["LoadReport", "run_closed_loop", "run_open_loop"]

#: Percentiles reported for every latency distribution (the shared
#: repo-wide set from :mod:`repro.obs.quantiles`).
PERCENTILES = DEFAULT_PERCENTILES


@dataclass
class LoadReport:
    """One load-generation run, summarised."""

    mode: str                      # "closed" | "open"
    n_requests: int
    n_ok: int
    n_errors: int
    duration_s: float
    #: Completed requests per second; failed requests are not served.
    throughput_rps: float
    #: Arrival rate the generator *tried* to offer (open loop only).
    offered_rps: Optional[float] = None
    #: Client thread count (closed loop concurrency).
    clients: Optional[int] = None
    latency_ms: Dict[str, float] = field(default_factory=dict)
    #: Fraction of successful requests whose launch was shared.
    coalesce_ratio: float = 0.0
    mean_batch_size: float = 0.0
    batch_reasons: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_errors": self.n_errors,
            "duration_s": round(self.duration_s, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "offered_rps": self.offered_rps,
            "clients": self.clients,
            "latency_ms": {k: round(v, 4) for k, v in self.latency_ms.items()},
            "coalesce_ratio": round(self.coalesce_ratio, 4),
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_reasons": dict(self.batch_reasons),
        }


def _summarise(mode: str, latencies_ms: List[float], responses,
               n_errors: int, duration_s: float,
               offered_rps: Optional[float] = None,
               clients: Optional[int] = None) -> LoadReport:
    n_ok = len(responses)
    # Exact percentiles via the shared quantile helper — the same
    # definitions the bucketed histograms estimate, so harness and live
    # telemetry agree to within one bucket width.
    lat: Dict[str, float] = percentiles(latencies_ms, PERCENTILES)
    if latencies_ms:
        arr = np.asarray(latencies_ms, dtype=np.float64)
        lat["mean"] = float(arr.mean())
        lat["max"] = float(arr.max())
    coalesced = sum(1 for r in responses if r.coalesced)
    reasons: Dict[str, int] = {}
    for r in responses:
        reasons[r.batch_reason] = reasons.get(r.batch_reason, 0) + 1
    return LoadReport(
        mode=mode,
        n_requests=n_ok + n_errors,
        n_ok=n_ok,
        n_errors=n_errors,
        duration_s=duration_s,
        throughput_rps=n_ok / duration_s if duration_s > 0 else 0.0,
        offered_rps=offered_rps,
        clients=clients,
        latency_ms=lat,
        coalesce_ratio=(coalesced / n_ok) if n_ok else 0.0,
        mean_batch_size=(sum(r.batch_size for r in responses) / n_ok)
        if n_ok else 0.0,
        batch_reasons=reasons,
    )


def _default_factory(images: Sequence[np.ndarray]) -> Callable[[int], ServeRequest]:
    def make(i: int) -> ServeRequest:
        return SatRequest(images[i % len(images)])
    return make


def run_closed_loop(
    service: SatService,
    images: Sequence[np.ndarray],
    clients: int = 8,
    requests_per_client: int = 16,
    request_factory: Optional[Callable[[int], ServeRequest]] = None,
    timeout: float = 120.0,
) -> LoadReport:
    """N client threads, back-to-back requests; capacity at that concurrency.

    Each client issues ``requests_per_client`` requests sequentially; the
    i-th request overall (client-major index) is built by
    ``request_factory(i)`` (default: SAT of ``images[i % len(images)]``).
    Latency is the service-measured submit-to-completion time.
    """
    if not images and request_factory is None:
        raise ValueError("need at least one image (or a request_factory)")
    make = request_factory or _default_factory(images)
    responses: List = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    start_gate = threading.Event()

    def client(cid: int) -> None:
        start_gate.wait()
        for j in range(requests_per_client):
            i = cid * requests_per_client + j
            try:
                resp = service.request(make(i), timeout=timeout)
            except Exception as exc:
                with lock:
                    errors.append(exc)
                continue
            with lock:
                responses.append(resp)

    threads = [threading.Thread(target=client, args=(c,), daemon=True)
               for c in range(clients)]
    for t in threads:
        t.start()
    t0 = time.perf_counter()
    start_gate.set()
    for t in threads:
        t.join()
    duration = time.perf_counter() - t0
    latencies_ms = [r.latency_us / 1e3 for r in responses]
    return _summarise("closed", latencies_ms, responses, len(errors),
                      duration, clients=clients)


def run_open_loop(
    service: SatService,
    images: Sequence[np.ndarray],
    rate_rps: float,
    n_requests: int = 64,
    request_factory: Optional[Callable[[int], ServeRequest]] = None,
    timeout: float = 120.0,
) -> LoadReport:
    """Fixed-rate arrivals; latency from *scheduled* arrival to completion.

    Arrival ``i`` is scheduled at ``i / rate_rps`` seconds; the generator
    sleeps to each slot but never skips one, and each request's latency
    clock starts at its scheduled time even if submission itself lagged —
    so queueing delay past saturation shows up in the percentiles instead
    of silently stretching the measurement window.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if not images and request_factory is None:
        raise ValueError("need at least one image (or a request_factory)")
    make = request_factory or _default_factory(images)
    # Completion is timestamped by a done-callback, not by whoever waits
    # on the future: completion order differs from arrival order, and
    # waiting in arrival order would charge early finishers for the time
    # the waiter spent blocked on a slow predecessor.
    completions: Dict[int, float] = {}
    futures = []
    n_errors = 0
    t0 = time.perf_counter()
    for i in range(n_requests):
        scheduled = t0 + i / rate_rps
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            fut = service.submit(make(i))
        except Exception:
            n_errors += 1  # synchronously-invalid request; keep offering
            continue
        fut.add_done_callback(
            lambda f, i=i: completions.setdefault(i, time.perf_counter())
        )
        futures.append((i, scheduled, fut))

    responses: List = []
    latencies_ms: List[float] = []
    for i, scheduled, fut in futures:
        try:
            resp = fut.result(timeout=timeout)
        except Exception:
            n_errors += 1
            continue
        responses.append(resp)
        done_at = completions.get(i, time.perf_counter())
        latencies_ms.append((done_at - scheduled) * 1e3)
    duration = time.perf_counter() - t0
    return _summarise("open", latencies_ms, responses, n_errors, duration,
                      offered_rps=float(rate_rps))
