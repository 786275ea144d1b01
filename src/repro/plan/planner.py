"""The Planner: analytic-model-driven configuration decisions.

Decision procedure, per ``(device, pair, shape bucket)``:

1. enumerate the candidate configurations (the paper's three kernels,
   with the two competitive warp-scan variants for the scan-based ones);
2. calibrate each candidate once at a calibration size (default 512,
   env ``REPRO_PLAN_CALIBRATION``) on the simulator, reusing the
   :class:`~repro.harness.runner.Runner` calibration cache — buckets at
   or below the calibration size are fully simulated, larger ones are
   projected (512 is the smallest calibration whose projections rank
   the BRLT/scan crossover the way full simulation does);
3. project the recorded counters to the bucket's representative size
   with :func:`~repro.gpusim.cost.projection.project_stats` and rank by
   modeled time;
4. pick the argmin; derive the shard tile from the model's structure.

The planner decides only what the model can rank.  Neither the backend
nor the batch depth is part of a decision: a warm bucket runs the same
lowered program, with the same modeled counters and timings, at any
depth.

Decisions are cached in a thread-safe :class:`~repro.engine.lru.
LRUCache` (``plan.cache.*`` metrics) and are deterministic: same key,
same decision, every process.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dtypes import parse_pair
from ..engine.lru import LRUCache
from ..exec.config import ExecutionConfig
from ..gpusim.device import get_device
from ..obs.events import emit
from ..obs.trace import current_tracer

__all__ = [
    "DEFAULT_ALGORITHM",
    "Candidate",
    "PlanDecision",
    "Planner",
    "bucket_of",
    "get_planner",
    "set_planner",
    "shard_threshold_elems",
    "shard_tile_shape",
]

#: The configuration ``sat()`` runs when nothing decides otherwise — the
#: paper's headline kernel (Sec. IV-B).  The planner's candidate list
#: always contains it, so an autotuned decision is never modeled slower
#: than the default.
DEFAULT_ALGORITHM = "brlt_scanrow"

#: Representative square edges for shape buckets.  A shape maps to the
#: nearest power-of-two edge, clamped into this range — close enough for
#: who-wins ranking (the kernels are tile-homogeneous), small enough to
#: keep the decision table enumerable.
BUCKET_EDGES = (128, 256, 512, 1024, 2048)


def bucket_of(shape: Tuple[int, int]) -> Tuple[int, int]:
    """The representative (square) bucket ``shape`` plans as."""
    side = max(int(shape[0]), int(shape[1]), 1)
    best = BUCKET_EDGES[0]
    for edge in BUCKET_EDGES:
        # Geometric rounding: bucket boundary at sqrt(edge * next_edge).
        if side * side > edge * edge * 2:
            continue
        best = edge
        break
    else:
        best = BUCKET_EDGES[-1]
    return (best, best)


@dataclass(frozen=True)
class Candidate:
    """One configuration the planner races: an algorithm plus its opts."""

    algorithm: str
    opts: Tuple[Tuple[str, str], ...] = ()

    @property
    def label(self) -> str:
        if not self.opts:
            return self.algorithm
        inner = ",".join(str(v) for _, v in self.opts)
        return f"{self.algorithm}[{inner}]"

    def opts_dict(self) -> Dict[str, str]:
        return dict(self.opts)


#: The candidate grid.  BRLT-ScanRow has no scan-variant knob (its row
#: chain is serial in registers); the two warp-scan kernels race the
#: paper's default Kogge-Stone against Ladner-Fischer (Sec. VI-B's
#: competitive pair — Brent-Kung/Han-Carlson lose on stage count at warp
#: width and would only pad the calibration bill).
CANDIDATES: Tuple[Candidate, ...] = (
    Candidate(DEFAULT_ALGORITHM),
    Candidate("scanrow_brlt", (("scan", "kogge_stone"),)),
    Candidate("scanrow_brlt", (("scan", "ladner_fischer"),)),
    Candidate("scan_row_column", (("scan", "kogge_stone"),)),
    Candidate("scan_row_column", (("scan", "ladner_fischer"),)),
)


@dataclass(frozen=True)
class PlanDecision:
    """One cached planner decision plus the evidence behind it."""

    #: Decision key.
    device: str
    pair: str
    bucket: Tuple[int, int]
    #: The chosen configuration.
    algorithm: str
    opts: Tuple[Tuple[str, str], ...]
    #: Modeled time of the winner at the bucket's representative size.
    modeled_us: float
    #: Every candidate's ``(label, modeled_us)``, fastest first.
    ranking: Tuple[Tuple[str, float], ...] = ()
    #: Block geometry of the winner's first pass (from the calibration
    #: launch) — the tile/block shape the decision implies.
    block: Tuple[int, int] = (0, 0)

    @property
    def label(self) -> str:
        return self.ranking[0][0] if self.ranking else self.algorithm

    @property
    def runner_up(self) -> Optional[Tuple[str, float]]:
        return self.ranking[1] if len(self.ranking) > 1 else None

    def opts_dict(self) -> Dict[str, str]:
        return dict(self.opts)

    def as_dict(self) -> dict:
        """JSON-stable form (golden decision tables, traces, benches)."""
        return {
            "device": self.device,
            "pair": self.pair,
            "bucket": list(self.bucket),
            "algorithm": self.algorithm,
            "opts": dict(self.opts),
            "modeled_us": round(self.modeled_us, 3),
            "ranking": [[label, round(us, 3)] for label, us in self.ranking],
            "block": list(self.block),
        }


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return default


# -- shard-geometry derivations (used by repro.shard) ------------------------

def shard_tile_shape(image_shape: Tuple[int, int]) -> Tuple[int, int]:
    """The tile edge the planner recommends for a sharded image.

    1024^2 tiles keep the per-tile launch overhead negligible against the
    local-SAT time; images too small for a deep 1024^2 grid drop to 512^2
    so every device still sees enough tiles to overlap compute with
    carry propagation.
    """
    side = max(int(image_shape[0]), int(image_shape[1]))
    return (1024, 1024) if side >= 4096 else (512, 512)


def shard_threshold_elems(n_devices: int, streams_per_device: int = 2,
                          tile_shape: Tuple[int, int] = (1024, 1024)) -> int:
    """Smallest element count worth sharding, from pipeline depth.

    The decoupled-lookback executor only wins when every device holds at
    least one tile per stream in flight — below that the carry chain
    serialises and the modeled makespan degenerates to the single-launch
    time plus carry overhead.  The threshold is therefore the element
    count of that minimal pipelined grid::

        n_devices x streams_per_device x tile_elems

    which for the default configuration (2 simulated P100s, 2 streams,
    1024^2 tiles) reproduces the 2^22 constant the sharder previously
    hard-coded.
    """
    tile_elems = int(tile_shape[0]) * int(tile_shape[1])
    return max(1, int(n_devices)) * max(1, int(streams_per_device)) * tile_elems


# -- the planner -------------------------------------------------------------

class Planner:
    """Decides execution configurations from the analytic cost model.

    Thread-safe: decisions are memoised in a shared
    :class:`~repro.engine.lru.LRUCache` whose lock also serialises the
    one cold computation per key, so racing threads always receive the
    same :class:`PlanDecision` object (mirroring the launch-plan cache's
    guarantee).
    """

    def __init__(self, calibration: Optional[int] = None,
                 cache_size: Optional[int] = None):
        from ..harness.runner import Runner

        self.calibration = int(
            calibration if calibration is not None
            else _env_int("REPRO_PLAN_CALIBRATION", 512))
        # Candidate calibrations always run on the simulator with the
        # canonical modes: unsanitized (the sanitizer perturbs nothing but
        # costs host time), no autotune (the planner must never recurse
        # into itself).
        self._runner = Runner(
            calibration=self.calibration, validate=False,
            config=ExecutionConfig(sanitize=False, bounds_check=False,
                                   backend="gpusim", autotune=False),
        )
        self._runner_lock = threading.RLock()
        self._cache = LRUCache(
            cache_size if cache_size is not None
            else _env_int("REPRO_PLAN_CACHE", 256),
            metrics_prefix="plan.cache",
        )

    # -- cache surface ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._cache)

    @property
    def cache(self) -> LRUCache:
        return self._cache

    def clear(self) -> None:
        self._cache.clear()

    # -- modeling --------------------------------------------------------
    def modeled_us(self, algorithm: str, pair: str, device: str,
                   size, **opts) -> float:
        """Modeled time of one candidate configuration at ``size``.

        Calibrates at ``min(calibration, size)`` and projects — the same
        numbers :meth:`decide` ranks on, exposed for tests and benches.
        """
        with self._runner_lock:
            return self._runner.measure(
                algorithm, pair, device, size, **opts).time_us

    # -- deciding --------------------------------------------------------
    def decide(self, shape: Tuple[int, int], pair,
               device=None) -> PlanDecision:
        """The decision for one ``(shape, pair, device)``.

        ``device=None`` resolves through the standard execution layers.
        """
        import time as _time

        t0 = _time.perf_counter()
        tp = parse_pair(pair)
        if device is None:
            from ..exec.config import resolve_execution
            device = resolve_execution().device
        dev = get_device(device)
        bucket = bucket_of(shape)
        key = (dev.name, tp.name, bucket)
        decision, created = self._cache.get_or_create(
            key, lambda: self._compute(dev.name, tp.name, bucket))
        emit("plan.cache.misses" if created else "plan.cache.hits")
        if created:
            emit("plan.decisions")
        # Serving-timeline attribution (no-op outside a serve request):
        # cache hits cost microseconds, cold ranking dominates — both are
        # honest parts of the request's submit/execute path.
        emit("plan.decide_us", (_time.perf_counter() - t0) * 1e6)
        return decision

    def _compute(self, device: str, pair: str,
                 bucket: Tuple[int, int]) -> PlanDecision:
        tracer = current_tracer()
        if tracer is None:
            return self._rank(device, pair, bucket)
        with tracer.span("plan.decide", category="plan", device=device,
                         pair=pair, bucket=bucket):
            decision = self._rank(device, pair, bucket)
            runner_up = decision.runner_up
            emit(
                "plan.decision",
                device=device, pair=pair, bucket=bucket,
                algorithm=decision.algorithm, opts=dict(decision.opts),
                block=decision.block,
                modeled_us=round(decision.modeled_us, 3),
                runner_up=runner_up[0] if runner_up else None,
                runner_up_us=round(runner_up[1], 3) if runner_up else None,
            )
        return decision

    def _rank(self, device: str, pair: str,
              bucket: Tuple[int, int]) -> PlanDecision:
        timed: List[Tuple[float, int, Candidate, tuple]] = []
        with self._runner_lock:
            for i, cand in enumerate(CANDIDATES):
                try:
                    pt = self._runner.measure(
                        cand.algorithm, pair, device, bucket,
                        **cand.opts_dict())
                except ValueError:
                    continue  # candidate does not support this pair
                block = (tuple(pt.launches[0].block[:2])
                         if pt.launches else (0, 0))
                timed.append((pt.time_us, i, cand, block))
        if not timed:
            raise ValueError(
                f"no candidate algorithm supports pair {pair!r} on "
                f"{device!r}"
            )
        # Sort by modeled time; the candidate-list index breaks exact
        # ties deterministically in favour of the default configuration.
        timed.sort(key=lambda t: (t[0], t[1]))
        best_us, _, best, block = timed[0]
        return PlanDecision(
            device=device, pair=pair, bucket=bucket,
            algorithm=best.algorithm, opts=best.opts,
            modeled_us=best_us,
            ranking=tuple((c.label, us) for us, _, c, _ in timed),
            block=(int(block[0]), int(block[1])) if block else (0, 0),
        )


# -- the process-global planner ---------------------------------------------

_planner: Optional[Planner] = None
_planner_guard = threading.Lock()


def get_planner() -> Planner:
    """The process-wide :class:`Planner` (created on first use)."""
    global _planner
    if _planner is None:
        with _planner_guard:
            if _planner is None:
                _planner = Planner()
    return _planner


def set_planner(planner: Optional[Planner]) -> Optional[Planner]:
    """Install (or with ``None`` reset) the process planner; returns the
    previous one.  Tests use this to isolate decision caches."""
    global _planner
    with _planner_guard:
        previous, _planner = _planner, planner
    return previous
