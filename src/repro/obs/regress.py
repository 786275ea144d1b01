"""Performance-regression checker against the checked-in BENCH files.

``python -m repro.obs.regress`` re-measures the configurations recorded in
``BENCH_batch.json`` / ``BENCH_simulator.json`` and flags modeled-time
regressions beyond a threshold::

    python -m repro.obs.regress --bench BENCH_batch.json --threshold 10

Modeled metrics (the simulator's deterministic ``KernelTiming`` figures:
modeled per-image time, plan-cache hit rate) are compared strictly; host
**wall-clock** metrics are environment-dependent, so they are reported but
only fail a ``--strict`` run when ``--include-wall`` is given.  The
default exit code is 0 (warn-only, the CI ``trace-smoke`` posture);
``--strict`` exits 1 when any strict metric regresses.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "RegressionFinding",
    "load_bench",
    "latest_entry",
    "compare_metrics",
    "fresh_batch_metrics",
    "fresh_simulator_metrics",
    "fresh_serve_metrics",
    "fresh_shard_metrics",
    "fresh_autotune_metrics",
    "check_bench_file",
    "main",
]

#: Direction per metric: "lower" means lower-is-better.
BATCH_METRICS: Dict[str, str] = {
    "modeled_sequential_per_image_s": "lower",
    "plan_efficiency": "higher",
}
SIMULATOR_METRICS: Dict[str, str] = {
    # Named for the register-bank path it always timed; kept so the
    # recorded BENCH_simulator history stays comparable.
    "fused_s": "lower",
}
SERVE_METRICS: Dict[str, str] = {
    "coalesce_ratio": "higher",
    "p95_ms": "lower",
    "p99_ms": "lower",
}
SHARD_METRICS: Dict[str, str] = {
    "tiles_per_s": "higher",
    "carry_overhead_frac": "lower",
    "overlap_fraction": "higher",
}
AUTOTUNE_METRICS: Dict[str, str] = {
    "match_rate": "higher",
}
#: Metrics measured in host wall time (noisy; excluded from strict checks
#: unless --include-wall).
WALL_METRICS = {"fused_s", "wall_s", "p95_ms", "p99_ms"}


@dataclass
class RegressionFinding:
    """One baseline-vs-fresh comparison."""

    bench: str
    metric: str
    baseline: float
    current: float
    #: Signed change in percent; positive means the metric moved in the
    #: *bad* direction for its polarity.
    change_pct: float
    regression: bool
    #: Wall-clock metric (environment-dependent, warn-only by default).
    noisy: bool = False

    def describe(self) -> str:
        flag = "REGRESSION" if self.regression else "ok"
        noise = " (wall-clock, noisy)" if self.noisy else ""
        return (
            f"[{flag}] {self.bench}: {self.metric} baseline={self.baseline:.6g} "
            f"current={self.current:.6g} ({self.change_pct:+.1f}%){noise}"
        )


def load_bench(path) -> List[dict]:
    """The entry list of one BENCH_*.json history file."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of bench entries")
    return data


def latest_entry(entries: Sequence[dict], require: Sequence[str] = ()) -> Optional[dict]:
    """The newest entry carrying every key in ``require`` (file order)."""
    for entry in reversed(entries):
        if all(k in entry for k in require):
            return entry
    return None


def compare_metrics(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    metrics: Mapping[str, str],
    threshold_pct: float,
    bench: str = "",
) -> List[RegressionFinding]:
    """Compare shared metrics; a change past ``threshold_pct`` in the bad
    direction is a regression.  Metrics missing on either side are skipped."""
    findings: List[RegressionFinding] = []
    for name, direction in metrics.items():
        b, c = baseline.get(name), current.get(name)
        if b is None or c is None:
            continue
        b, c = float(b), float(c)
        if b == 0.0:
            continue
        raw_pct = (c - b) / abs(b) * 100.0
        bad_pct = raw_pct if direction == "lower" else -raw_pct
        findings.append(RegressionFinding(
            bench=bench,
            metric=name,
            baseline=b,
            current=c,
            change_pct=bad_pct,
            regression=bad_pct > threshold_pct,
            noisy=name in WALL_METRICS,
        ))
    return findings


# -- fresh measurements ----------------------------------------------------

def fresh_batch_metrics(entry: Mapping[str, Any], n_images: Optional[int] = None) -> Dict[str, float]:
    """Re-measure the engine configuration of one BENCH_batch entry.

    The modeled per-image sequential time depends only on the recorded
    size/pair/algorithm/device, never on the batch depth, so a small fresh
    batch (default ≤8 images) reproduces it exactly.
    """
    import numpy as np

    from ..dtypes import parse_pair
    from ..engine import Engine
    from ..exec.config import ExecutionConfig, execution

    size = entry.get("size", [512, 512])
    h, w = int(size[0]), int(size[1])
    pair = entry.get("pair", "8u32s")
    n = int(n_images if n_images is not None else min(int(entry.get("n_images", 8)), 8))
    tp = parse_pair(pair)
    rng = np.random.default_rng(0)
    if tp.input.is_integer:
        imgs = [rng.integers(0, 256, (h, w)).astype(tp.input.np_dtype)
                for _ in range(n)]
    else:
        imgs = [rng.standard_normal((h, w)).astype(tp.input.np_dtype)
                for _ in range(n)]
    # Pin the default execution mode: BENCH histories are recorded with
    # batching on, and e.g. the sanitized CI profile would otherwise fall
    # back to per-image execution and "regress" every plan metric.
    with execution(ExecutionConfig(sanitize=False, bounds_check=False)):
        run = Engine().run_batch(
            imgs, pair=pair, algorithm=entry.get("algorithm", "brlt_scanrow"),
            device=entry.get("device", "P100"),
        )
    return {
        "modeled_sequential_per_image_s": run.modeled_sequential_s / run.n_images,
        "plan_efficiency": _plan_efficiency(run.plan_hit_rate, run.n_images),
    }


def _plan_efficiency(hit_rate: float, n_images: int) -> float:
    """Hit rate relative to the ideal for the batch depth.

    A uniform single-bucket batch of ``n`` images can hit at most
    ``(n-1)/n`` (the first image of the bucket always misses), so the raw
    hit rate is not comparable across depths — the 8-image regress
    re-measurement would always "regress" against a 64-image baseline.
    Efficiency 1.0 means every avoidable miss was avoided.
    """
    if n_images <= 1:
        return 1.0
    return hit_rate / ((n_images - 1) / n_images)


def baseline_batch_metrics(entry: Mapping[str, Any]) -> Dict[str, float]:
    """The comparable metric set of a recorded BENCH_batch entry."""
    out: Dict[str, float] = {}
    if "modeled_sequential_s" in entry and entry.get("n_images"):
        out["modeled_sequential_per_image_s"] = (
            float(entry["modeled_sequential_s"]) / int(entry["n_images"])
        )
    if "plan_hit_rate" in entry and entry.get("n_images"):
        out["plan_efficiency"] = _plan_efficiency(
            float(entry["plan_hit_rate"]), int(entry["n_images"])
        )
    return out


def fresh_simulator_metrics(entry: Mapping[str, Any]) -> Dict[str, float]:
    """Re-time the simulator wall clock of one BENCH_simulator entry.

    Times the interpreting driver, as the bench does: ``sat()`` would run
    a warm bucket's lowered program after the first call.
    """
    from ..sat.brlt_scanrow import sat_brlt_scanrow
    from ..workloads import random_matrix
    from ..dtypes import parse_pair
    from ..exec.config import ExecutionConfig, execution

    size = entry.get("size", [512, 512])
    pair = entry.get("pair", "32f32f")
    tp = parse_pair(pair)
    img = random_matrix((int(size[0]), int(size[1])), tp.input, seed=0)
    best = float("inf")
    # Pin the plain simulator whatever the ambient modes: a sanitized
    # profile would time the sanitizer, a host backend NumPy.
    with execution(ExecutionConfig(sanitize=False, bounds_check=False,
                                   backend="gpusim")):
        for _ in range(3):
            t0 = time.perf_counter()
            sat_brlt_scanrow(img, pair=pair,
                             device=entry.get("device", "P100"))
            best = min(best, time.perf_counter() - t0)
    return {"fused_s": best}


def fresh_serve_metrics(entry: Mapping[str, Any]) -> Dict[str, float]:
    """Re-measure the serving figures of one BENCH_serve entry.

    A small same-shape closed loop re-measures the headline
    ``coalesce_ratio`` and a fresh ``p95_ms`` (wall clock, so warn-only by
    default).  The ratio is not deterministic: how many requests queue
    behind a busy worker depends on thread timing, so it varies from run
    to run and can read well below the recorded value.  That is why CI's
    strict gate leaves ``BENCH_serve.json`` out.  The
    modes are pinned like the other fresh measurements: a sanitized
    ambient profile would otherwise serialise workers and distort both
    figures.
    """
    import numpy as np

    from ..exec.config import ExecutionConfig, execution
    from ..serve import SatService, run_closed_loop

    size = entry.get("size", [128, 128])
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (int(size[0]), int(size[1]))).astype(np.uint8)
    workers = int(entry.get("workers", 4))
    delay_s = float(entry.get("max_delay_ms", 5.0)) / 1e3
    with execution(ExecutionConfig(sanitize=False, bounds_check=False)):
        with SatService(workers=workers, max_delay_s=delay_s) as svc:
            svc.sat(img)    # warm the bucket's plan
            rep = run_closed_loop(svc, [img], clients=8,
                                  requests_per_client=8)
    return {
        "coalesce_ratio": rep.coalesce_ratio,
        "p95_ms": rep.latency_ms.get("p95", 0.0),
        "p99_ms": rep.latency_ms.get("p99", 0.0),
    }


def fresh_shard_metrics(entry: Mapping[str, Any]) -> Dict[str, float]:
    """Re-run the regress geometry of one BENCH_shard entry.

    The recorded top-level figures are measured at a small fixed geometry
    (2048^2 by default) precisely so this re-measurement is cheap; all
    three metrics derive from the simulator's deterministic cost model,
    so they compare strictly.
    """
    import numpy as np

    from ..exec.config import ExecutionConfig, execution
    from ..shard import sharded_sat

    size = entry.get("size", [2048, 2048])
    tile = entry.get("tile", [512, 512])
    rng = np.random.default_rng(0)
    img = rng.integers(0, 255, size=(int(size[0]), int(size[1])))
    img = img.astype(np.uint8)
    with execution(ExecutionConfig(sanitize=False, bounds_check=False)):
        run = sharded_sat(
            img, pair=entry.get("pair", "8u32s"),
            algorithm=entry.get("algorithm", "brlt_scanrow"),
            shard={"tile_shape": (int(tile[0]), int(tile[1])),
                   "devices": entry.get("devices", "2xP100"),
                   "streams_per_device": 2},
        )
    rep = run.report
    return {name: float(rep[name]) for name in SHARD_METRICS}


def fresh_autotune_metrics(entry: Mapping[str, Any]) -> Dict[str, float]:
    """Re-run the regress grid of one BENCH_autotune entry.

    Replays the planner-vs-measured who-wins comparison over the small
    grid recorded at the entry's top level (devices/pairs/sizes).  Both
    the planner's decisions and the full-simulation measurements are
    deterministic, so ``match_rate`` compares strictly.
    """
    from ..exec.config import ExecutionConfig, execution
    from ..harness.runner import Runner
    from ..plan.planner import CANDIDATES, Planner

    devices = entry.get("devices", ["P100"])
    pairs = entry.get("pairs", ["8u32s"])
    sizes = [int(s) for s in entry.get("sizes", [256, 512])]
    equivalence = float(entry.get("equivalence", 1.02))
    calibration = entry.get("calibration")
    planner = Planner(calibration=calibration)
    runner = Runner(calibration=max(sizes), validate=False)
    matches, cells = 0, 0
    with execution(ExecutionConfig(sanitize=False, bounds_check=False)):
        for device in devices:
            for pair in pairs:
                for size in sizes:
                    decision = planner.decide((size, size), pair, device)
                    measured = {}
                    for cand in CANDIDATES:
                        try:
                            pt = runner.measure(cand.algorithm, pair, device,
                                                size, **cand.opts_dict())
                        except ValueError:
                            continue
                        measured[cand.label] = pt.time_us
                    best = min(measured.values())
                    cells += 1
                    matches += measured[decision.label] <= equivalence * best
    return {"match_rate": matches / max(1, cells)}


def check_bench_file(
    path, threshold_pct: float = 10.0, n_images: Optional[int] = None
) -> List[RegressionFinding]:
    """Re-measure and compare against the newest comparable entry of one
    BENCH file; returns findings (empty when the file has no usable entry)."""
    path = Path(path)
    entries = load_bench(path)
    if "serve" in path.name.lower():
        entry = latest_entry(entries, require=("coalesce_ratio",))
        if entry is None:
            return []
        fresh = fresh_serve_metrics(entry)
        return compare_metrics(entry, fresh, SERVE_METRICS, threshold_pct,
                               bench=path.name)
    if "shard" in path.name.lower():
        entry = latest_entry(entries, require=("tiles_per_s",))
        if entry is None:
            return []
        fresh = fresh_shard_metrics(entry)
        return compare_metrics(entry, fresh, SHARD_METRICS, threshold_pct,
                               bench=path.name)
    if "autotune" in path.name.lower():
        entry = latest_entry(entries, require=("match_rate",))
        if entry is None:
            return []
        fresh = fresh_autotune_metrics(entry)
        return compare_metrics(entry, fresh, AUTOTUNE_METRICS, threshold_pct,
                               bench=path.name)
    if "batch" in path.name.lower():
        entry = latest_entry(entries, require=("modeled_sequential_s", "n_images"))
        if entry is None:
            return []
        fresh = fresh_batch_metrics(entry, n_images=n_images)
        return compare_metrics(
            baseline_batch_metrics(entry), fresh, BATCH_METRICS,
            threshold_pct, bench=path.name,
        )
    entry = latest_entry(entries, require=("fused_s",))
    if entry is None:
        return []
    fresh = fresh_simulator_metrics(entry)
    return compare_metrics(entry, fresh, SIMULATOR_METRICS, threshold_pct,
                           bench=path.name)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.regress", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--bench", action="append", default=None,
                    help="BENCH_*.json file to check (repeatable; default: "
                         "BENCH_batch.json and BENCH_simulator.json in cwd)")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--n-images", type=int, default=None,
                    help="fresh batch depth (default: min(entry, 8))")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on any non-noisy regression")
    ap.add_argument("--include-wall", action="store_true",
                    help="let wall-clock regressions fail a --strict run")
    args = ap.parse_args(argv)

    benches = args.bench or [
        p for p in ("BENCH_batch.json", "BENCH_simulator.json",
                    "BENCH_serve.json", "BENCH_shard.json",
                    "BENCH_autotune.json")
        if Path(p).exists()
    ]
    if not benches:
        print("no BENCH files found; nothing to check", file=sys.stderr)
        return 0

    failures = 0
    for bench in benches:
        try:
            findings = check_bench_file(
                bench, threshold_pct=args.threshold, n_images=args.n_images
            )
        except (OSError, ValueError) as exc:
            print(f"{bench}: skipped ({exc})", file=sys.stderr)
            continue
        if not findings:
            print(f"{bench}: no comparable entry")
            continue
        for f in findings:
            print(f.describe())
            if f.regression and (args.include_wall or not f.noisy):
                failures += 1
    if failures:
        print(f"{failures} regression(s) beyond {args.threshold:.0f}%")
        return 1 if args.strict else 0
    print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
