"""Experiment runner: sweeps over algorithm x device x pair x size.

Executing the simulator at 16k x 16k for every point of Figs. 6-7 would
take hours of host time for no information gain — the kernels are
tile-homogeneous (DESIGN.md Sec. 5).  The runner therefore:

1. fully *executes* each (algorithm, pair, device) configuration once at a
   calibration size (default 1024x1024), validating the output against the
   serial reference while collecting exact event counters;
2. *projects* the counters to every requested size with the per-kernel
   scaling descriptors below and re-times them through the cost model.

``full_sim=True`` bypasses projection for spot checks; the test suite
asserts projection == full execution on sizes it can afford.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dtypes import parse_pair
from ..exec.config import ExecutionConfig, execution
from ..gpusim.cost.projection import PassScaling, project_stats
from ..gpusim.device import get_device
from ..gpusim.launch import LaunchStats
from ..obs.events import emit
from ..obs.metrics import get_metrics
from ..obs.trace import current_tracer
from ..sat.api import ALGORITHMS
from ..sat.naive import sat_reference
from ..workloads.generators import random_matrix

__all__ = ["ALGO_SCALING", "MeasuredPoint", "Runner"]

#: Per-kernel scaling of each algorithm's launch sequence, in launch order.
#: ``blocks_along``: which input dimension the grid grows with;
#: ``chain_along``: which dimension the per-block serial loop walks.
ALGO_SCALING: Dict[str, List[PassScaling]] = {
    "brlt_scanrow": [
        PassScaling(blocks_along="H", chain_along="W", grid_axis="y"),
        PassScaling(blocks_along="W", chain_along="H", grid_axis="y"),
    ],
    "scanrow_brlt": [
        PassScaling(blocks_along="H", chain_along="W", grid_axis="y"),
        PassScaling(blocks_along="W", chain_along="H", grid_axis="y"),
    ],
    "scan_row_column": [
        PassScaling(blocks_along="H", chain_along="W", grid_axis="y"),
        PassScaling(blocks_along="W", chain_along="H", grid_axis="x"),
    ],
    "opencv": [
        PassScaling(blocks_along="H", chain_along="W", grid_axis="y"),
        PassScaling(blocks_along="W", chain_along="H", grid_axis="x"),
    ],
    "npp": [
        PassScaling(blocks_along="H", chain_along="W", grid_axis="y"),
        PassScaling(blocks_along="W", chain_along="H", grid_axis="x"),
    ],
    "bilgic": [
        PassScaling(blocks_along="H", chain_along="W", grid_axis="y"),
        PassScaling(blocks_along="HW", chain_along="const", grid_axis="x"),
        PassScaling(blocks_along="W", chain_along="H", grid_axis="y"),
        PassScaling(blocks_along="HW", chain_along="const", grid_axis="x"),
    ],
}


@dataclass
class MeasuredPoint:
    """One (algorithm, pair, device, size) measurement."""

    algorithm: str
    pair: str
    device: str
    size: Tuple[int, int]
    launches: List[LaunchStats] = field(default_factory=list)
    projected: bool = False

    @property
    def time_s(self) -> float:
        return sum(s.time_s for s in self.launches)

    @property
    def time_us(self) -> float:
        return self.time_s * 1e6

    def kernel_times_us(self) -> List[Tuple[str, float]]:
        return [(s.name, s.time_us) for s in self.launches]


class Runner:
    """Caches calibration runs and projects them across a size sweep."""

    def __init__(self, calibration: int = 1024, validate: bool = True, seed: int = 7,
                 config: Optional[ExecutionConfig] = None):
        self.calibration = calibration
        self.validate = validate
        self.seed = seed
        #: Optional :class:`~repro.exec.ExecutionConfig` scoped over every
        #: calibration run (e.g. ``ExecutionConfig(sanitize=True)`` to
        #: sweep under the sanitizer).  ``None`` uses the ambient
        #: resolution.
        self.config = config
        self._cache: Dict[tuple, MeasuredPoint] = {}

    @property
    def metrics(self):
        """The process-wide :class:`~repro.obs.metrics.MetricsRegistry`.

        Calibrations and projections increment ``runner.calibrations`` /
        ``runner.projections`` here, alongside the simulator and engine
        counters the sweep's sat calls produce.
        """
        return get_metrics()

    # ------------------------------------------------------------------
    def _calibrate(self, algorithm: str, pair: str, device: str,
                   size: Tuple[int, int], **opts) -> MeasuredPoint:
        key = (algorithm, pair, device, size, tuple(sorted(opts.items())))
        if key in self._cache:
            return self._cache[key]
        tp = parse_pair(pair)
        dev = get_device(device)
        img = random_matrix(size, tp.input, seed=self.seed)
        emit("runner.calibrations", algorithm=algorithm)
        tracer = current_tracer()
        with (tracer.span(f"calibrate:{algorithm}", category="calibrate",
                          algorithm=algorithm, pair=tp.name, device=dev.name,
                          size=size, validate=self.validate)
              if tracer is not None else nullcontext()), \
                execution(self.config or ExecutionConfig()):
            run = ALGORITHMS[algorithm](img, pair=tp, device=dev, **opts)
        if self.validate:
            ref = sat_reference(img, tp)
            if np.issubdtype(ref.dtype, np.floating):
                if not np.allclose(run.output, ref, rtol=1e-3, atol=1e-1):
                    raise AssertionError(
                        f"{algorithm}/{tp.name} wrong at calibration size {size}"
                    )
            elif not np.array_equal(run.output, ref):
                raise AssertionError(
                    f"{algorithm}/{tp.name} wrong at calibration size {size}"
                )
        point = MeasuredPoint(
            algorithm=algorithm, pair=tp.name, device=dev.name,
            size=size, launches=run.launches,
        )
        self._cache[key] = point
        return point

    # ------------------------------------------------------------------
    def measure(self, algorithm: str, pair: str, device: str,
                size, full_sim: bool = False, **opts) -> MeasuredPoint:
        """Modeled timing of one configuration at ``size`` (int = square)."""
        if isinstance(size, int):
            size = (size, size)
        cal = min(self.calibration, size[0]), min(self.calibration, size[1])
        if full_sim or size == cal:
            return self._calibrate(algorithm, pair, device, size, **opts)
        base = self._calibrate(algorithm, pair, device, cal, **opts)
        scalings = ALGO_SCALING[algorithm]
        if len(scalings) != len(base.launches):
            raise RuntimeError(
                f"{algorithm}: {len(base.launches)} kernels but "
                f"{len(scalings)} scaling descriptors"
            )
        emit("runner.projections", algorithm=algorithm)
        launches = [
            project_stats(stats, cal, size, scal)
            for stats, scal in zip(base.launches, scalings)
        ]
        return MeasuredPoint(
            algorithm=algorithm, pair=base.pair, device=base.device,
            size=size, launches=launches, projected=True,
        )

    # ------------------------------------------------------------------
    def sweep(self, algorithms, pairs, sizes, device="P100",
              baseline: Optional[str] = "opencv", **opts) -> List[dict]:
        """Grid sweep; returns flat result rows with speedups vs ``baseline``.

        Algorithms that do not support a pair (e.g. NPP beyond 8u32s/8u32f)
        are skipped silently, like the gaps in the paper's figures.
        """
        rows: List[dict] = []
        for pair in pairs:
            for size in sizes:
                base_time = None
                if baseline:
                    base_time = self.measure(baseline, pair, device, size, **opts).time_us
                for algo in algorithms:
                    try:
                        pt = self.measure(algo, pair, device, size, **opts)
                    except ValueError:
                        continue  # unsupported pair for this library
                    rows.append({
                        "device": device,
                        "pair": pair,
                        "size": size if isinstance(size, int) else size[0],
                        "algorithm": algo,
                        "time_us": pt.time_us,
                        "speedup_vs_baseline": (
                            base_time / pt.time_us if base_time else float("nan")
                        ),
                    })
        return rows
