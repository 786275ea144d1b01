"""Kernel launching: the simulator's ``<<<grid, block>>>``.

:func:`launch_kernel` builds a :class:`~repro.gpusim.block.KernelContext`,
runs the kernel body over every block in lock-step, and returns a
:class:`LaunchStats` holding the event counters, the launch configuration
and the modeled :class:`~repro.gpusim.cost.model.KernelTiming` — the same
per-kernel rows ``nvprof --print-gpu-trace`` gave the authors.

``regs_per_thread`` must be declared by the kernel (the simulator cannot
observe ptxas allocation); the SAT kernels derive it from the number of
cached words plus a bookkeeping overhead, which reproduces the paper's
register-pressure behaviour for ``64f``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..exec.config import resolve_execution
from ..obs.events import emit
from ..obs.trace import annotate_launch, current_tracer
from .block import KernelContext
from .counters import CostCounters
from .device import DeviceSpec, get_device
from .cost.model import KernelTiming, kernel_time
from .sanitize import Sanitizer

__all__ = [
    "LaunchStats", "LaunchPlan", "launch_kernel", "replay_kernel",
    "warm_launch",
]


@dataclass
class LaunchStats:
    """Everything recorded about one simulated kernel launch."""

    name: str
    device: DeviceSpec
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    regs_per_thread: int
    smem_per_block: int
    counters: CostCounters
    timing: KernelTiming
    #: Outstanding load instructions per warp (memory-level parallelism).
    mlp: int = 8
    #: Cross-block sector reuse credit through the L2 (see cost.model).
    l2_sector_reuse: float = 1.0

    @property
    def time_s(self) -> float:
        """Modeled kernel execution time in seconds."""
        return self.timing.total

    @property
    def time_us(self) -> float:
        """Modeled kernel execution time in microseconds."""
        return self.timing.total * 1e6

    def retime(self) -> "LaunchStats":
        """Recompute the timing from (possibly projected) counters."""
        self.timing = replace(
            kernel_time(
                self.device,
                self.counters,
                n_blocks=int(np.prod(self.grid)),
                threads_per_block=int(np.prod(self.block)),
                regs_per_thread=self.regs_per_thread,
                smem_per_block=self.smem_per_block,
                mlp=self.mlp,
                l2_sector_reuse=self.l2_sector_reuse,
                name=self.name,
            ),
            sanitizer=self.timing.sanitizer,
        )
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LaunchStats({self.name!r} on {self.device.name}, grid={self.grid}, "
            f"block={self.block}, time={self.time_us:.2f} us, "
            f"bound={self.timing.bound})"
        )


@dataclass
class LaunchPlan:
    """A reusable launch recipe recorded from one cold :func:`launch_kernel`.

    The simulator's counters and timings are functions of the launch
    *geometry* (grid/block dims, padded shapes, masks, access patterns) and
    never of the data values flowing through the kernel.  A plan therefore
    captures the :class:`LaunchStats` of one representative cold launch;
    :func:`replay_kernel` then re-executes the data movement for new inputs
    with accounting disabled and hands back a clone of the recorded stats —
    bit-identical to what a fresh cold launch would have recorded, at a
    fraction of the setup cost.
    """

    #: Stats of the recorded cold launch (``None`` until recorded).
    stats: Optional[LaunchStats] = None

    @property
    def recorded(self) -> bool:
        return self.stats is not None

    def record(self, stats: LaunchStats) -> LaunchStats:
        """Adopt the stats of a cold launch as this plan's template."""
        self.stats = stats
        return stats

    def clone_stats(self) -> LaunchStats:
        """A per-replay copy of the recorded stats.

        Counters are copied so callers may project them independently
        (:meth:`~repro.gpusim.counters.CostCounters.scaled` mutating flows);
        the frozen :class:`KernelTiming` is shared.
        """
        if self.stats is None:
            raise RuntimeError("LaunchPlan.clone_stats() before record()")
        return replace(self.stats, counters=self.stats.counters.copy())


def warm_launch(
    stats: LaunchStats,
    grid: Sequence[int],
    body: Optional[Callable[[], None]] = None,
    *,
    bounds_check: Optional[bool] = None,
) -> None:
    """Telemetry of one warm launch: every warm execution path emits it.

    Counts ``gpusim.replays{kernel}`` and, when tracing, records a
    ``replay``-category span around ``body`` annotated with the recorded
    launch (:func:`~repro.obs.trace.annotate_launch`) and the ``grid`` the
    warm launch covered.  :func:`replay_kernel` passes the kernel run as
    ``body``; the engine's lowered chunks, whose program runs every pass
    at once, call it with no body once per pass at the stacked grid.  The
    modeled track therefore looks the same whichever path ran.
    """
    emit("gpusim.replays", kernel=stats.name)
    tracer = current_tracer()
    if tracer is None:
        if body is not None:
            body()
        return
    with tracer.span(stats.name, category="replay") as sp:
        if body is not None:
            body()
    annotate_launch(sp, stats, bounds_check=bounds_check)
    sp.attrs["grid"] = tuple(grid)


def replay_kernel(
    fn: Callable[..., None],
    *,
    plan: LaunchPlan,
    args: Sequence = (),
    bounds_check: Optional[bool] = None,
) -> LaunchStats:
    """Re-execute a recorded launch on new data, skipping redundant setup.

    The kernel body runs in full at the recorded grid (data movement is
    real), but the context is created with ``record=False`` so all
    counter, coalescing and dependency-chain accounting — the dominant
    per-launch fixed cost — is skipped.  The returned stats are cloned
    from the plan's recorded cold launch and are bit-identical to a fresh
    cold run of the same geometry.

    This is the warm path of buckets that have no lowered program: bounds
    checked buckets, and buckets whose lowering was refused or whose
    program failed at execute time.
    """
    if plan.stats is None:
        raise RuntimeError("replay_kernel() requires a recorded plan")
    if bounds_check is None:
        bounds_check = resolve_execution().bounds_check
    s = plan.stats
    ctx = KernelContext(s.device, s.grid, s.block, record=False,
                        bounds_check=bounds_check)
    ctx.kernel_name = s.name
    warm_launch(s, ctx.grid, lambda: fn(ctx, *args), bounds_check=bounds_check)
    return plan.clone_stats()


def launch_kernel(
    fn: Callable[..., None],
    *,
    device: Union[str, DeviceSpec],
    grid: Union[int, Sequence[int]],
    block: Union[int, Sequence[int]],
    regs_per_thread: int,
    args: Sequence = (),
    name: Optional[str] = None,
    mlp: int = 8,
    l2_sector_reuse: float = 1.0,
    sanitize: Optional[bool] = None,
    bounds_check: Optional[bool] = None,
) -> LaunchStats:
    """Execute ``fn(ctx, *args)`` over the whole grid and model its time.

    ``sanitize`` enables the kernel sanitizer for this launch and
    ``bounds_check`` the global-memory bounds checks; ``None`` defers to
    the :mod:`repro.exec` resolution (context configs, then the
    ``REPRO_GPUSIM_*`` environment flags).  Sanitizer violations raise
    :class:`~repro.gpusim.sanitize.SanitizerError` and the summary report
    is attached to the returned timing.
    """
    dev = get_device(device)
    if sanitize is None or bounds_check is None:
        resolved = resolve_execution(sanitize=sanitize, bounds_check=bounds_check)
        sanitize, bounds_check = resolved.sanitize, resolved.bounds_check
    ctx = KernelContext(dev, grid, block, bounds_check=bounds_check)
    kname = name or getattr(fn, "__name__", "kernel")
    ctx.kernel_name = kname
    if sanitize:
        ctx.sanitizer = Sanitizer(ctx)
    tracer = current_tracer()
    emit("gpusim.launches", kernel=kname)
    with (tracer.span(kname, category="launch")
          if tracer is not None else nullcontext()) as sp:
        fn(ctx, *args)
    timing = kernel_time(
        dev,
        ctx.counters,
        n_blocks=ctx.n_blocks,
        threads_per_block=ctx.threads_per_block,
        regs_per_thread=regs_per_thread,
        smem_per_block=ctx.smem_bytes_per_block,
        mlp=mlp,
        l2_sector_reuse=l2_sector_reuse,
        name=kname,
    )
    if ctx.sanitizer is not None:
        timing = replace(timing, sanitizer=ctx.sanitizer.report())
    stats = LaunchStats(
        name=kname,
        device=dev,
        grid=ctx.grid,
        block=ctx.block,
        regs_per_thread=regs_per_thread,
        smem_per_block=ctx.smem_bytes_per_block,
        counters=ctx.counters,
        timing=timing,
        mlp=mlp,
        l2_sector_reuse=l2_sector_reuse,
    )
    if sp is not None:
        annotate_launch(sp, stats, sanitize=sanitize, bounds_check=bounds_check)
    return stats
