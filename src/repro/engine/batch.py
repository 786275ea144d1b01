"""The SAT execution engine behind ``sat()`` and ``sat_batch()``.

Serving workloads compute SATs over *streams* of images, not single
frames; re-paying the simulator's per-launch fixed costs on every call
is the batch-regime analogue of the per-launch overheads the paper
amortises on hardware.  :meth:`Engine.run_batch` is the one path that
executes a SAT: ``sat_batch()`` calls it, every unsharded ``sat()`` is a
one-image batch on the default engine, and a sharded call runs each tile
as one.  The engine removes both costs:

* **Plan cache** (:class:`~repro.engine.plan.LaunchPlanCache`): padded
  geometry, grid/block dims, shared-memory layout, counters, timings and
  staging buffers are recorded once per ``(shape-bucket, pair, algorithm,
  device, opts)`` and reused for every further image in the bucket.
* **Batch stacking**: same-bucket images are stacked into one padded
  ``(depth, H, W)`` array and run as ONE launch per pass with each
  kernel's grid-parallel axis scaled by the batch depth.  Blocks along
  that axis are fully independent in all three paper kernels (carries
  run along the other axis), so the per-image results are bit-identical
  to solo runs while the per-launch host overhead is paid once per chunk.
  For the same reason a deep, large warm stack runs its lowered program
  one depth slice per core (:mod:`repro.engine.pool`).
* **One warm path**: once a ``gpusim`` bucket is recorded, its warm
  chunks run the plan's lowered program (:mod:`repro.compile`); only
  buckets without a program (bounds-checked, lowering refused, program
  failed) replay each image through the interpreter.  Host and
  sanitized calls run each image on the spec's backend, baselines
  through their own driver.

Per-image stats are clones of the recorded cold launch — bit-identical to
what looped ``sat()`` calls would report.  The *aggregate* modeled time is
different (and the point): a stacked launch of depth ``B`` is modeled with
the cold counters scaled by ``B`` over ``B``-fold blocks, which amortises
the fixed launch overhead and partial-wave latency across the batch.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..dtypes import TypePair, resolve_pair
from ..obs.events import emit
from ..obs.trace import current_tracer
from ..exec.config import ExecutionConfig, requested_backend, resolve_execution
from ..exec.registry import (
    KernelSpec, get_backend, get_kernel_spec, has_kernel_spec,
)
from ..gpusim.cost.model import kernel_time
from ..gpusim.device import get_device
from ..gpusim.global_mem import GlobalArray
from ..gpusim.launch import replay_kernel, warm_launch
from ..sat.common import SatRun
from ..sat.naive import exclusive_from_inclusive
# Module objects, not names: repro.plan and repro.sat import this package
# while they load, so their names are looked up when a call runs.
from ..plan import planner as _planner
from ..sat import api as _sat_api
from . import pool
from .plan import LaunchPlanCache, PlanKey, SatPlan
from .scheduler import BatchScheduler, BucketGroup

__all__ = ["BatchRun", "Engine", "default_engine", "run_single", "sat_batch"]

_AXIS_INDEX = {"x": 0, "y": 1}


@dataclass
class BatchRun:
    """Result of one :func:`sat_batch` call."""

    #: Per-image :class:`~repro.sat.common.SatRun` in input order.  Each
    #: carries the same outputs/counters/timings a solo ``sat()`` call on
    #: that image would have produced.
    runs: List[SatRun]
    algorithm: str
    device: str
    pair: str
    #: Host wall-clock time of the whole batch call, seconds.
    wall_s: float = 0.0
    #: Modeled GPU time of the launches the engine actually submitted
    #: (cold solo launches + depth-scaled stacked launches), seconds.
    modeled_batched_s: float = 0.0
    #: Modeled GPU time had every image run as a solo ``sat()``, seconds.
    modeled_sequential_s: float = 0.0
    #: Plan-cache hits/misses attributable to this call (one per image).
    plan_hits: int = 0
    plan_misses: int = 0
    #: ``(bucket, image count)`` per shape bucket, first-seen order.
    buckets: List[Tuple[Tuple[int, int], int]] = field(default_factory=list)
    #: Sector size the gmem counters were recorded with (for GB/s).
    sector_bytes: int = 32

    @property
    def n_images(self) -> int:
        return len(self.runs)

    @property
    def outputs(self) -> List[np.ndarray]:
        return [r.output for r in self.runs]

    @property
    def plan_hit_rate(self) -> float:
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

    @property
    def images_per_s(self) -> float:
        """Modeled batch throughput."""
        return self.n_images / self.modeled_batched_s if self.modeled_batched_s else 0.0

    @property
    def wall_images_per_s(self) -> float:
        """Host wall-clock throughput of the simulated batch."""
        return self.n_images / self.wall_s if self.wall_s else 0.0

    @property
    def effective_gbps(self) -> float:
        """Modeled DRAM throughput: sectors moved over the batched time."""
        sectors = sum(
            s.counters.gmem_sectors for r in self.runs for s in r.launches
        )
        if not self.modeled_batched_s:
            return 0.0
        return sectors * float(self.sector_bytes) / self.modeled_batched_s / 1e9

    @property
    def speedup_vs_sequential(self) -> float:
        """Modeled batched vs. looped-``sat()`` speedup."""
        if not self.modeled_batched_s:
            return 0.0
        return self.modeled_sequential_s / self.modeled_batched_s

    def summary(self) -> str:
        return (
            f"{self.n_images} images, {self.algorithm}/{self.pair} on "
            f"{self.device}: {self.images_per_s:,.0f} img/s modeled "
            f"({self.effective_gbps:.1f} GB/s eff), "
            f"{self.speedup_vs_sequential:.2f}x vs sequential, "
            f"plan hit rate {self.plan_hit_rate:.1%}"
        )

    def to_dict(self) -> dict:
        """A stable, JSON-serialisable metric view of this batch run.

        The single formatter behind ``benchmarks/bench_batch.py`` entries,
        the trace exporters and the regression checker — key names are part
        of the ``BENCH_batch.json`` history format and must stay stable.
        Per-image outputs/launches are deliberately excluded.
        """
        return {
            "algorithm": self.algorithm,
            "device": self.device,
            "pair": self.pair,
            "n_images": self.n_images,
            "wall_s": self.wall_s,
            "modeled_batched_s": self.modeled_batched_s,
            "modeled_sequential_s": self.modeled_sequential_s,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_hit_rate": self.plan_hit_rate,
            "images_per_s_modeled": self.images_per_s,
            "wall_images_per_s": self.wall_images_per_s,
            "effective_gbps": self.effective_gbps,
            "speedup_vs_sequential": self.speedup_vs_sequential,
            "buckets": [[list(b), int(n)] for b, n in self.buckets],
            "sector_bytes": self.sector_bytes,
        }

    @classmethod
    def metrics_from_dict(cls, d: Mapping) -> "BatchRun":
        """Rebuild the metric view from :meth:`to_dict` output.

        The result carries no per-image runs (``runs`` is empty), so only
        the explicitly stored fields — not the derived properties that
        need launches, like ``effective_gbps`` — survive the round trip.
        """
        return cls(
            runs=[],
            algorithm=d["algorithm"],
            device=d["device"],
            pair=d["pair"],
            wall_s=float(d.get("wall_s", 0.0)),
            modeled_batched_s=float(d.get("modeled_batched_s", 0.0)),
            modeled_sequential_s=float(d.get("modeled_sequential_s", 0.0)),
            plan_hits=int(d.get("plan_hits", 0)),
            plan_misses=int(d.get("plan_misses", 0)),
            buckets=[(tuple(b), int(n)) for b, n in d.get("buckets", [])],
            sector_bytes=int(d.get("sector_bytes", 32)),
        )


def _stacked_time_s(stats, depth: int) -> float:
    """Modeled time of a stacked launch: cold counters x depth over
    depth-fold blocks (chain clocks describe one warp and stay fixed)."""
    return kernel_time(
        stats.device,
        stats.counters.scaled(depth),
        n_blocks=depth * int(np.prod(stats.grid)),
        threads_per_block=int(np.prod(stats.block)),
        regs_per_thread=stats.regs_per_thread,
        smem_per_block=stats.smem_per_block,
        mlp=stats.mlp,
        l2_sector_reuse=stats.l2_sector_reuse,
        name=stats.name,
    ).total


def check_baseline_backend(algorithm: str, config=None,
                           backend: Optional[str] = None) -> None:
    """Reject a non-``gpusim`` backend requested for a spec-less baseline.

    Baselines run their own (CPU) path.  A backend requested at the call
    site (``backend=`` or the per-call ``config``) that is not ``gpusim``
    is an error; a floating one (env, profile, context) is ignored.
    """
    req = requested_backend(config, backend)
    if req not in (None, "gpusim"):
        raise ValueError(
            f"algorithm {algorithm!r} has no kernel spec and supports "
            f"only the 'gpusim' backend, not {req!r}"
        )


def check_image(image, what: str = "SAT input") -> None:
    """Reject anything but a 2-D array with at least one row and one
    column; ``what`` names the image in the message."""
    if not isinstance(image, np.ndarray) or image.ndim != 2:
        raise ValueError(
            f"{what} must be a 2-D array, got shape "
            f"{getattr(image, 'shape', None)}"
        )
    if image.shape[0] == 0 or image.shape[1] == 0:
        raise ValueError(
            f"{what} must have at least one row and one column, got shape "
            f"{image.shape}"
        )


def choose_algorithm(algorithm: Optional[str], shape, tp: TypePair,
                     resolved: ExecutionConfig,
                     opts: Mapping) -> Tuple[str, Mapping]:
    """The ``(algorithm, opts)`` a call on an image of ``shape`` runs.

    ``"auto"``, or an unset algorithm under a resolved ``autotune``, runs
    the :class:`~repro.plan.Planner`'s decision for ``shape``, ``tp`` and
    the resolved device, with explicit ``opts`` winning over the
    decision's.  Any other unset algorithm runs
    :data:`~repro.plan.DEFAULT_ALGORITHM`, and an unknown name raises
    ``KeyError``.  ``sat()``, ``sat_batch()``, the sharded executor and
    the serve batcher all choose here, so the planner only selects: the
    choice runs exactly as if it were spelled out.
    """
    if algorithm is None or algorithm == "auto":
        if algorithm is None and not resolved.autotune:
            return _planner.DEFAULT_ALGORITHM, opts
        decision = _planner.get_planner().decide(shape, tp.name,
                                                 resolved.device)
        return decision.algorithm, {**decision.opts_dict(), **opts}
    if algorithm not in _sat_api.ALGORITHMS:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; available: "
            f"{sorted(_sat_api.ALGORITHMS)}"
        )
    return algorithm, opts


def ensure_compiled(plan: SatPlan, tp: TypePair,
                    opts: Optional[Mapping] = None) -> bool:
    """Lower ``plan`` into its compiled program if not already done.

    Returns whether ``plan.compiled`` is available afterwards.  A
    deterministic :class:`~repro.compile.lower.CompileError` pins the
    plan's attempt budget so the bucket stays on the interpreted path;
    compile outcomes are exported as ``compile.miss`` (a fresh successful
    lowering) and ``compile.fallback`` (lowering refused) counters plus a
    warning-level ``compile.fallback`` trace event.
    """
    if plan.compiled is not None:
        return True
    if not plan.recorded or plan.compile_attempts >= plan.MAX_COMPILE_ATTEMPTS:
        return False
    from ..compile.lower import CompileError, compile_plan

    spec = plan.spec
    tracer = current_tracer()
    plan.compile_attempts += 1
    try:
        with (tracer.span(f"compile:{spec.algorithm}", category="compile",
                          algorithm=spec.algorithm, pair=tp.name,
                          bucket=plan.key.bucket)
              if tracer is not None else nullcontext()):
            plan.compiled = compile_plan(spec, plan.launch_plans, tp, opts)
        emit("compile.miss", algorithm=spec.algorithm)
        return True
    except CompileError as e:
        plan.compile_attempts = plan.MAX_COMPILE_ATTEMPTS
        emit("compile.fallback", level="warning", algorithm=spec.algorithm,
             reason=str(e))
        return False


class Engine:
    """Batched SAT executor with a launch-plan cache and a scheduler."""

    def __init__(
        self,
        cache: Optional[LaunchPlanCache] = None,
        scheduler: Optional[BatchScheduler] = None,
    ):
        self.cache = cache if cache is not None else LaunchPlanCache()
        self.scheduler = scheduler if scheduler is not None else BatchScheduler()

    # -- public entry ----------------------------------------------------
    def run_batch(
        self,
        images: Union[Sequence[np.ndarray], np.ndarray],
        pair: Optional[str] = None,
        algorithm: Optional[str] = None,
        device: Optional[str] = None,
        exclusive: bool = False,
        sanitize: Optional[bool] = None,
        bounds_check: Optional[bool] = None,
        backend: Optional[str] = None,
        config: Optional[ExecutionConfig] = None,
        autotune: Optional[bool] = None,
        out: Optional[np.ndarray] = None,
        carry: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        **opts,
    ) -> BatchRun:
        """Run a batch of images through ``algorithm``; see :func:`sat_batch`.

        ``out`` and ``carry`` serve the sharded executor and need a
        one-image batch.  ``out`` is a 2-D destination of the image's
        shape in the accumulator dtype; the run's ``output`` is that
        array.  ``carry=(left, top)`` (integer accumulators only, and
        only with ``out``) makes the output ``SAT + left[:, None] +
        top[None, :]`` with wraparound; see :class:`_Destination` for how
        each path applies it.
        """
        t0 = time.perf_counter()
        imgs = self._normalize(images)
        tp = resolve_pair(imgs[0], pair)
        dest = (None if out is None and carry is None
                else _Destination.make(imgs, tp, exclusive, out, carry))
        overrides = dict(sanitize=sanitize, bounds_check=bounds_check,
                         backend=backend, device=device, autotune=autotune)
        if (isinstance(config, ExecutionConfig) and config.is_fully_resolved
                and all(v is None for v in overrides.values())):
            # Already resolved upstream (the serve batcher keys requests
            # on resolved configs): resolving again would return it as is.
            res = config
        else:
            res = resolve_execution(config, **overrides)
        algorithm, opts = choose_algorithm(algorithm, imgs[0].shape, tp, res,
                                           opts)
        dev = get_device(res.device)

        spec = get_kernel_spec(algorithm) if has_kernel_spec(algorithm) else None
        if spec is not None:
            # A cold run of a spec'd algorithm is its backend run under the
            # resolved modes as they are (the driver would resolve them
            # again), so every cold launch and the plan key see concrete
            # values.
            executor = get_backend(res.backend)

            def run_one(im):
                return executor.run(spec, im, tp=tp, device=dev, opts=opts,
                                    sanitize=res.sanitize,
                                    bounds_check=res.bounds_check)
        else:
            check_baseline_backend(algorithm, config, backend)
            fn = _sat_api.ALGORITHMS[algorithm]
            call_opts = dict(opts)
            if sanitize is not None:
                call_opts["sanitize"] = sanitize

            def run_one(im):
                return fn(im, pair=tp, device=dev, **call_opts)

        tracer = current_tracer()
        if tracer is None:
            run = self._execute(run_one, imgs, tp, dev, algorithm, spec,
                                opts, res, dest, None)
        else:
            with tracer.span(f"batch:{algorithm}", category="batch",
                             algorithm=algorithm, device=dev.name,
                             pair=tp.name, n_images=len(imgs),
                             backend=res.backend) as sp:
                run = self._execute(run_one, imgs, tp, dev, algorithm, spec,
                                    opts, res, dest, tracer)
            sp.attrs["modeled_sequential_s"] = run.modeled_sequential_s

        if exclusive:
            for r in run.runs:
                r.output = exclusive_from_inclusive(r.output)
        run.wall_s = time.perf_counter() - t0
        return run

    def run_group(
        self,
        images: Union[Sequence[np.ndarray], np.ndarray],
        pair: Optional[str] = None,
        algorithm: str = "brlt_scanrow",
        **kwargs,
    ) -> BatchRun:
        """Run a *pre-coalesced* group: every image must share one bucket.

        The entry point for callers that have already done the grouping —
        the serving layer's dynamic batcher coalesces compatible requests
        (same algorithm, dtype pair, shape bucket and resolved execution
        config) before submission, so the engine only has to validate the
        invariant, chunk against the stack-size knee, and execute.  A
        mixed-bucket group raises ``ValueError`` instead of silently
        splitting: an upstream batcher that produces one is broken.

        Accepts exactly the :meth:`run_batch` keywords and returns the
        same :class:`BatchRun` (single entry in ``buckets``).
        """
        imgs = self._normalize(images)
        if has_kernel_spec(algorithm):
            tp = resolve_pair(imgs[0], pair)
            pad = get_kernel_spec(algorithm).pad
            buckets = {self.scheduler.bucket_of(im.shape, pad)
                       for im in imgs}
            if len(buckets) > 1:
                raise ValueError(
                    f"run_group requires one shape bucket, got "
                    f"{sorted(buckets)} (pad multiples {pad}); use "
                    f"run_batch for mixed groups"
                )
            if any(im.dtype != tp.input.np_dtype for im in imgs):
                raise ValueError(
                    f"run_group images must already be {tp.input.np_dtype} "
                    f"(pair {tp.name}); coalescing keys include the dtype"
                )
        return self.run_batch(imgs, pair=pair, algorithm=algorithm, **kwargs)

    # -- internals -------------------------------------------------------
    @staticmethod
    def _normalize(images) -> List[np.ndarray]:
        if isinstance(images, np.ndarray):
            if images.ndim != 3:
                raise ValueError(
                    f"array batches must be 3-D (batch, H, W), got shape "
                    f"{images.shape}"
                )
            images = [images[i] for i in range(images.shape[0])]
        imgs = list(images)
        if not imgs:
            raise ValueError("sat_batch requires at least one image")
        for i, im in enumerate(imgs):
            check_image(im, f"batch image {i}")
            if im.dtype != imgs[0].dtype:
                raise ValueError(
                    f"batch images must share one dtype; image {i} is "
                    f"{im.dtype}, image 0 is {imgs[0].dtype}"
                )
        return imgs

    def _execute(self, run_one, imgs, tp, dev, algorithm, spec, opts, res,
                 dest, tracer) -> BatchRun:
        """Run one batch and emit its per-batch events; ``tracer`` is the
        batch's, ``None`` when untraced, and its current span is the
        batch span."""
        # gpusim batches run warm buckets through their plan's lowered
        # program.  Everything else (host, baselines, sanitized runs) loops
        # per image — the sanitizer is the trusted slow mode and never runs
        # over compiled code.  Sanitized batches run cold per image so
        # every launch is fully instrumented and sanitizer reports stay
        # per-image accurate; baselines have no stacking recipe and the
        # host backend has no launches to stack.
        if res.backend != "gpusim" or res.sanitize or spec is None:
            run = self._run_fallback(run_one, imgs, tp, dev, algorithm)
        else:
            run = self._run_batched(run_one, imgs, tp, dev, algorithm, spec,
                                    opts, res, dest, tracer)
        if dest is not None:
            dest.finish(run.runs[0])
        # Emitted inside the batch span, which takes the span sinks.
        emit("engine.batches", algorithm=algorithm)
        emit("engine.images", run.n_images, algorithm=algorithm)
        emit("engine.plan_hits", run.plan_hits)
        emit("engine.plan_misses", run.plan_misses)
        if tracer is not None:
            tracer.current_span.attrs["modeled_batched_s"] = (
                run.modeled_batched_s)
        # µs-scaled live quantile source for /metrics ("per-kernel
        # modeled time").
        emit("engine.modeled_kernel_us", run.modeled_batched_s * 1e6,
             algorithm=algorithm)
        return run

    def _run_fallback(self, run_one, imgs, tp, dev, algorithm):
        runs = [run_one(im) for im in imgs]
        # Unmodeled backends (host) report no time; count them as zero.
        seq = sum((r.time_s or 0.0) for r in runs)
        return BatchRun(
            runs=runs,
            algorithm=algorithm,
            device=dev.name,
            pair=tp.name,
            modeled_batched_s=seq,
            modeled_sequential_s=seq,
            plan_misses=len(imgs),
            buckets=[(im.shape, 1) for im in imgs],
            sector_bytes=dev.gmem_sector_bytes,
        )

    def _run_batched(self, run_one, imgs, tp, dev, algorithm,
                     spec: KernelSpec, opts, res: ExecutionConfig,
                     dest, tracer) -> BatchRun:
        groups = self.scheduler.groups([im.shape for im in imgs], spec.pad)
        runs: List[Optional[SatRun]] = [None] * len(imgs)
        hits = misses = 0
        modeled_batched = 0.0

        # Key plans on the *resolved* modes, so equivalent spellings (env
        # var vs. config object vs. kwarg) share plans, while bounds-checked
        # variants stay distinct.
        key_opts = dict(opts, bounds_check=res.bounds_check)

        for grp in groups:
            key = PlanKey.make(algorithm, dev.name, tp.name, grp.bucket,
                               key_opts)
            plan = self.cache.get_or_create(key, spec)
            if (dest is not None and plan.compiled is not None
                    and imgs[0].shape == grp.bucket):
                # A warm run that computes in its destination reads only
                # recorded plan state, so it runs without the plan's lock
                # (sharded tiles run at once); it takes the lock only if
                # its program fails and it falls back to staging.
                hits += 1
                modeled_batched = self._run_warm(
                    plan, tp, dev, algorithm, imgs, grp.indices, runs, opts,
                    res, dest, modeled_batched, tracer, lock=plan.lock)
                continue
            # One thread per plan: the cold recording run, lowering and the
            # warm chunks all mutate plan state (launch plans, staging
            # buffers, the compiled program).  Workers on *different*
            # buckets proceed in parallel; a second worker racing into the
            # same cold bucket blocks here, then sees ``plan.recorded``
            # and runs warm instead of double-running the cold compile.
            with plan.lock:
                hits, misses, modeled_batched = self._run_group_locked(
                    run_one, imgs, tp, dev, algorithm, opts, res, grp, plan,
                    runs, hits, misses, modeled_batched, dest, tracer,
                )

        return BatchRun(
            runs=runs,  # type: ignore[arg-type]
            algorithm=algorithm,
            device=dev.name,
            pair=tp.name,
            modeled_batched_s=modeled_batched,
            modeled_sequential_s=sum(r.time_s for r in runs),
            plan_hits=hits,
            plan_misses=misses,
            buckets=[(g.bucket, len(g.indices)) for g in groups],
            sector_bytes=dev.gmem_sector_bytes,
        )

    def _run_group_locked(self, run_one, imgs, tp, dev, algorithm, opts,
                          res, grp, plan, runs,
                          hits, misses, modeled_batched, dest, tracer):
        """Cold-record, lower, then run warm chunks of one bucket group
        (caller holds plan.lock).  Adds to and returns the running
        ``(hits, misses, modeled_batched)``; the modeled time is summed in
        one running order so the batch total is reproducible bit for bit."""
        pending = list(grp.indices)
        if not plan.recorded:
            # One cold, fully-accounted run records the bucket's plan.
            emit("plan.miss", bucket=grp.bucket, algorithm=algorithm)
            i0 = pending.pop(0)
            run0 = run_one(imgs[i0])
            for lp, s in zip(plan.launch_plans, run0.launches):
                lp.record(replace(s, counters=s.counters.copy()))
            runs[i0] = run0
            misses += 1
            self.cache.note_miss()
            modeled_batched += run0.time_s
        if not res.bounds_check:
            # Lower the recorded plan once per bucket; a refusal leaves the
            # bucket on the per-image replay path.
            ensure_compiled(plan, tp, opts)
        if not pending:
            return hits, misses, modeled_batched
        hits += len(pending)
        modeled_batched = self._run_warm(plan, tp, dev, algorithm, imgs,
                                         pending, runs, opts, res, dest,
                                         modeled_batched, tracer)
        return hits, misses, modeled_batched

    def _run_warm(self, plan, tp, dev, algorithm, imgs, pending, runs, opts,
                  res, dest, modeled_batched, tracer, lock=None) -> float:
        """Run the warm images ``pending`` of one bucket in chunks; adds
        their modeled time to ``modeled_batched`` in chunk order and
        returns it.  ``lock`` is the plan's lock when the caller does not
        hold it."""
        emit("plan.hit", bucket=plan.key.bucket, n_images=len(pending),
             algorithm=algorithm)
        self.cache.note_hit(len(pending))
        per_img = self.scheduler.stack_bytes(
            plan.key.bucket, tp.input.np_dtype, tp.output.np_dtype
        )
        for chunk in self.scheduler.chunk(
                BucketGroup(plan.key.bucket, pending), per_img):
            modeled_batched += self._run_chunk(plan, tp, dev, algorithm,
                                               imgs, chunk, runs, opts, res,
                                               dest, tracer, lock)
        return modeled_batched

    def _run_chunk(
        self,
        plan: SatPlan,
        tp: TypePair,
        dev,
        algorithm: str,
        imgs: List[np.ndarray],
        chunk: List[int],
        runs: List[Optional[SatRun]],
        opts: Mapping,
        res: ExecutionConfig,
        dest: Optional["_Destination"],
        tracer,
        lock=None,
    ) -> float:
        """Stage, execute and split one warm chunk; returns its modeled time.

        The chunk runs the plan's lowered program over the ``(depth, hp,
        wp)`` stack when the bucket has one.  Every lowered pass vectorises
        over the leading batch axis exactly as a stacked launch scales its
        grid axis, so this *is* the stacked launch, whether it runs whole
        or one depth slice per core (:func:`repro.engine.pool.
        split_depth`).  Buckets without a program replay each image
        through the interpreter instead.  Either way the per-image stats
        are clones of the recorded cold launch, and the chunk is modeled
        as one stacked launch per pass.  Outputs are copied out of the
        stack while the caller still holds ``plan.lock``, since the next
        holder refills the staging buffers it may alias; only a run that
        computed in its destination skips the copy.  A program that
        fails is dropped, and the chunk replays.  A caller that runs
        without the lock passes it as ``lock``; the chunk takes it before
        it drops the program or touches a staging buffer.
        """
        depth = len(chunk)
        chunk_imgs = [imgs[i] for i in chunk]
        if tracer is None:
            out3 = self._compute_chunk(plan, tp, algorithm, chunk_imgs, opts,
                                       res, dest, lock)
        else:
            with tracer.span(f"chunk:{algorithm}", category="chunk",
                             algorithm=algorithm, depth=depth,
                             bucket=plan.key.bucket,
                             backend=res.backend) as sp:
                out3 = self._compute_chunk(plan, tp, algorithm, chunk_imgs,
                                           opts, res, dest, lock)
        t_stacked = plan.stacked_time_s.get(depth)
        if t_stacked is None:
            t_stacked = plan.stacked_time_s[depth] = sum(
                _stacked_time_s(lp.stats, depth) for lp in plan.launch_plans
            )
        if tracer is not None:
            sp.attrs["modeled_us"] = t_stacked * 1e6
        for j, i in enumerate(chunk):
            h, w = imgs[i].shape
            runs[i] = SatRun(
                output=(dest.out if dest is not None and dest.in_place
                        else out3[j][:h, :w].copy()),
                launches=[lp.clone_stats() for lp in plan.launch_plans],
                algorithm=algorithm,
                device=dev.name,
                pair=tp.name,
            )
        return t_stacked

    def _compute_chunk(self, plan, tp, algorithm, chunk_imgs, opts, res,
                       dest, lock):
        """The chunk's per-image padded outputs: its lowered program's, or
        the interpreter's replay when there is none or it fails."""
        prog = plan.compiled
        out3 = (None if prog is None else self._run_program(
            plan, prog, tp, algorithm, chunk_imgs, res, dest))
        if out3 is None:
            with lock or nullcontext():
                if prog is not None and plan.compiled is prog:
                    plan.compiled = None  # it failed: drop it
                out3 = self._replay_images(
                    plan, tp,
                    self._stage(plan, "input", chunk_imgs, tp,
                                tp.input.np_dtype),
                    opts, res,
                )
        return out3

    @staticmethod
    def _stage(plan: SatPlan, role: str, imgs: List[np.ndarray],
               tp: TypePair, dtype) -> np.ndarray:
        """Copy ``imgs`` into the plan's reusable ``(depth, hp, wp)``
        buffer of ``dtype``.  Each image is first brought to the input
        dtype, so a foreign-dtype image quantises as the cold path does,
        and pad regions are re-zeroed on every fill so each image sees
        exactly what ``pad_matrix`` would have produced."""
        hp, wp = plan.key.bucket
        x3 = plan.get_staging(role, (len(imgs), hp, wp), dtype)
        for j, im in enumerate(imgs):
            im = im.astype(tp.input.np_dtype, copy=False)
            h, w = im.shape
            blk = x3[j]
            blk[:h, :w] = im
            if h < hp:
                blk[h:, :] = 0
            if w < wp:
                blk[:h, w:] = 0
        return x3

    def _run_program(self, plan, prog, tp, algorithm, imgs, res,
                     dest) -> Optional[Sequence[np.ndarray]]:
        """The plan's lowered program ``prog``'s per-image outputs for
        ``imgs`` (a stack, or a list when the stack ran in depth slices),
        or ``None`` when it failed.

        Images are staged straight into the accumulator dtype: the
        per-element cast input->acc is exactly the kernels' load-time
        astype, and the pad zeros are cast-invariant.  An image that
        fills its bucket and has a destination is staged into the
        destination instead, and the program runs there.  A deep, large
        stack runs one depth slice per core; every lowered pass
        vectorises over the depth axis, so the slices' outputs are the
        whole stack's bit for bit.  An execute-time failure counts a
        ``compile.fallback``; the caller then drops the program.
        """
        depth = len(imgs)
        in_place = dest is not None and imgs[0].shape == plan.key.bucket
        x3 = (dest.stage(imgs[0], tp) if in_place else
              self._stage(plan, "compiled_input", imgs, tp, tp.output.np_dtype))
        try:
            parts = pool.run_all(prog.run, pool.split_depth(x3))
        except Exception as e:
            emit("compile.fallback", level="warning", algorithm=algorithm,
                 reason=str(e))
            return None
        if in_place:
            dest.land(parts[0][0])
        emit("compile.hit", depth, algorithm=algorithm)
        for p, lp in zip(plan.spec.passes, plan.launch_plans):
            grid = list(lp.stats.grid)
            grid[_AXIS_INDEX[p.grid_axis]] *= depth
            warm_launch(lp.stats, grid, bounds_check=res.bounds_check)
        if len(parts) == 1:
            return parts[0]
        return [im for part in parts for im in part]

    @staticmethod
    def _replay_images(plan, tp, x3, opts, res) -> np.ndarray:
        """The no-program path: replay every pass per image at the
        recorded grid into a fresh output stack.  Kernels write every
        element of their padded output, so reused staging buffers need no
        clearing."""
        acc = tp.output.np_dtype
        out3 = np.empty(x3.shape, dtype=acc)
        passes = plan.spec.passes
        last = len(passes) - 1
        for j in range(x3.shape[0]):
            cur = GlobalArray(x3[j], "batch_input")
            for pi, (p, lp) in enumerate(zip(passes, plan.launch_plans)):
                h, w = cur.shape
                buf = out3[j] if pi == last else plan.get_staging(
                    f"pass{pi}", (w, h) if p.transposed else (h, w), acc)
                dst = GlobalArray(buf, f"batch_{p.name}")
                replay_kernel(p.kernel, plan=lp,
                              args=(cur, dst) + tuple(p.extra_args(opts)),
                              bounds_check=res.bounds_check)
                cur = dst
        return out3


@dataclass
class _Destination:
    """Where a one-image batch puts its output (``run_batch(out=, carry=)``).

    A warm chunk whose bucket equals the image's shape computes in place:
    :meth:`stage` casts the image into ``out`` through the input dtype,
    as :meth:`Engine._stage` does, and folds the carries into it, and the
    lowered program then scans ``out`` itself.  The fold is exact because
    an integer SAT is linear under wrapping addition: adding ``left``'s
    row-to-row differences to column 0, ``top``'s column-to-column
    differences to row 0 and both first elements to the corner adds
    ``left[:, None] + top[None, :]`` to the table.  Every other run
    (cold, ragged, replayed, ``host``, sanitized) computes as usual, and
    :meth:`finish` copies its output into ``out``, then adds ``left``
    and then ``top``.
    """

    out: np.ndarray
    carry: Optional[Tuple[np.ndarray, np.ndarray]] = None
    #: Whether the lowered program computed the table, carries included,
    #: in ``out``.
    in_place: bool = False

    @classmethod
    def make(cls, imgs: List[np.ndarray], tp: TypePair, exclusive: bool,
             out: Optional[np.ndarray], carry) -> "_Destination":
        """Check the ``out=``/``carry=`` keywords of one batch."""
        acc = np.dtype(tp.output.np_dtype)
        if len(imgs) != 1:
            raise ValueError(
                f"out= and carry= need a one-image batch, got {len(imgs)} "
                f"images")
        if exclusive:
            raise ValueError(
                "out= and carry= hold the inclusive table; exclusive=True "
                "cannot write to them")
        shape = imgs[0].shape
        if out is None:
            raise ValueError("carry= needs an out= destination")
        if (not isinstance(out, np.ndarray) or out.shape != shape
                or out.dtype != acc):
            raise ValueError(
                f"out= must be a {shape} {acc} array for pair {tp.name}, got "
                f"{getattr(out, 'shape', None)} {getattr(out, 'dtype', None)}")
        if carry is not None:
            if not tp.output.is_integer:
                raise ValueError(
                    f"carry= needs an integer accumulator; pair {tp.name} "
                    f"accumulates in {acc}")
            left, top = (np.asarray(v, dtype=acc) for v in carry)
            if left.shape != shape[:1] or top.shape != shape[1:]:
                raise ValueError(
                    f"carry= must be (left, top) of shapes {shape[:1]} and "
                    f"{shape[1:]}, got {left.shape} and {top.shape}")
            carry = (left, top)
        return cls(out, carry)

    def stage(self, im: np.ndarray, tp: TypePair) -> np.ndarray:
        """Cast ``im`` into ``out`` with the carries folded in; returns
        ``out`` as a one-image stack."""
        x = self.out
        x[...] = im.astype(tp.input.np_dtype, copy=False)
        if self.carry is not None:
            left, top = self.carry
            with np.errstate(over="ignore"):
                x[0, 0] += left[0] + top[0]
                x[1:, 0] += left[1:] - left[:-1]
                x[0, 1:] += top[1:] - top[:-1]
        return x[None]

    def land(self, image: np.ndarray) -> None:
        """Take the in-place program's output ``image``, copying it into
        ``out`` unless a pass returned ``out``'s own memory."""
        if (image.ctypes.data != self.out.ctypes.data
                or image.strides != self.out.strides):
            self.out[...] = image
        self.in_place = True

    def finish(self, run: SatRun) -> None:
        """Make ``out`` ``run``'s output, adding the carries unless the
        program folded them in."""
        if not self.in_place:
            self.out[...] = run.output
            if self.carry is not None:
                left, top = self.carry
                with np.errstate(over="ignore"):
                    np.add(self.out, left[:, None], out=self.out)
                    np.add(self.out, top[None, :], out=self.out)
        run.output = self.out


_default_engine: Optional[Engine] = None


def default_engine() -> Engine:
    """The process-wide engine behind :func:`sat_batch` (lazily created)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine


def run_single(image: np.ndarray, **kwargs) -> SatRun:
    """``image`` as a one-image batch on the default engine; returns its
    run.  Every unsharded :func:`repro.sat` call and every sharded tile
    and series frame executes through here; ``kwargs`` are
    :meth:`Engine.run_batch`'s, ``out=`` and ``carry=`` included."""
    return default_engine().run_batch([image], **kwargs).runs[0]


def sat_batch(
    images: Union[Sequence[np.ndarray], np.ndarray],
    pair: Optional[str] = None,
    algorithm: Optional[str] = None,
    device: Optional[str] = None,
    exclusive: bool = False,
    engine: Optional[Engine] = None,
    **opts,
) -> BatchRun:
    """Compute SATs for a batch of images through the execution engine.

    Parameters
    ----------
    images:
        A list of 2-D arrays (any mix of shapes) or one 3-D stack
        ``(batch, H, W)``.  All images must share a dtype.
    pair, algorithm, device, exclusive, **opts:
        Exactly as :func:`repro.sat.api.sat`; ``opts`` may include the
        execution knobs (``sanitize=``, ``bounds_check=``, ``backend=``,
        ``config=``, ``autotune=``).  ``algorithm="auto"``
        (or leaving it unset with autotuning enabled) asks the
        :class:`~repro.plan.Planner` for the first image's shape.  Warm
        ``gpusim`` buckets run their lowered program;
        ``bounds_check=True`` replays them per image through the
        interpreter instead.  ``sanitize=True`` runs the
        batch fully instrumented (per-image cold launches, no plan
        reuse); ``backend="host"`` computes every image on the
        pure-NumPy executor (no launches, no modeled time).
    engine:
        Engine to run on; defaults to the process-wide
        :func:`default_engine` whose plan cache persists across calls.

    Returns
    -------
    BatchRun
        Per-image :class:`~repro.sat.common.SatRun` results (bit-identical
        outputs, counters and timings to looped ``sat()`` calls) plus
        aggregate modeled throughput and plan-cache statistics.
    """
    eng = engine if engine is not None else default_engine()
    return eng.run_batch(
        images, pair=pair, algorithm=algorithm, device=device,
        exclusive=exclusive, **opts,
    )
