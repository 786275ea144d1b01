"""Built-in execution backends: gpusim, host and the compiled executor.

All consume the same :class:`~repro.exec.registry.KernelSpec` — geometry,
batch axes and pass semantics are declared once per algorithm and the
backend supplies only the execution substrate:

* ``gpusim`` — the warp-synchronous simulator (counters, cost model,
  sanitizer); the default and the recorder every other mode trusts.
* ``host`` — pure NumPy per-pass ``host`` semantics; no launches, no
  modeled time.
* ``compiled`` — cold calls run the simulator and record a launch plan,
  which is lowered (:mod:`repro.compile`) into a closed-form NumPy
  program; warm calls execute that program with zero interpreter steps
  and clone the recorded counters/timings.  Sanitized or bounds-checked
  calls delegate to the interpreted path — the sanitizer is the trusted
  slow mode and never runs over compiled code.

Importing this module registers the backends;
:func:`repro.exec.registry.get_backend` does so lazily, so nothing below
the API layer needs to import it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from typing import Mapping, Optional, Tuple

import numpy as np

from ..dtypes import TypePair
from ..gpusim.device import get_device
from ..gpusim.global_mem import GlobalArray
from ..gpusim.launch import LaunchStats, launch_kernel
from ..obs.context import timeline_count
from ..obs.metrics import get_metrics
from ..obs.trace import current_tracer
from ..sat.common import SatRun, crop, pad_matrix, regs_per_thread
from .config import resolve_execution
from .registry import KernelSpec, PassSpec, register_backend

__all__ = [
    "GpusimBackend",
    "HostBackend",
    "CompiledBackend",
    "launch_pass",
    "ensure_compiled",
]


def launch_pass(
    p: PassSpec,
    src: GlobalArray,
    *,
    acc,
    device,
    opts: Optional[Mapping] = None,
    name: Optional[str] = None,
    sanitize: Optional[bool] = None,
    bounds_check: Optional[bool] = None,
) -> Tuple[GlobalArray, LaunchStats]:
    """Launch one spec'd pass over ``src`` on the simulator.

    The grid/block dims, output shape, register footprint, MLP and kernel
    arguments all come from the :class:`PassSpec`; returns ``(dst, stats)``
    like the historical per-kernel ``*_pass`` helpers.
    """
    dev = get_device(device)
    h, w = src.shape
    grid, block = p.geometry(h, w, acc, dev)
    out_shape = (w, h) if p.transposed else (h, w)
    kname = name or p.name
    dst = GlobalArray.empty(out_shape, acc.np_dtype, name=f"{kname}_out")
    stats = launch_kernel(
        p.kernel,
        device=dev,
        grid=grid,
        block=block,
        regs_per_thread=regs_per_thread(acc),
        args=(src, dst) + p.extra_args(opts or {}),
        name=kname,
        mlp=p.mlp,
        sanitize=sanitize,
        bounds_check=bounds_check,
    )
    return dst, stats


class GpusimBackend:
    """Execute a :class:`KernelSpec` on the warp-synchronous simulator."""

    name = "gpusim"

    def run(
        self,
        spec: KernelSpec,
        image: np.ndarray,
        *,
        tp: TypePair,
        device,
        opts: Optional[Mapping] = None,
        sanitize: Optional[bool] = None,
        bounds_check: Optional[bool] = None,
    ) -> SatRun:
        dev = get_device(device)
        orig = image.shape
        padded = pad_matrix(image.astype(tp.input.np_dtype, copy=False), *spec.pad)
        pass_opts = dict(opts or {})
        tracer = current_tracer()
        with (tracer.span(f"sat:{spec.algorithm}", category="sat",
                          algorithm=spec.algorithm, backend=self.name,
                          device=dev.name, pair=tp.name, shape=orig)
              if tracer is not None else nullcontext()) as sp:
            cur = GlobalArray(padded, "input")
            launches = []
            for p in spec.passes:
                cur, stats = launch_pass(
                    p, cur, acc=tp.output, device=dev, opts=pass_opts,
                    sanitize=sanitize, bounds_check=bounds_check,
                )
                launches.append(stats)
        run = SatRun(
            output=crop(cur.to_host(), orig),
            launches=launches,
            algorithm=spec.algorithm,
            device=dev.name,
            pair=tp.name,
        )
        if sp is not None:
            sp.attrs["modeled_us"] = run.time_us
        m = get_metrics()
        m.counter("sat.calls", algorithm=spec.algorithm, backend=self.name).inc()
        m.histogram("sat.modeled_us", algorithm=spec.algorithm).observe(run.time_us)
        return run


class HostBackend:
    """Execute a :class:`KernelSpec` with pure NumPy (no simulator).

    Each pass runs its declared ``host`` semantics function over the same
    padded/accumulator-typed array flow the kernels see, so outputs match
    the gpusim backend (bit-exactly for integer accumulators, within
    summation-order tolerance for floats).  There are no launches and no
    modeled time: the returned run has ``time_us is None``.
    """

    name = "host"

    def run(
        self,
        spec: KernelSpec,
        image: np.ndarray,
        *,
        tp: TypePair,
        device="host",
        opts: Optional[Mapping] = None,
        sanitize: Optional[bool] = None,
        bounds_check: Optional[bool] = None,
    ) -> SatRun:
        orig = image.shape
        padded = pad_matrix(image.astype(tp.input.np_dtype, copy=False), *spec.pad)
        cur = padded.astype(tp.output.np_dtype)
        tracer = current_tracer()
        with (tracer.span(f"sat:{spec.algorithm}", category="sat",
                          algorithm=spec.algorithm, backend=self.name,
                          pair=tp.name, shape=orig)
              if tracer is not None else nullcontext()):
            for p in spec.passes:
                with (tracer.span(p.name, category="pass.host")
                      if tracer is not None else nullcontext()):
                    cur = p.host(cur)
        get_metrics().counter(
            "sat.calls", algorithm=spec.algorithm, backend=self.name
        ).inc()
        return SatRun(
            output=np.ascontiguousarray(crop(cur, orig)),
            launches=[],
            algorithm=spec.algorithm,
            device=getattr(device, "name", str(device)),
            pair=tp.name,
            backend="host",
        )


def ensure_compiled(plan, spec: KernelSpec, tp: TypePair,
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

    m = get_metrics()
    tracer = current_tracer()
    plan.compile_attempts += 1
    try:
        with (tracer.span(f"compile:{spec.algorithm}", category="compile",
                          algorithm=spec.algorithm, pair=tp.name,
                          bucket=plan.key.bucket)
              if tracer is not None else nullcontext()):
            plan.compiled = compile_plan(spec, plan.launch_plans, tp, opts)
        m.counter("compile.miss", algorithm=spec.algorithm).inc()
        timeline_count("compile_misses")
        return True
    except CompileError as e:
        plan.compile_attempts = plan.MAX_COMPILE_ATTEMPTS
        m.counter("compile.fallback", algorithm=spec.algorithm).inc()
        timeline_count("compile_fallbacks")
        if tracer is not None:
            tracer.event("compile.fallback", category="compile",
                         level="warning", algorithm=spec.algorithm,
                         reason=str(e))
        return False


class CompiledBackend:
    """Execute a :class:`KernelSpec` through compiled launch plans.

    Plans live in the default engine's :class:`~repro.engine.plan.
    LaunchPlanCache` (keyed with ``backend="compiled"``), so single
    ``sat()`` calls and ``sat_batch()`` share warm programs.  The
    lifecycle per shape bucket:

    * **cold** — run the fully-accounted simulator, record the launch
      plan, lower it; the returned run carries the real recorded counters
      and timings.
    * **warm** — execute the compiled program (zero interpreter steps);
      counters/timings are clones of the recorded cold launch.
    * **fallback** — sanitize/bounds-check requests, lowering failures
      and execute-time errors all land on the interpreted ``gpusim``
      path (``compile.fallback``); execute-time errors also drop the
      program so the next call may recompile from the recorded plan.
    """

    name = "compiled"

    def run(
        self,
        spec: KernelSpec,
        image: np.ndarray,
        *,
        tp: TypePair,
        device,
        opts: Optional[Mapping] = None,
        sanitize: Optional[bool] = None,
        bounds_check: Optional[bool] = None,
    ) -> SatRun:
        if sanitize is None or bounds_check is None:
            res = resolve_execution(sanitize=sanitize,
                                    bounds_check=bounds_check)
            sanitize, bounds_check = res.sanitize, res.bounds_check
        gpusim = _GPUSIM
        if sanitize or bounds_check:
            # Trusted slow modes stay fully interpreted and instrumented.
            return gpusim.run(spec, image, tp=tp, device=device, opts=opts,
                              sanitize=sanitize, bounds_check=bounds_check)
        from ..engine.batch import default_engine
        from ..engine.plan import PlanKey

        dev = get_device(device)
        orig = image.shape
        pass_opts = dict(opts or {})
        bucket = ((-orig[0]) % spec.pad[0] + orig[0],
                  (-orig[1]) % spec.pad[1] + orig[1])
        cache = default_engine().cache
        key = PlanKey.make(
            spec.algorithm, dev.name, tp.name, bucket,
            dict(pass_opts, bounds_check=bounds_check),
            backend=self.name,
        )
        plan = cache.get_or_create(
            key, spec.batch_spec(tp, dev, **pass_opts)
        )
        m = get_metrics()
        tracer = current_tracer()

        if not plan.recorded:
            cache.note_miss()
            run0 = gpusim.run(spec, image, tp=tp, device=dev, opts=pass_opts,
                              sanitize=False, bounds_check=False)
            for lp, s in zip(plan.launch_plans, run0.launches):
                lp.record(replace(s, counters=s.counters.copy()))
            ensure_compiled(plan, spec, tp, pass_opts)
            # The cold run *is* the recorded template; report it under
            # this backend so callers see one consistent executor.
            run0.backend = self.name
            m.counter("sat.calls", algorithm=spec.algorithm,
                      backend=self.name).inc()
            return run0

        cache.note_hit()
        if not ensure_compiled(plan, spec, tp, pass_opts):
            return gpusim.run(spec, image, tp=tp, device=dev, opts=pass_opts,
                              sanitize=False, bounds_check=False)
        padded = pad_matrix(image.astype(tp.input.np_dtype, copy=False),
                            *spec.pad)
        try:
            with (tracer.span(f"sat:{spec.algorithm}", category="sat",
                              algorithm=spec.algorithm, backend=self.name,
                              device=dev.name, pair=tp.name, shape=orig)
                  if tracer is not None else nullcontext()) as sp:
                out3 = plan.compiled.run(
                    padded[None].astype(tp.output.np_dtype)
                )
        except Exception as e:
            # Execute-time divergence: drop the program (the recorded plan
            # stays) and rerun interpreted; the next call may recompile.
            plan.compiled = None
            m.counter("compile.fallback", algorithm=spec.algorithm).inc()
            if tracer is not None:
                tracer.event("compile.fallback", category="compile",
                             level="warning", algorithm=spec.algorithm,
                             reason=str(e))
            return gpusim.run(spec, image, tp=tp, device=dev, opts=pass_opts,
                              sanitize=False, bounds_check=False)
        run = SatRun(
            output=np.ascontiguousarray(crop(out3[0], orig)),
            launches=[lp.clone_stats() for lp in plan.launch_plans],
            algorithm=spec.algorithm,
            device=dev.name,
            pair=tp.name,
            backend=self.name,
        )
        if sp is not None:
            sp.attrs["modeled_us"] = run.time_us
        m.counter("compile.hit", algorithm=spec.algorithm).inc()
        m.counter("sat.calls", algorithm=spec.algorithm,
                  backend=self.name).inc()
        m.histogram("sat.modeled_us", algorithm=spec.algorithm).observe(
            run.time_us
        )
        return run


_GPUSIM = GpusimBackend()

register_backend("gpusim", _GPUSIM)
register_backend("host", HostBackend())
register_backend("compiled", CompiledBackend())
