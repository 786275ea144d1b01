"""Built-in execution backends: how a cold run of a spec executes.

All consume the same :class:`~repro.exec.registry.KernelSpec` — geometry,
batch axes and pass semantics are declared once per algorithm and the
backend supplies only the execution substrate:

* ``gpusim`` — the warp-synchronous simulator (counters, cost model,
  sanitizer); the default and the recorder every other mode trusts.
* ``host`` — pure NumPy per-pass ``host`` semantics; no launches, no
  modeled time.

A backend runs a whole call every time; the warm path (recorded plans,
lowered programs) belongs to :mod:`repro.engine`, which ``sat()`` and
``sat_batch()`` both go through.

Importing this module registers the backends;
:func:`repro.exec.registry.get_backend` does so lazily, so nothing below
the API layer needs to import it.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Mapping, Optional, Tuple

import numpy as np

from ..dtypes import TypePair
from ..gpusim.device import get_device
from ..gpusim.global_mem import GlobalArray
from ..gpusim.launch import LaunchStats, launch_kernel
from ..obs.events import emit
from ..obs.trace import current_tracer
from ..sat.common import SatRun, crop, pad_matrix, regs_per_thread
from .registry import KernelSpec, PassSpec, register_backend

__all__ = [
    "GpusimBackend",
    "HostBackend",
    "launch_pass",
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
              if tracer is not None else nullcontext()):
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
            emit("sat.calls", algorithm=spec.algorithm, backend=self.name)
            emit("sat.modeled_us", run.time_us, algorithm=spec.algorithm)
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
        emit("sat.calls", algorithm=spec.algorithm, backend=self.name)
        return SatRun(
            output=np.ascontiguousarray(crop(cur, orig)),
            launches=[],
            algorithm=spec.algorithm,
            device=getattr(device, "name", str(device)),
            pair=tp.name,
            backend="host",
        )


register_backend("gpusim", GpusimBackend())
register_backend("host", HostBackend())
