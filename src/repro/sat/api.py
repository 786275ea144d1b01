"""Public SAT API: one entry point over every algorithm and baseline.

>>> import numpy as np
>>> from repro import sat
>>> img = np.random.randint(0, 256, (480, 640)).astype(np.uint8)
>>> run = sat(img, pair="8u32s", algorithm="brlt_scanrow", device="P100")
>>> run.output.shape
(480, 640)
>>> run.time_us  # modeled GPU time                       # doctest: +SKIP

``ALGORITHMS`` is the registry the benchmarks sweep over; every entry has
the same signature ``(image, pair=..., device=..., **opts) -> SatRun``.
Each entry is the algorithm's *driver*: a fresh run on the requested
backend every call (interpreted on the simulator unless ``host``).
:func:`sat` and :func:`sat_batch` run the same backends through the
engine, which reuses a shape bucket's recorded plan after its first call.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..baselines.bilgic import sat_bilgic
from ..baselines.cpu import sat_cpu_numpy, sat_cpu_serial
from ..baselines.npp_sat import sat_npp
from ..baselines.opencv_sat import sat_opencv
from ..engine.batch import check_image, run_single
from ..engine.batch import sat_batch as _engine_sat_batch
# ``resolve_execution`` is bound here only for perfbench, whose span
# tests look the name up in this module; sat() itself resolves nothing.
from ..exec.config import ExecutionConfig, resolve_execution  # noqa: F401
from ..exec.registry import has_kernel_spec
from ..obs.trace import resolve_tracer, tracing
from ..plan.planner import DEFAULT_ALGORITHM
from ..shard.executor import above_threshold, sharded_sat
from .brlt_scanrow import sat_brlt_scanrow
from .common import SatRun
from .naive import exclusive_from_inclusive
from .scan_row_column import sat_scan_row_column
from .scanrow_brlt import sat_scanrow_brlt

__all__ = [
    "ALGORITHMS",
    "PAPER_ALGORITHMS",
    "BASELINE_ALGORITHMS",
    "DEFAULT_ALGORITHM",
    "sat",
    "sat_batch",
    "integral",
]

#: The paper's three contributions (Sec. IV).
PAPER_ALGORITHMS: Dict[str, Callable[..., SatRun]] = {
    "brlt_scanrow": sat_brlt_scanrow,
    "scanrow_brlt": sat_scanrow_brlt,
    "scan_row_column": sat_scan_row_column,
}

#: The comparison systems (Sec. VI).
BASELINE_ALGORITHMS: Dict[str, Callable[..., SatRun]] = {
    "opencv": sat_opencv,
    "npp": sat_npp,
    "bilgic": sat_bilgic,
    "cpu_numpy": sat_cpu_numpy,
    "cpu_serial": sat_cpu_serial,
}

ALGORITHMS: Dict[str, Callable[..., SatRun]] = {**PAPER_ALGORITHMS, **BASELINE_ALGORITHMS}


def sat(
    image: np.ndarray,
    pair: Optional[str] = None,
    algorithm: Optional[str] = None,
    device: Optional[str] = None,
    exclusive: bool = False,
    backend: Optional[str] = None,
    config: Optional[ExecutionConfig] = None,
    trace=None,
    shard=None,
    autotune: Optional[bool] = None,
    **opts,
) -> SatRun:
    """Compute the inclusive Summed Area Table of ``image``.

    Every unsharded call is a one-image batch on the default
    :class:`~repro.engine.Engine`.  The first call of a shape bucket runs
    the algorithm interpreted and fully accounted, and records the
    bucket's plan; later calls run the plan's lowered program and report
    clones of the recorded counters and modeled times.  Sanitized,
    ``host`` and baseline calls execute in full every time, and warm
    bounds-checked calls replay the recorded launches.  For a fresh
    interpreted run, call the driver in :data:`ALGORITHMS` directly.

    ``sat()`` itself only checks the image and decides whether to shard.
    The engine, or for a sharded call :func:`~repro.shard.sharded_sat`,
    resolves the execution config once and chooses the algorithm under
    it with :func:`repro.engine.batch.choose_algorithm`, the choice
    ``sat_batch()`` and :class:`~repro.serve.SatService` make too.

    Parameters
    ----------
    image:
        2-D input matrix.  Any shape; internally zero-padded to the
        algorithm's tile multiples and cropped back.
    pair:
        Input/output type pair in the paper's spelling (``"8u32s"``,
        ``"32f32f"``...).  Defaults to the identity pair of ``image``'s
        dtype, except 8u input which defaults to the common ``8u32s``.
    algorithm:
        Key into :data:`ALGORITHMS` — one of the paper's three kernels or
        a baseline — or ``"auto"`` to let the model-driven
        :class:`~repro.plan.Planner` pick the kernel (and its warp-scan
        variant) with the lowest modeled time for this shape, pair and
        device.  ``None`` (default) means ``"auto"`` when autotuning is
        enabled (``autotune=`` kwarg, ``REPRO_PLAN_AUTOTUNE``, or the
        ``autotuned`` profile) and :data:`DEFAULT_ALGORITHM` otherwise.
        Outputs are bit-identical to passing the planner's chosen
        algorithm and opts explicitly — the planner only selects, it
        never alters execution.
    device:
        Simulated device name (``"P100"``, ``"V100"``, ``"M40"``).
        Defaults to the :mod:`repro.exec` resolution (``P100`` unless
        configured otherwise).
    exclusive:
        Return the exclusive table of Eq. 2 (zero first row/column)
        instead of the inclusive one.  The conversion is the host-side
        shift the paper calls "easy" (Sec. III-A).
    backend:
        Execution backend name: ``"gpusim"``, the simulator, or
        ``"host"``, the pure-NumPy executor whose runs have no launches
        and ``time_us is None``.  ``"compiled"`` is an alias of
        ``"gpusim"``.  Only the paper's spec'd algorithms support the
        host backend.
    config:
        A per-call :class:`~repro.exec.ExecutionConfig` (or mapping /
        profile name) sitting between explicit keywords and the ambient
        :func:`~repro.exec.execution` contexts in precedence.
    trace:
        Per-call tracing override: a :class:`~repro.obs.Tracer` to record
        into, ``True`` for the process-wide env tracer, ``False`` to
        disable, ``None`` (default) to defer to the ambient
        :func:`~repro.obs.tracing` context and the ``REPRO_TRACE`` env
        flag.  Tracing never changes outputs, counters or timings.
    shard:
        Sharded (tiled multi-device) execution control.  ``None``
        (default): shard transparently when the image exceeds the
        sharder's element threshold (strictly more than 2048x2048 unless
        ``REPRO_SHARD_THRESHOLD`` overrides it); ``False``: never shard;
        ``True`` / a dict / a :class:`~repro.shard.ShardConfig`: always
        shard, with any supplied knobs (tile shape, device set, streams,
        placement).  Sharded runs return a
        :class:`~repro.shard.ShardRun` — a :class:`SatRun` whose output
        is the full table, plus the device/stream cost report.  Only the
        paper's spec'd algorithms shard; baselines run whole or raise if
        ``shard`` is requested explicitly.
    autotune:
        Per-call override of the ``autotune`` execution field: ``True``
        routes an unspecified ``algorithm`` through the planner,
        ``False`` pins the default, ``None`` defers to config/env.
    **opts:
        Algorithm-specific options, e.g. ``scan="ladner_fischer"`` for the
        parallel-warp-scan kernels, or ``brlt_stride=32`` for the
        bank-conflict ablation; plus the execution knobs ``sanitize=``
        and ``bounds_check=``.  With ``algorithm="auto"``,
        explicit opts win over the planner's chosen opts.

    Returns
    -------
    SatRun
        Output matrix plus per-kernel launch statistics and modeled time.
    """
    check_image(image)
    if shard is None:
        # Only kernels with a spec shard on their own; the planner and the
        # default only ever pick one.
        sharded = ((algorithm is None or algorithm == "auto"
                    or has_kernel_spec(algorithm))
                   and above_threshold(image.shape))
    else:
        sharded = shard is not False
    # Oversized (or explicitly sharded) inputs run tiled across the
    # simulated device set (see repro.shard / docs/sharding.md);
    # everything else is a one-image batch on the default engine.
    if sharded:
        run_fn = sharded_sat
        opts["shard"] = shard
    else:
        run_fn = run_single
    if trace is None:
        run = run_fn(image, pair=pair, algorithm=algorithm, device=device,
                     backend=backend, config=config, autotune=autotune,
                     **opts)
    else:
        with tracing(resolve_tracer(trace), enabled=trace is not False):
            run = run_fn(image, pair=pair, algorithm=algorithm,
                         device=device, backend=backend, config=config,
                         autotune=autotune, **opts)
    if exclusive:
        run.output = exclusive_from_inclusive(run.output)
    return run


def sat_batch(images, **kwargs):
    """Batched SAT over many images through :mod:`repro.engine`.

    Accepts a list of 2-D images or one 3-D ``(batch, H, W)`` stack and
    returns a :class:`~repro.engine.batch.BatchRun` whose per-image
    outputs, counters and timings are bit-identical to looped :func:`sat`
    calls, while same-shape images share cached launch plans and run as
    stacked launches.  See :func:`repro.engine.sat_batch` for parameters.
    """
    return _engine_sat_batch(images, **kwargs)


def integral(image: np.ndarray, **kwargs) -> np.ndarray:
    """Convenience wrapper returning just the SAT matrix.

    Semantics vs. OpenCV
    --------------------
    By default this returns the *inclusive* table (Eq. 1):
    ``out[y, x] = sum(image[:y+1, :x+1])``, with ``out.shape ==
    image.shape``.  ``cv2.integral`` instead returns the *exclusive*
    convention padded by a leading zero row and column: an ``(H+1, W+1)``
    table with ``cv2out[y, x] = sum(image[:y, :x])``.

    Pass ``exclusive=True`` for the exclusive table of Eq. 2 (same shape
    as ``image``, zero first row/column).  That equals OpenCV's result
    with its leading zero row/column dropped — equivalently,
    ``cv2.integral(image)[:-1, :-1]``; and the inclusive default equals
    ``cv2.integral(image)[1:, 1:]``.
    """
    return sat(image, **kwargs).output
