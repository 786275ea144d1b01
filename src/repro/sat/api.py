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

from contextlib import nullcontext
from typing import Callable, Dict, Optional

import numpy as np

from ..baselines.bilgic import sat_bilgic
from ..baselines.cpu import sat_cpu_numpy, sat_cpu_serial
from ..baselines.npp_sat import sat_npp
from ..baselines.opencv_sat import sat_opencv
from ..dtypes import TYPE_PAIRS, TypePair, parse_pair
from ..exec.config import ExecutionConfig, resolve_execution
from ..exec.registry import get_sharder, has_kernel_spec
from ..obs.trace import resolve_tracer, tracing
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

# Imported after the kernel modules above so their spec registration has
# happened; repro.plan pulls in repro.engine, whose BATCH_SPECS snapshot
# needs the registry populated.
from ..plan.planner import DEFAULT_ALGORITHM  # noqa: E402


def _resolve_pair(image: np.ndarray, pair) -> TypePair:
    """Resolve the type pair for ``image``, failing with a clear message.

    ``pair=None`` means the identity pair of ``image``'s dtype (except 8u
    input, which defaults to the paper's common ``8u32s``).  Unsupported
    dtypes and pair spellings raise ``ValueError`` naming the supported
    pairs instead of failing deep inside ``parse_pair``.
    """
    supported = ", ".join(sorted(TYPE_PAIRS))
    if pair is None:
        if image.dtype == np.uint8:
            return parse_pair("8u32s")
        try:
            return parse_pair(image.dtype)
        except ValueError:
            raise ValueError(
                f"unsupported SAT input dtype {image.dtype}; pass a supported "
                f"input dtype (uint8/uint16/uint32/int32/float32/float64) or "
                f"an explicit pair= from: {supported}"
            ) from None
    try:
        return parse_pair(pair)
    except (TypeError, ValueError):
        raise ValueError(
            f"unsupported type pair {pair!r}; supported pairs: {supported}"
        ) from None


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
    if image.ndim != 2:
        raise ValueError(f"SAT input must be 2-D, got shape {image.shape}")
    if image.shape[0] == 0 or image.shape[1] == 0:
        raise ValueError(
            f"SAT input must have at least one row and one column, got shape "
            f"{image.shape}"
        )
    tp = _resolve_pair(image, pair)
    chosen = algorithm is None or algorithm == "auto"
    if not chosen and algorithm not in ALGORITHMS:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
        )
    # The planner and the default only ever pick a spec'd kernel.
    spec_d = chosen or has_kernel_spec(algorithm)
    if shard not in (None, False) and not spec_d:
        raise ValueError(
            f"algorithm {algorithm!r} has no kernel spec and cannot run sharded"
        )
    scope = (
        tracing(resolve_tracer(trace), enabled=trace is not False)
        if trace is not None else nullcontext()
    )
    with scope:
        if (shard is not False and spec_d
                and get_sharder().wants(image.shape, shard)):
            # Oversized (or explicitly sharded) inputs run tiled across
            # the simulated device set — same output, one carry pass (see
            # repro.shard / docs/sharding.md).  The sharder runs one
            # algorithm on every tile, so it is chosen here.
            if chosen:
                res = resolve_execution(config, backend=backend,
                                        device=device, autotune=autotune)
                if algorithm == "auto" or res.autotune:
                    # Model-driven selection: the planner picks the kernel
                    # and opts with the lowest modeled time; explicit
                    # caller opts still win.  The decision is deterministic
                    # and cached, so this is bit-identical to spelling the
                    # choice by hand.
                    from ..plan import get_planner

                    decision = get_planner().decide(
                        image.shape, tp.name, res.device)
                    algorithm = decision.algorithm
                    opts = {**decision.opts_dict(), **opts}
                else:
                    algorithm = DEFAULT_ALGORITHM
            run = get_sharder().run(
                image, pair=tp, algorithm=algorithm, shard=shard,
                backend=backend, config=config, device=device, **opts,
            )
        else:
            # Everything else is a one-image batch on the default engine,
            # which chooses the algorithm itself: warm buckets run their
            # lowered program; cold, sanitized, host and baseline calls
            # execute in full.
            from ..engine.batch import run_single

            run = run_single(
                image, pair=tp, algorithm=algorithm, backend=backend,
                config=config, device=device, autotune=autotune, **opts,
            )
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
    from ..engine import sat_batch as _sat_batch

    return _sat_batch(images, **kwargs)


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
