"""Kernel-description and backend registries.

A :class:`KernelSpec` is the single declaration of how one SAT algorithm
executes: per pass, the kernel body, the launch geometry (grid/block as a
function of the padded shape), the kernel arguments as a function of the
algorithm options and the grid axis a batch stacks along.  The three
paper kernels register their specs at import time
(:mod:`repro.sat.brlt_scanrow` and friends).  The backends and the
engine read the spec itself instead of hard-coding geometry per call
site: each of the engine's recorded plans holds its algorithm's spec and
binds the options (``extra_args(opts)``) where a pass launches.

A *backend* says how a cold run of a :class:`KernelSpec` executes.
Two ship with the package (:mod:`repro.exec.backends`):

* ``gpusim`` — the warp-synchronous simulator (counters, cost model,
  sanitizer); the default.
* ``host``  — a pure-NumPy executor that runs each pass's ``host``
  semantics function.  No launches, no modeled time (``time_us is None``)
  — it exists to cross-check kernel semantics and to prove the registry
  decouples the algorithm description from the executor (the shape a
  real-GPU backend would also plug into).

Warm runs are not a backend's business: :mod:`repro.engine` records a
plan from a ``gpusim`` bucket's cold run and runs its lowered program
after that.  Neither is sharding: ``sat()`` asks :mod:`repro.shard`
directly whether a call shards.

This module imports nothing from the rest of the package (built-in
backends are registered lazily on first lookup), so any layer can import
it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "PassSpec",
    "KernelSpec",
    "register_kernel_spec",
    "get_kernel_spec",
    "kernel_spec_names",
    "has_kernel_spec",
    "register_backend",
    "get_backend",
    "backend_names",
]


@dataclass(frozen=True)
class PassSpec:
    """One kernel pass of a SAT algorithm — geometry declared once.

    ``geometry(h, w, acc, device)`` returns the ``(grid, block)`` launch
    dims for a padded ``h x w`` input with accumulator dtype ``acc``;
    ``extra_args(opts)`` builds the trailing kernel arguments after
    ``(src, dst)`` from the algorithm options; ``host(arr)`` is the pass's
    mathematical semantics on a host array (already in the accumulator
    dtype), used by the ``host`` backend and by nothing else;
    ``lower(stats, tp, opts)`` (optional) returns the pass's closed-form
    NumPy program for warm execution — a ``(depth, H, W) -> (depth, H',
    W')`` function bit-identical to the kernel, built from the *recorded*
    launch stats (see :mod:`repro.compile`).
    """

    #: Display/launch name, e.g. ``"BRLT-ScanRow#1"``.
    name: str
    #: Kernel body, invoked as ``kernel(ctx, src, dst, *extra_args)``.
    kernel: Callable
    #: ``(h, w, acc, device) -> (grid, block)`` for a padded input.
    geometry: Callable[..., Tuple[tuple, tuple]]
    #: ``(opts: Mapping) -> tuple`` of trailing kernel arguments.
    extra_args: Callable[[Mapping], tuple]
    #: Pure-NumPy pass semantics: ``(array in acc dtype) -> array``.
    host: Callable
    #: Grid axis ("x" or "y") whose blocks are independent; a stacked
    #: batch of depth ``B`` is one launch with this axis scaled by ``B``.
    grid_axis: str
    #: Whether the per-image output shape is the input shape transposed.
    transposed: bool
    #: Outstanding loads per warp fed to the cost model.
    mlp: int = 32
    #: Optional compiler hook: ``(LaunchStats, TypePair, opts) ->
    #: LoweredPass`` lowering this pass for warm execution, or ``None``
    #: when the pass cannot be compiled.
    lower: Optional[Callable] = None


@dataclass(frozen=True)
class KernelSpec:
    """Complete execution description of one SAT algorithm."""

    algorithm: str
    #: (row, col) pad multiples — also the plan-cache bucket granularity.
    pad: Tuple[int, int]
    passes: Tuple[PassSpec, ...]


# -- kernel-spec registry --------------------------------------------------

_KERNEL_SPECS: Dict[str, KernelSpec] = {}


def register_kernel_spec(spec: KernelSpec) -> KernelSpec:
    """Register (or replace) the spec for ``spec.algorithm``."""
    _KERNEL_SPECS[spec.algorithm] = spec
    return spec


def _ensure_builtin_specs() -> None:
    if not _KERNEL_SPECS:
        # Importing the kernels registers their specs as a side effect.
        import repro.sat.api  # noqa: F401


def get_kernel_spec(algorithm: str) -> KernelSpec:
    """The registered :class:`KernelSpec` for ``algorithm``."""
    _ensure_builtin_specs()
    try:
        return _KERNEL_SPECS[algorithm]
    except KeyError:
        raise KeyError(
            f"no kernel spec registered for {algorithm!r}; available: "
            f"{sorted(_KERNEL_SPECS)}"
        ) from None


def kernel_spec_names() -> List[str]:
    """Registered algorithm names, sorted."""
    _ensure_builtin_specs()
    return sorted(_KERNEL_SPECS)


def has_kernel_spec(algorithm: str) -> bool:
    _ensure_builtin_specs()
    return algorithm in _KERNEL_SPECS


# -- backend registry ------------------------------------------------------

_BACKENDS: Dict[str, object] = {}


def register_backend(name: str, backend) -> None:
    """Register an executor under ``name`` (see :mod:`repro.exec.backends`)."""
    _BACKENDS[name] = backend


def _ensure_builtin_backends() -> None:
    if "gpusim" not in _BACKENDS:
        # Importing the module registers the built-in backends.
        from . import backends  # noqa: F401


def get_backend(name: str):
    """The backend registered under ``name``; ``ValueError`` if unknown."""
    _ensure_builtin_backends()
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {sorted(_BACKENDS)}"
        ) from None


def backend_names() -> List[str]:
    """Registered backend names, sorted."""
    _ensure_builtin_backends()
    return sorted(_BACKENDS)
