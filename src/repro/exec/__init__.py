"""repro.exec — execution configuration, kernel specs and backends.

The package's execution layer: :class:`ExecutionConfig` is the single
resolution path for every mode knob (sanitizer, bounds checking, backend,
device, autotuning), and the kernel/backend registry maps each SAT
algorithm's one :class:`KernelSpec` onto interchangeable executors
(``gpusim``, ``host``).  See ``docs/architecture.md``.

This ``__init__`` intentionally imports only the cycle-free submodules
(:mod:`.config`, :mod:`.registry`); the built-in backends of
:mod:`.backends` load lazily on first :func:`get_backend` call.
"""

from .config import (
    ENV_VARS,
    PROFILES,
    ExecutionConfig,
    env_flag,
    execution,
    get_default_config,
    resolve_execution,
    set_default_config,
)
from .registry import (
    BatchPass,
    BatchSpec,
    KernelSpec,
    PassSpec,
    backend_names,
    get_backend,
    get_kernel_spec,
    has_kernel_spec,
    kernel_spec_names,
    register_backend,
    register_kernel_spec,
)

__all__ = [
    "ENV_VARS",
    "PROFILES",
    "ExecutionConfig",
    "env_flag",
    "execution",
    "get_default_config",
    "resolve_execution",
    "set_default_config",
    "BatchPass",
    "BatchSpec",
    "KernelSpec",
    "PassSpec",
    "backend_names",
    "get_backend",
    "get_kernel_spec",
    "has_kernel_spec",
    "kernel_spec_names",
    "register_backend",
    "register_kernel_spec",
]
