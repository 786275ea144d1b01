"""A warp-synchronous SIMT GPU simulator.

This package is the substrate substituting for the CUDA hardware the paper
evaluated on (see DESIGN.md): it executes kernels written against a
CUDA-like API (blocks, warps, lanes, shuffles, shared memory with bank
conflicts, global memory with sector coalescing) on real data, counts the
hardware events the paper's Sec.-V performance model reasons about, and
converts them to kernel times through a roofline cost model parameterised
with the paper's own micro-benchmarked constants.
"""

from .block import KernelContext
from .counters import CostCounters
from .device import DEVICES, DeviceSpec, M40, P100, V100, get_device
from .global_mem import GlobalArray, clear_sector_pattern_cache, sector_count
from .launch import LaunchStats, launch_kernel
from .regfile import RegArray, RegBank
from .sanitize import (
    BankConflictError,
    BarrierDivergenceError,
    OutOfBoundsError,
    Sanitizer,
    SanitizerError,
    SanitizerReport,
    SharedMemoryRaceError,
    UninitializedReadError,
)
from .shared_mem import SharedMem, clear_bank_pattern_cache
from .cost import KernelTiming, Occupancy, PassScaling, kernel_time, occupancy, project_stats

__all__ = [
    "KernelContext",
    "CostCounters",
    "DEVICES",
    "DeviceSpec",
    "M40",
    "P100",
    "V100",
    "get_device",
    "GlobalArray",
    "LaunchStats",
    "launch_kernel",
    "RegArray",
    "RegBank",
    "SharedMem",
    "sector_count",
    "clear_sector_pattern_cache",
    "clear_bank_pattern_cache",
    "Sanitizer",
    "SanitizerError",
    "SanitizerReport",
    "SharedMemoryRaceError",
    "UninitializedReadError",
    "OutOfBoundsError",
    "BarrierDivergenceError",
    "BankConflictError",
    "KernelTiming",
    "Occupancy",
    "PassScaling",
    "kernel_time",
    "occupancy",
    "project_stats",
]
