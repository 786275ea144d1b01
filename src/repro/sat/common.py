"""Shared machinery for the paper's SAT kernels and their drivers.

All three algorithms (Secs. IV-A..C) share the same skeleton: tile the
matrix into 32-row bands, cache 32 elements per thread in registers, scan,
fix up across warps and strips, and write coalesced output.  This module
holds the pieces that are identical across them:

* :func:`regs_per_thread` — the declared register footprint (32 cached
  words plus bookkeeping), which drives the occupancy model and produces
  the paper's 64f register-pressure behaviour;
* :func:`block_threads` — the launch-width rule of Secs. IV-B/IV-C
  (1024 threads for 4-byte accumulators, 512 for ``double``);
* :func:`pad_matrix` / :func:`crop` — zero padding to tile multiples
  (zeros do not perturb prefix sums in the valid region);
* :class:`SatRun` — the result bundle (output matrix + per-kernel
  ``nvprof``-style launch stats).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..dtypes import DType
from ..gpusim.device import DeviceSpec
from ..gpusim.launch import LaunchStats

__all__ = [
    "REG_OVERHEAD",
    "regs_per_thread",
    "block_threads",
    "pad_matrix",
    "crop",
    "SatRun",
]

#: Bookkeeping registers (indices, carries, pointers) beyond the 32 cached
#: words.  nvcc allocates in this ballpark for such kernels (cf. the 18-20
#: registers of NPP's much smaller kernels, Table II).
REG_OVERHEAD = 16


def regs_per_thread(acc: DType, cached_words: int = 32) -> int:
    """Declared register footprint of a register-cache kernel."""
    return cached_words * acc.regs_per_value + REG_OVERHEAD


def block_threads(acc: DType, device: DeviceSpec) -> int:
    """Launch width: 1024 threads for 4-byte T, 512 for ``double``.

    Sec. IV-2: "To avoid register pressure we use a block size
    (BlockSize = 512) instead, when T is double."
    """
    base = 1024 if acc.size <= 4 else 512
    return min(base, device.max_threads_per_block)


def pad_matrix(image: np.ndarray, multiple_h: int, multiple_w: int) -> np.ndarray:
    """Zero-pad ``image`` up to the requested tile multiples."""
    h, w = image.shape
    ph = (-h) % multiple_h
    pw = (-w) % multiple_w
    if ph == 0 and pw == 0:
        return image
    return np.pad(image, ((0, ph), (0, pw)))


def crop(matrix: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    """Crop a padded result back to the original shape."""
    return matrix[: shape[0], : shape[1]]


@dataclass
class SatRun:
    """The result of one SAT computation."""

    output: np.ndarray
    launches: List[LaunchStats] = field(default_factory=list)
    algorithm: str = ""
    device: str = ""
    pair: str = ""
    #: Executor that produced this run.  The ``host`` backend has no cost
    #: model, so its runs report ``time_s``/``time_us`` as ``None``.
    backend: str = "gpusim"

    @property
    def time_s(self) -> Optional[float]:
        """Total modeled GPU time across all kernels (the paper sums the
        row- and column-pass kernels, Sec. VI-C); ``None`` on unmodeled
        backends (``host``)."""
        if self.backend == "host":
            return None
        return sum(s.time_s for s in self.launches)

    @property
    def time_us(self) -> Optional[float]:
        return None if self.time_s is None else self.time_s * 1e6

    def kernel_times_us(self) -> List[Tuple[str, float]]:
        """Per-kernel breakdown, for the Fig. 8 reproduction."""
        return [(s.name, s.time_us) for s in self.launches]
