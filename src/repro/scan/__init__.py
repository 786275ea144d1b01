"""Warp-level scan (all-prefix-sum) algorithm library (Sec. III-C).

``WARP_SCANS`` registers every parallel warp-scan pattern; the SAT drivers
select one by name (``"kogge_stone"`` is the paper's default, Sec. VI-B).
"""

from typing import Callable, Dict

from .brent_kung import brent_kung_scan
from .han_carlson import han_carlson_scan
from .kogge_stone import kogge_stone_scan, kogge_stone_scan_bank
from .ladner_fischer import ladner_fischer_scan
from .serial import serial_scan_bank, serial_scan_registers
from .reference import (
    brent_kung_adds,
    exclusive_scan,
    han_carlson_adds,
    inclusive_scan,
    kogge_stone_adds,
    kogge_stone_stages,
    ladner_fischer_adds,
    ladner_fischer_stages,
    serial_scan_adds,
    serial_scan_stages,
)

#: Parallel warp-scan registry, keyed by the names the benchmarks use.
WARP_SCANS: Dict[str, Callable] = {
    "kogge_stone": kogge_stone_scan,
    "ladner_fischer": ladner_fischer_scan,
    "brent_kung": brent_kung_scan,
    "han_carlson": han_carlson_scan,
}

#: Register-bank variants (one dispatch scans all 32 registers).  Scans
#: without a bank variant fall back to a per-register loop over bank views
#: in the kernels — counters are identical either way.
WARP_SCANS_BANK: Dict[str, Callable] = {
    "kogge_stone": kogge_stone_scan_bank,
}

__all__ = [
    "WARP_SCANS",
    "WARP_SCANS_BANK",
    "kogge_stone_scan_bank",
    "serial_scan_bank",
    "brent_kung_scan",
    "han_carlson_scan",
    "kogge_stone_scan",
    "ladner_fischer_scan",
    "serial_scan_registers",
    "inclusive_scan",
    "exclusive_scan",
    "serial_scan_stages",
    "serial_scan_adds",
    "kogge_stone_stages",
    "kogge_stone_adds",
    "ladner_fischer_stages",
    "ladner_fischer_adds",
    "brent_kung_adds",
    "han_carlson_adds",
]
