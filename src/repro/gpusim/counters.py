"""Hardware event counters collected while a simulated kernel executes.

Every operation performed through the simulator (register arithmetic,
shuffles, shared-memory and global-memory accesses, ``__syncthreads``)
records the events the paper's Sec.-V performance model reasons about:

* lane-level operation counts per pipeline (``adds``, ``bools``,
  ``shuffles``), with double-precision adds counted separately because
  Pascal/Volta run FP64 at half rate;
* warp-level instruction counts (one warp instruction may execute up to 32
  lane operations);
* shared-memory transactions, including bank-conflict replays — the reason
  Alg. 5 pads its staging buffer to a stride of 33;
* global-memory sectors touched (the coalescing model) and useful bytes;
* the *dependency-chain* clock count: the simulator assumes operations
  issued by one warp are serially dependent (true for every scan kernel in
  the paper) and accumulates each operation's latency.  This is exactly the
  quantity Eqs. 3–5 compute by hand, so the model-verification benchmarks
  can compare measured chains against the paper's closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

__all__ = ["CostCounters"]

_SCALED_FIELDS = (
    "adds",
    "adds_f64",
    "bools",
    "muls",
    "shuffles",
    "warp_instructions",
    "smem_load_transactions",
    "smem_store_transactions",
    "smem_bank_conflict_replays",
    "smem_bytes",
    "gmem_load_sectors",
    "gmem_load_instructions",
    "gmem_store_sectors",
    "gmem_load_bytes",
    "gmem_store_bytes",
    "sync_count",
)


@dataclass
class CostCounters:
    """Aggregate event counts for one simulated kernel launch."""

    # --- execution pipelines (lane-level operations) ---
    adds: float = 0.0
    adds_f64: float = 0.0
    bools: float = 0.0
    muls: float = 0.0
    shuffles: float = 0.0
    #: Warp-level instructions issued (each covers <=32 lane ops).
    warp_instructions: float = 0.0

    # --- shared memory ---
    #: Transactions: one per warp access, plus one per bank-conflict replay.
    smem_load_transactions: float = 0.0
    smem_store_transactions: float = 0.0
    #: Replays beyond the first transaction caused by bank conflicts.
    smem_bank_conflict_replays: float = 0.0
    #: Bytes moved through shared memory (for the Eq. 10 bandwidth term).
    smem_bytes: float = 0.0

    # --- global memory ---
    gmem_load_sectors: float = 0.0
    #: Warp-level load instructions (drives the memory-level-parallelism model).
    gmem_load_instructions: float = 0.0
    gmem_store_sectors: float = 0.0
    #: Useful bytes requested by lanes (<= sectors * sector size).
    gmem_load_bytes: float = 0.0
    gmem_store_bytes: float = 0.0

    # --- control ---
    sync_count: float = 0.0

    # --- latency accounting ---
    #: Serial dependency-chain length, in clocks, of one warp's instruction
    #: stream (Sec. V latency model).  Not scaled by warp count.
    chain_clocks: float = 0.0

    # ------------------------------------------------------------------
    def merge(self, other: "CostCounters") -> "CostCounters":
        """Accumulate ``other`` into ``self`` (chain clocks add serially)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def scaled(self, factor: float) -> "CostCounters":
        """Return a copy with all *throughput* counters multiplied by ``factor``.

        The dependency chain describes one warp and is left unscaled; the
        cost model combines it with wave counts separately.  Used by the
        tile-homogeneous projection (DESIGN.md Sec. 5).
        """
        out = CostCounters()
        for f in fields(self):
            v = getattr(self, f.name)
            setattr(out, f.name, v * factor if f.name in _SCALED_FIELDS else v)
        return out

    def copy(self) -> "CostCounters":
        out = object.__new__(CostCounters)
        out.__dict__.update(self.__dict__)
        return out

    # ------------------------------------------------------------------
    @property
    def gmem_sectors(self) -> float:
        return self.gmem_load_sectors + self.gmem_store_sectors

    @property
    def smem_transactions(self) -> float:
        return self.smem_load_transactions + self.smem_store_transactions

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view, handy for tabular reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(f"{k}={v:.0f}" for k, v in self.as_dict().items() if v)
        return f"CostCounters({items})"
