"""Bucketing, chunking and tile placement for the execution engine.

The scheduler's job is purely organisational: group the images of a batch
by their *shape bucket* (the padded shape their algorithm would give them)
so each bucket pays its per-launch fixed costs once, and bound the stacked
working-set size so arbitrarily large batches do not allocate arbitrarily
large staging buffers.

:class:`TileScheduler` extends the same organisational layer to the
sharded executor (:mod:`repro.shard`): it cuts an oversized image into a
tile grid and places each tile on a ``(device, stream)`` slot of a
simulated :class:`~repro.gpusim.stream.DeviceSet`, memoising the plan so
repeated shards of the same geometry (streaming series, benchmark sweeps)
pay the planning cost once — the tile-level analogue of the launch-plan
cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .lru import LRUCache

__all__ = [
    "BucketGroup",
    "BatchScheduler",
    "TilePlacement",
    "TilePlan",
    "TileScheduler",
]


@dataclass
class BucketGroup:
    """All images of one batch that share a shape bucket."""

    bucket: Tuple[int, int]
    #: Positions of the images within the original batch (input order).
    indices: List[int]


class BatchScheduler:
    """Groups same-bucket images and splits groups into bounded chunks."""

    def __init__(self, max_stack_bytes: int = 12 * 1024 * 1024):
        #: Upper bound on the stacked staging footprint (input + one
        #: accumulator copy) per launch.  The simulator executes stacked
        #: launches on the host, so this is really a host *cache* working
        #: set: measurements on 512x512 8u32s batches show wall throughput
        #: peaking around a 5-15 MB stack (depth ~8) and collapsing ~4x
        #: once stacks outgrow the last-level cache, while the modeled
        #: launch-overhead amortisation saturates by depth ~8.  12 MB sits
        #: on that plateau and still stacks small images hundreds deep.
        self.max_stack_bytes = int(max_stack_bytes)

    @staticmethod
    def bucket_of(shape: Tuple[int, int], pad: Tuple[int, int]) -> Tuple[int, int]:
        """The padded shape ``shape`` lands in under ``pad`` multiples."""
        h, w = shape
        mh, mw = pad
        return (h + (-h) % mh, w + (-w) % mw)

    def groups(
        self, shapes: Sequence[Tuple[int, int]], pad: Tuple[int, int]
    ) -> List[BucketGroup]:
        """Bucket the batch, preserving first-seen bucket order."""
        by_bucket: Dict[Tuple[int, int], BucketGroup] = {}
        for i, shape in enumerate(shapes):
            b = self.bucket_of(shape, pad)
            grp = by_bucket.get(b)
            if grp is None:
                grp = BucketGroup(bucket=b, indices=[])
                by_bucket[b] = grp
            grp.indices.append(i)
        return list(by_bucket.values())

    def chunk(self, group: BucketGroup, bytes_per_image: int) -> List[List[int]]:
        """Split a group's indices into chunks honouring the byte bound."""
        per = max(1, int(bytes_per_image))
        depth = max(1, self.max_stack_bytes // per)
        idx = group.indices
        return [idx[i:i + depth] for i in range(0, len(idx), depth)]

    @staticmethod
    def stack_bytes(bucket: Tuple[int, int], in_dtype, out_dtype) -> int:
        """Per-image staging bytes: padded input plus one accumulator copy."""
        elems = int(bucket[0]) * int(bucket[1])
        return elems * (np.dtype(in_dtype).itemsize + np.dtype(out_dtype).itemsize)


# -- tile placement (sharded executor) --------------------------------------

@dataclass(frozen=True)
class TilePlacement:
    """One tile of a :class:`TilePlan`, pinned to a device/stream slot."""

    #: Grid coordinates (tile row, tile column).
    r: int
    c: int
    #: Image-space origin and extent (ragged edge tiles are smaller).
    row0: int
    col0: int
    h: int
    w: int
    #: Placement: index into the device set, stream index on that device.
    device: int
    stream: int
    #: Global issue order — the order the executor feeds tiles to devices.
    order: int

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.h, self.w)


@dataclass(frozen=True)
class TilePlan:
    """The full tile decomposition + placement of one sharded image."""

    image_shape: Tuple[int, int]
    tile_shape: Tuple[int, int]
    #: Grid extent: (tile rows, tile columns).
    grid: Tuple[int, int]
    #: Row-major: :meth:`at` indexes by it, and the sharded executor
    #: books its tiles (stream ops, launches, edges) in this order.
    placements: Tuple[TilePlacement, ...]
    n_devices: int
    streams_per_device: int
    policy: str

    @property
    def n_tiles(self) -> int:
        return len(self.placements)

    def at(self, r: int, c: int) -> TilePlacement:
        """The placement of grid cell ``(r, c)``."""
        return self.placements[r * self.grid[1] + c]


class TileScheduler:
    """Cuts an image into tiles and places them across a device set.

    Policies
    --------
    ``roundrobin`` (default)
        Tile ``k`` (row-major) goes to device ``k % n_devices`` — carries
        flow between devices constantly, the worst case the lookback
        protocol must absorb and the best case for load balance.
    ``blockrow``
        Contiguous bands of tile rows per device — row carries stay
        device-local, only column carries cross devices (the layout
        Copik-style series partitioning uses).

    Streams alternate per tile within a device so local-SAT kernels and
    carry fix-ups of neighbouring tiles land on different in-order queues
    and may overlap.  Plans are memoised (LRU) on the full geometry key.
    """

    POLICIES = ("roundrobin", "blockrow")

    def __init__(self, tile_shape: Tuple[int, int] = (1024, 1024),
                 policy: str = "roundrobin", cache_size: int = 64):
        th, tw = int(tile_shape[0]), int(tile_shape[1])
        if th < 1 or tw < 1:
            raise ValueError(f"tile shape must be positive, got {tile_shape}")
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; one of {self.POLICIES}"
            )
        self.tile_shape = (th, tw)
        self.policy = policy
        self.cache_size = int(cache_size)
        self._plans = LRUCache(self.cache_size,
                               metrics_prefix="engine.tile_plans",
                               emit_lookups=True)

    @property
    def plan_hits(self) -> int:
        return self._plans.hits

    @property
    def plan_misses(self) -> int:
        return self._plans.misses

    def grid_of(self, shape: Tuple[int, int]) -> Tuple[int, int]:
        """Tile-grid extent covering ``shape`` (ragged edges allowed)."""
        h, w = int(shape[0]), int(shape[1])
        th, tw = self.tile_shape
        return (-(-h // th), -(-w // tw))

    def plan(self, shape: Tuple[int, int], n_devices: int,
             streams_per_device: int = 2) -> TilePlan:
        """The memoised tile plan for one image geometry."""
        key = (tuple(int(s) for s in shape), self.tile_shape,
               int(n_devices), int(streams_per_device), self.policy)
        plan, _ = self._plans.get_or_create(
            key, lambda: self._build(key[0], int(n_devices),
                                     int(streams_per_device)))
        return plan

    def _build(self, shape: Tuple[int, int], n_devices: int,
               streams_per_device: int) -> TilePlan:
        if n_devices < 1:
            raise ValueError("tile placement needs at least one device")
        h, w = shape
        th, tw = self.tile_shape
        nr, nc = self.grid_of(shape)
        per_device_seq = [0] * n_devices
        placements = []
        for r in range(nr):
            for c in range(nc):
                k = r * nc + c
                if self.policy == "roundrobin":
                    dev = k % n_devices
                else:  # blockrow: contiguous tile-row bands per device
                    dev = min(r * n_devices // nr, n_devices - 1)
                stream = per_device_seq[dev] % streams_per_device
                per_device_seq[dev] += 1
                placements.append(TilePlacement(
                    r=r, c=c,
                    row0=r * th, col0=c * tw,
                    h=min(th, h - r * th), w=min(tw, w - c * tw),
                    device=dev, stream=stream, order=k,
                ))
        return TilePlan(
            image_shape=(h, w), tile_shape=self.tile_shape, grid=(nr, nc),
            placements=tuple(placements), n_devices=n_devices,
            streams_per_device=streams_per_device, policy=self.policy,
        )
