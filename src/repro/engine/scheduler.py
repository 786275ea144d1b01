"""Bucketing, chunking and tile placement for the execution engine.

The scheduler's job is purely organisational: group the images of a batch
by their *shape bucket* (the padded shape their algorithm would give them)
so each bucket pays its per-launch fixed costs once, and bound the stacked
working-set size so arbitrarily large batches do not allocate arbitrarily
large staging buffers.

:func:`plan_tiles` extends the same organisational layer to the sharded
executor (:mod:`repro.shard`): it cuts an oversized image into a tile
grid and places each tile on a ``(device, stream)`` slot of a simulated
:class:`~repro.gpusim.stream.DeviceSet`.  Plans are computed per call,
never memoised, so two identical calls report identical plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "BucketGroup",
    "BatchScheduler",
    "TilePlacement",
    "TilePlan",
    "plan_tiles",
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


def plan_tiles(shape: Tuple[int, int], tile_shape: Tuple[int, int],
               n_devices: int, streams_per_device: int = 2,
               policy: str = "roundrobin") -> TilePlan:
    """Cut an image of ``shape`` into tiles and place them on a device set.

    ``roundrobin`` (the default policy) sends tile ``k`` (row-major) to
    device ``k % n_devices``: carries cross devices constantly, the worst
    case for the lookback protocol and the best for load balance.
    ``blockrow`` gives each device a contiguous band of tile rows, so
    row carries stay device-local (the layout Copik-style series
    partitioning uses).  Streams alternate per tile within a device, so
    neighbouring tiles' kernels and carry fix-ups may overlap.  A plan
    is a pure function of the arguments, computed per call.
    """
    th, tw = int(tile_shape[0]), int(tile_shape[1])
    if th < 1 or tw < 1:
        raise ValueError(f"tile shape must be positive, got {tile_shape}")
    if policy not in ("roundrobin", "blockrow"):
        raise ValueError(f"unknown placement policy {policy!r}; one of "
                         f"('roundrobin', 'blockrow')")
    if n_devices < 1:
        raise ValueError("tile placement needs at least one device")
    h, w = int(shape[0]), int(shape[1])
    nr, nc = -(-h // th), -(-w // tw)
    per_device_seq = [0] * n_devices
    placements = []
    for r in range(nr):
        for c in range(nc):
            k = r * nc + c
            if policy == "roundrobin":
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
        image_shape=(h, w), tile_shape=(th, tw), grid=(nr, nc),
        placements=tuple(placements), n_devices=int(n_devices),
        streams_per_device=int(streams_per_device), policy=policy,
    )
