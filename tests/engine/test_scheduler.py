"""BatchScheduler: shape bucketing and byte-bounded chunking.

Plus :func:`plan_tiles`, the tile placement the sharded executor
(:mod:`repro.shard`) computes per call.
"""

import numpy as np
import pytest

from repro.engine import BatchScheduler, BucketGroup
from repro.engine.scheduler import plan_tiles


class TestBucketing:
    def test_bucket_of_rounds_up(self):
        assert BatchScheduler.bucket_of((60, 62), (32, 32)) == (64, 64)
        assert BatchScheduler.bucket_of((64, 64), (32, 32)) == (64, 64)
        assert BatchScheduler.bucket_of((1, 1), (32, 32)) == (32, 32)
        assert BatchScheduler.bucket_of((65, 33), (32, 16)) == (96, 48)

    def test_groups_first_seen_order(self):
        sched = BatchScheduler()
        shapes = [(40, 40), (64, 64), (33, 33), (64, 64)]
        groups = sched.groups(shapes, (32, 32))
        # (40,40) and (33,33) both pad to (64,64): one group, input order.
        assert len(groups) == 1
        assert groups[0].bucket == (64, 64)
        assert groups[0].indices == [0, 1, 2, 3]

    def test_groups_preserve_input_order_within_bucket(self):
        sched = BatchScheduler()
        shapes = [(64, 64), (128, 128), (64, 64), (128, 128)]
        groups = sched.groups(shapes, (32, 32))
        assert [g.bucket for g in groups] == [(64, 64), (128, 128)]
        assert groups[0].indices == [0, 2]
        assert groups[1].indices == [1, 3]


class TestChunking:
    def test_chunk_respects_byte_bound(self):
        sched = BatchScheduler(max_stack_bytes=10)
        grp = BucketGroup(bucket=(1, 1), indices=list(range(7)))
        chunks = sched.chunk(grp, bytes_per_image=4)  # depth = 2
        assert chunks == [[0, 1], [2, 3], [4, 5], [6]]

    def test_oversized_image_still_runs_alone(self):
        sched = BatchScheduler(max_stack_bytes=10)
        grp = BucketGroup(bucket=(1, 1), indices=[0, 1])
        assert sched.chunk(grp, bytes_per_image=100) == [[0], [1]]

    def test_small_images_stack_deep(self):
        sched = BatchScheduler(max_stack_bytes=1024)
        grp = BucketGroup(bucket=(1, 1), indices=list(range(5)))
        assert sched.chunk(grp, bytes_per_image=1) == [[0, 1, 2, 3, 4]]

    def test_stack_bytes_counts_input_and_accumulator(self):
        got = BatchScheduler.stack_bytes((64, 32), np.uint8, np.int32)
        assert got == 64 * 32 * (1 + 4)

    def test_gigapixel_image_chunk_floor_is_one(self):
        """Regression: ``bytes_per_image > max_stack_bytes`` must yield
        singleton chunks, never a zero depth (which would loop forever or
        drop images).  Single gigapixel tiles legitimately exceed the
        12 MB knee."""
        sched = BatchScheduler()  # default 12 MB knee
        per = BatchScheduler.stack_bytes((16384, 16384), np.uint8, np.int32)
        assert per > sched.max_stack_bytes
        grp = BucketGroup(bucket=(16384, 16384), indices=[0, 1, 2])
        chunks = sched.chunk(grp, bytes_per_image=per)
        assert chunks == [[0], [1], [2]]
        # Degenerate byte sizes are clamped, not divided by.
        assert sched.chunk(grp, bytes_per_image=0) == [[0, 1, 2]]
        flat = [i for ch in sched.chunk(grp, bytes_per_image=per * 1000)
                for i in ch]
        assert flat == [0, 1, 2]


class TestTileScheduler:
    """Tile placement for the sharded executor, computed by :func:`plan_tiles`."""

    def test_grid_covers_ragged_shapes(self):
        assert plan_tiles((64, 96), (32, 48), 1).grid == (2, 2)
        assert plan_tiles((65, 97), (32, 48), 1).grid == (3, 3)
        assert plan_tiles((1, 1), (32, 48), 1).grid == (1, 1)

    def test_plan_tiles_partition_the_image(self):
        plan = plan_tiles((70, 100), (32, 48), n_devices=2)
        assert plan.grid == (3, 3) and plan.n_tiles == 9
        seen = np.zeros((70, 100), dtype=int)
        for p in plan.placements:
            assert p.h >= 1 and p.w >= 1
            seen[p.row0: p.row0 + p.h, p.col0: p.col0 + p.w] += 1
        assert (seen == 1).all()           # exact partition, no overlap
        # Ragged edge tiles shrink to the image boundary.
        assert plan.at(2, 2).shape == (6, 4)
        assert plan.at(0, 0).shape == (32, 48)

    def test_roundrobin_spreads_devices_and_streams(self):
        plan = plan_tiles((16, 32), (8, 8), n_devices=2,
                          streams_per_device=2)
        devs = [p.device for p in plan.placements]
        assert set(devs) == {0, 1}
        assert devs == [0, 1, 0, 1, 0, 1, 0, 1]
        # Streams alternate per device.
        for d in (0, 1):
            streams = [p.stream for p in plan.placements if p.device == d]
            assert streams == [0, 1, 0, 1]

    def test_blockrow_keeps_rows_device_local(self):
        plan = plan_tiles((32, 16), (8, 8), n_devices=2, policy="blockrow")
        for p in plan.placements:
            assert p.device == (0 if p.r < 2 else 1)

    def test_same_arguments_same_plan(self):
        assert plan_tiles((40, 40), (16, 16), 2) == \
            plan_tiles((40, 40), (16, 16), 2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="positive"):
            plan_tiles((64, 64), (0, 8), 1)
        with pytest.raises(ValueError, match="policy"):
            plan_tiles((64, 64), (8, 8), 1, policy="zigzag")
        with pytest.raises(ValueError, match="at least one device"):
            plan_tiles((64, 64), (8, 8), n_devices=0)
