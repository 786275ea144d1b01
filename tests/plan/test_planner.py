"""Planner decision mechanics and the golden decision table.

The golden table pins the planner's full decision (algorithm, opts,
modeled microseconds, ranking, block) per
(device x pair x bucket) — the model is deterministic, so any drift is a
real change to either the cost model or the decision procedure and must
be reviewed, not absorbed.  Regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/plan/test_planner.py

then inspect the diff of ``tests/golden/plan_decisions.json`` in review.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.dtypes import parse_pair
from repro.plan import (
    DEFAULT_ALGORITHM,
    Planner,
    bucket_of,
    get_planner,
    set_planner,
    shard_threshold_elems,
    shard_tile_shape,
)
from repro.plan.planner import BUCKET_EDGES, CANDIDATES
from repro.sat.api import sat

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "plan_decisions.json"

#: The snapshot grid: all five devices, pairs on both sides of the
#: integer/float divide, buckets straddling the small/large crossover.
GOLDEN_DEVICES = ["M40", "P100", "V100", "A100", "H100"]
GOLDEN_PAIRS = ["8u32s", "32f32f"]
GOLDEN_SIZES = [128, 512]


@pytest.fixture(scope="module")
def planner():
    return Planner()


class TestBucketing:
    def test_square_edges_map_to_themselves(self):
        for edge in BUCKET_EDGES:
            assert bucket_of((edge, edge)) == (edge, edge)

    def test_rounding_is_geometric(self):
        assert bucket_of((150, 150)) == (128, 128)
        assert bucket_of((200, 200)) == (256, 256)

    def test_rectangles_bucket_by_long_side(self):
        assert bucket_of((64, 500)) == (512, 512)

    def test_clamped_to_range(self):
        assert bucket_of((1, 1)) == (BUCKET_EDGES[0], BUCKET_EDGES[0])
        big = 4 * BUCKET_EDGES[-1]
        assert bucket_of((big, big)) == (BUCKET_EDGES[-1], BUCKET_EDGES[-1])


class TestDecide:
    def test_decision_is_cached_per_key(self, planner):
        a = planner.decide((300, 300), "8u32s", "P100")
        b = planner.decide((280, 310), "8u32s", "P100")  # same bucket
        assert a is b
        c = planner.decide((300, 300), "8u32s", "V100")
        assert c is not a

    def test_ranking_covers_all_supported_candidates(self, planner):
        d = planner.decide((256, 256), "8u32s", "P100")
        assert len(d.ranking) == len(CANDIDATES)
        times = [us for _, us in d.ranking]
        assert times == sorted(times)
        assert d.modeled_us == times[0]

    def test_chosen_never_modeled_slower_than_default(self, planner):
        d = planner.decide((256, 256), "8u32s", "P100")
        by_label = dict(d.ranking)
        assert d.modeled_us <= by_label[DEFAULT_ALGORITHM]

    def test_unknown_device_raises_with_zoo(self, planner):
        with pytest.raises(ValueError, match="available devices"):
            planner.decide((128, 128), "8u32s", "K80")

    def test_as_dict_round_trips_json(self, planner):
        d = planner.decide((512, 512), "32f32f", "H100")
        blob = json.dumps(d.as_dict(), sort_keys=True)
        assert json.loads(blob)["algorithm"] == d.algorithm


class TestGlobalPlanner:
    def test_get_planner_is_a_singleton(self):
        assert get_planner() is get_planner()

    def test_set_planner_swaps_and_restores(self):
        mine = Planner(calibration=64)
        prev = set_planner(mine)
        try:
            assert get_planner() is mine
        finally:
            set_planner(prev)
        assert get_planner() is not mine


class TestShardDerivations:
    def test_default_pipeline_reproduces_the_constant(self):
        from repro.shard.executor import DEFAULT_THRESHOLD_ELEMS

        assert shard_threshold_elems(2, 2, (1024, 1024)) == 1 << 22
        assert shard_threshold_elems(2) == DEFAULT_THRESHOLD_ELEMS

    def test_threshold_scales_with_pipeline_depth(self):
        assert shard_threshold_elems(4, 2, (1024, 1024)) == 1 << 23
        assert shard_threshold_elems(2, 2, (512, 512)) == 1 << 20

    def test_tile_shape_tracks_image_size(self):
        assert shard_tile_shape((16384, 16384)) == (1024, 1024)
        assert shard_tile_shape((3000, 3000)) == (512, 512)


class TestAutoBitIdentity:
    """``algorithm="auto"`` only selects; it must never alter execution."""

    @pytest.mark.parametrize("pair", ["8u32s", "32f32f"])
    def test_auto_equals_explicit_decision(self, pair):
        tp = parse_pair(pair)
        rng = np.random.default_rng(3)
        if tp.input.is_integer:
            img = rng.integers(0, 256, (96, 144)).astype(tp.input.np_dtype)
        else:
            img = rng.standard_normal((96, 144)).astype(tp.input.np_dtype)
        auto = sat(img, pair=pair, algorithm="auto", device="P100")
        d = get_planner().decide(img.shape, pair, "P100")
        explicit = sat(img, pair=pair, algorithm=d.algorithm, device="P100",
                       **d.opts_dict())
        np.testing.assert_array_equal(auto.output, explicit.output)
        assert auto.algorithm == explicit.algorithm == d.algorithm
        assert ([s.counters.as_dict() for s in auto.launches]
                == [s.counters.as_dict() for s in explicit.launches])

    def test_default_unchanged_without_autotune(self):
        # autotune pinned off: the ambient profile may be "autotuned".
        img = np.ones((64, 64), np.uint8)
        run = sat(img, pair="8u32s", device="P100", autotune=False)
        assert run.algorithm == DEFAULT_ALGORITHM


def test_decision_table_matches_golden(planner):
    got = {}
    for device in GOLDEN_DEVICES:
        for pair in GOLDEN_PAIRS:
            for size in GOLDEN_SIZES:
                d = planner.decide((size, size), pair, device)
                got[f"{device}/{pair}/{size}"] = d.as_dict()
    got = json.loads(json.dumps(got))  # normalise tuples structurally
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        GOLDEN_PATH.write_text(
            json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    assert GOLDEN_PATH.exists(), (
        f"missing golden decision table {GOLDEN_PATH}; run with "
        f"REPRO_REGEN_GOLDEN=1 to create"
    )
    want = json.loads(GOLDEN_PATH.read_text())
    assert got == want
