"""Property-based planner guarantees (Hypothesis).

The load-bearing property: autotuning can never make things *modeled*
worse.  The default configuration is always in the candidate list, so
for any shape/pair/device the decision's modeled time is bounded by the
default's modeled time at the same bucket.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan import DEFAULT_ALGORITHM, Planner, bucket_of
from repro.plan.planner import BUCKET_EDGES
from repro.sat.api import sat

#: One shared planner: Hypothesis examples reuse its runner calibration
#: cache, so each new (device, pair, bucket) costs five simulations and
#: every revisit is a cache hit.
_PLANNER = Planner()

shapes = st.tuples(st.integers(1, 2500), st.integers(1, 2500))
pairs = st.sampled_from(["8u32s", "8u32u", "32f32f", "32u32u"])
devices = st.sampled_from(["M40", "P100", "V100", "A100", "H100"])


@given(shape=shapes, pair=pairs, device=devices)
@settings(deadline=None)
def test_never_modeled_slower_than_default(shape, pair, device):
    decision = _PLANNER.decide(shape, pair, device)
    by_label = dict(decision.ranking)
    assert decision.modeled_us <= by_label[DEFAULT_ALGORITHM]
    assert decision.modeled_us == min(by_label.values())


@given(shape=shapes)
def test_bucket_is_idempotent_and_in_range(shape):
    b = bucket_of(shape)
    assert bucket_of(b) == b
    assert b[0] == b[1] and b[0] in BUCKET_EDGES


@given(shape=shapes, pair=pairs, device=devices)
@settings(deadline=None)
def test_decision_is_deterministic(shape, pair, device):
    a = _PLANNER.decide(shape, pair, device)
    fresh = Planner()
    fresh._runner = _PLANNER._runner    # share sims, recompute the ranking
    b = fresh.decide(shape, pair, device)
    assert a == b


@given(seed=st.integers(0, 2**32 - 1),
       h=st.integers(8, 160), w=st.integers(8, 160))
@settings(deadline=None, max_examples=5)
def test_auto_output_matches_host_reference(seed, h, w):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w)).astype(np.uint8)
    run = sat(img, pair="8u32s", algorithm="auto", device="P100")
    ref = np.cumsum(np.cumsum(img, axis=0, dtype=np.int64),
                    axis=1).astype(np.int32)
    np.testing.assert_array_equal(run.output, ref)
