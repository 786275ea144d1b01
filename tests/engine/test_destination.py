"""Output destinations: ``run_batch(out=, carry=)`` / ``run_single``.

The sharded executor runs each tile straight into its slice of the
output.  A warm chunk whose bucket equals the image's shape casts the
image into the destination and runs the lowered program there, with an
integer tile's carries folded into the staged input; every other path
(cold, ragged, bounds-checked replay, ``host``, sanitized) computes as
usual, copies into the destination and adds the carries.  Whichever path
runs, the destination must hold exactly what ``sat()`` returns (plus the
carries), and the run's ``output`` must be the destination itself.  A
warm ragged run shares its plan's staging stack with other callers, so
its output must leave the stack before the plan's lock is released.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.dtypes import parse_pair
from repro.engine import Engine
from repro.engine import batch as batch_mod
from repro.engine.batch import default_engine, run_single
from repro.exec.config import ExecutionConfig
from repro.sat.api import PAPER_ALGORITHMS, sat
from repro.shard import sharded_sat

from ..helpers import make_image

ALGORITHMS = sorted(PAPER_ALGORITHMS)
#: Execution modes, each pinned so that no profile can change the path.
MODES = {
    "warm": ExecutionConfig(sanitize=False, bounds_check=False,
                            backend="gpusim"),
    "cold": ExecutionConfig(sanitize=False, bounds_check=False,
                            backend="gpusim"),
    "replay": ExecutionConfig(sanitize=False, bounds_check=True,
                              backend="gpusim"),
    "host": ExecutionConfig(sanitize=False, bounds_check=False,
                            backend="host"),
    "sanitized": ExecutionConfig(sanitize=True, bounds_check=False,
                                 backend="gpusim"),
}
ALIGNED, RAGGED = (64, 96), (50, 70)


@pytest.fixture(autouse=True)
def _fresh():
    default_engine().cache.clear()
    yield
    default_engine().cache.clear()


def _acc(pair):
    return parse_pair(pair).output.np_dtype


@pytest.mark.parametrize("pair", ["8u32s", "32f32f"])
@pytest.mark.parametrize("shape", [ALIGNED, RAGGED], ids=["aligned", "ragged"])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_destination_holds_the_sat(algorithm, mode, shape, pair):
    img = make_image(shape, pair, seed=3)
    config = MODES[mode]
    want = sat(img, pair=pair, algorithm=algorithm, config=config).output
    if mode == "cold":
        default_engine().cache.clear()
    dst = np.full(shape, 7, dtype=_acc(pair))
    run = run_single(img, pair=pair, algorithm=algorithm, config=config,
                     out=dst)
    assert run.output is dst
    assert dst.tobytes() == want.tobytes()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_warm_aligned_run_stages_nothing(algorithm):
    """The in-place path allocates no ``compiled_input`` buffer; a run
    without a destination does, which shows the check can fail."""
    eng = Engine()
    img = make_image(ALIGNED, "8u32s", seed=4)
    kw = dict(pair="8u32s", algorithm=algorithm, config=MODES["warm"])
    eng.run_batch([img], **kw)
    (plan,) = eng.cache._plans.values()
    dst = np.empty(ALIGNED, dtype=np.int32)
    eng.run_batch([img], out=dst, **kw)
    assert plan.compiled.executions == 1
    assert not any(role == "compiled_input" for role, *_ in plan.staging)
    eng.run_batch([img], **kw)
    assert any(role == "compiled_input" for role, *_ in plan.staging)


def test_foreign_dtype_quantises_through_the_input_dtype():
    img = make_image(ALIGNED, "8u32s", seed=5)
    kw = dict(pair="8u32s", algorithm="brlt_scanrow", config=MODES["warm"])
    want = sat(img, **kw).output
    dst = np.empty(ALIGNED, dtype=np.int32)
    run_single(img.astype(np.float64) + 0.75, out=dst, **kw)
    assert dst.tobytes() == want.tobytes()


@pytest.mark.parametrize("pair", ["32s32s", "32u32u"])
@pytest.mark.parametrize("mode,shape", [
    ("warm", ALIGNED),
    ("warm", RAGGED),
    ("cold", ALIGNED),
    ("host", ALIGNED),
])
def test_carry_wraps_near_two_to_the_31(pair, mode, shape):
    acc = _acc(pair)
    img = make_image(shape, pair, seed=6)
    rng = np.random.default_rng(7)
    left, top = ((2**31 + rng.integers(-1000, 1000, size=n)).astype(acc)
                 for n in shape)
    kw = dict(pair=pair, algorithm="brlt_scanrow", config=MODES[mode])
    local = sat(img, **kw).output
    want = local + left[:, None] + top[None, :]
    if mode == "cold":
        default_engine().cache.clear()
    dst = np.empty(shape, dtype=acc)
    run = run_single(img, out=dst, carry=(left, top), **kw)
    assert run.output is dst
    assert dst.tobytes() == want.tobytes()


def test_ragged_tile_survives_a_same_bucket_call_after_the_lock(
        monkeypatch):
    """A warm ragged tile runs in its plan's shared staging stack, so its
    output must leave that stack before ``plan.lock`` is released.  Here
    a same-bucket ``sat()`` on a second thread runs in the gap between
    the release and the copy into the tile's slice; the sharded output
    must not change."""
    img = make_image((100, 100), "8u32s", seed=9)
    kw = dict(pair="8u32s", algorithm="brlt_scanrow", config=MODES["warm"])
    shard = {"tile_shape": (40, 40), "devices": "2xP100"}
    want = sharded_sat(img, shard=shard, **kw).output  # every bucket warm
    real_finish = batch_mod._Destination.finish
    racers, raced = [], []

    def finish(dest, run):
        if not dest.in_place and not racers:
            other = make_image(dest.out.shape, "8u32s", seed=10)
            racers.append(threading.Thread(target=lambda: raced.append(
                sat(other, device="P100", **kw).output)))
            racers[0].start()
            racers[0].join(timeout=5)
        real_finish(dest, run)

    monkeypatch.setattr(batch_mod._Destination, "finish", finish)
    got = sharded_sat(img, shard=shard, **kw).output
    racers[0].join()
    assert len(raced) == 1
    assert got.tobytes() == want.tobytes()


def _bad_calls():
    img = make_image(ALIGNED, "32f32f", seed=8)
    f32 = np.empty(ALIGNED, dtype=np.float32)
    zeros = (np.zeros(ALIGNED[0], np.float32), np.zeros(ALIGNED[1], np.float32))
    ints = make_image(ALIGNED, "8u32s", seed=8)
    izeros = tuple(z.astype(np.int32) for z in zeros)
    return {
        "carry on a float pair": (lambda: run_single(
            img, pair="32f32f", out=f32, carry=zeros), "integer"),
        "carry without out": (lambda: run_single(
            ints, pair="8u32s", carry=izeros), "out="),
        "more than one image": (lambda: Engine().run_batch(
            [img, img], pair="32f32f", out=f32), "one-image"),
        "wrong shape": (lambda: run_single(
            img, pair="32f32f", out=f32[:, 1:]), "out="),
        "wrong dtype": (lambda: run_single(
            img, pair="32f32f", out=f32.astype(np.float64)), "out="),
        "exclusive": (lambda: run_single(
            img, pair="32f32f", out=f32, exclusive=True), "exclusive"),
    }


@pytest.mark.parametrize("case", sorted(_bad_calls()))
def test_rejects(case):
    call, match = _bad_calls()[case]
    with pytest.raises(ValueError, match=match):
        call()
