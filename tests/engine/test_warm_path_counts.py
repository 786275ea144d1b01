"""Warm-path guard: exact counts of interpreter work per warm batch.

A warm bucket with a lowered program must not touch the interpreter at
all; a bounds-checked warm bucket has
no program and replays each image pass by pass at the recorded grid.
Both are counted exactly — ``KernelContext`` constructions and
``replay_kernel`` calls — so the guard cannot flake on wall time.  The
same holds for host overhead a warm chunk need not repeat: cost-model
evaluations at a depth the plan has already run, and re-resolving an
already resolved execution config.
"""

from __future__ import annotations

import pytest

from repro.engine import BATCH_SPECS, Engine
from repro.engine import batch as batch_mod
from repro.exec.config import ExecutionConfig, execution
from repro.exec.registry import get_kernel_spec
from repro.gpusim import launch as launch_mod
from repro.sat.api import sat

from ..helpers import count_resolves, make_image

DEPTH = 8
SHAPE = (128, 128)
PAIR = "8u32s"


@pytest.fixture
def counts(monkeypatch):
    """Count contexts by kind (cold launches record, replays do not) and
    the engine's ``replay_kernel`` calls."""
    n = {"launch_ctx": 0, "replay_ctx": 0, "replay_kernel": 0}
    real_ctx = launch_mod.KernelContext
    real_replay = batch_mod.replay_kernel

    def counting_ctx(*args, **kwargs):
        n["replay_ctx" if kwargs.get("record") is False else "launch_ctx"] += 1
        return real_ctx(*args, **kwargs)

    def counting_replay(*args, **kwargs):
        n["replay_kernel"] += 1
        return real_replay(*args, **kwargs)

    monkeypatch.setattr(launch_mod, "KernelContext", counting_ctx)
    monkeypatch.setattr(batch_mod, "replay_kernel", counting_replay)
    return n


def _warm_batch(counts, algorithm, bounds_check):
    imgs = [make_image(SHAPE, PAIR, seed=i) for i in range(DEPTH)]
    eng = Engine()
    with execution(ExecutionConfig(sanitize=False, bounds_check=bounds_check,
                                   backend="gpusim")):
        eng.run_batch(imgs, pair=PAIR, algorithm=algorithm)
        for k in counts:
            counts[k] = 0
        run = eng.run_batch(imgs, pair=PAIR, algorithm=algorithm)
    assert run.plan_hits == DEPTH and run.plan_misses == 0
    return run


@pytest.mark.parametrize("algorithm", sorted(BATCH_SPECS))
def test_warm_batch_builds_no_kernel_context(counts, algorithm):
    run = _warm_batch(counts, algorithm, bounds_check=False)
    assert counts == {"launch_ctx": 0, "replay_ctx": 0, "replay_kernel": 0}
    assert {r.backend for r in run.runs} == {"gpusim"}


@pytest.mark.parametrize("algorithm", sorted(BATCH_SPECS))
def test_bounds_checked_warm_batch_replays_per_image(counts, algorithm):
    _warm_batch(counts, algorithm, bounds_check=True)
    n_passes = len(get_kernel_spec(algorithm).passes)
    assert counts == {
        "launch_ctx": 0,
        "replay_ctx": DEPTH * n_passes,
        "replay_kernel": DEPTH * n_passes,
    }


def test_warm_chunk_reuses_its_depths_modeled_time(monkeypatch):
    """The stacked modeled time depends only on the recorded stats and the
    depth: a warm chunk at a depth its plan has already run evaluates the
    cost model zero times, and a new depth once per pass."""
    calls = []
    real_kernel_time = batch_mod.kernel_time

    def counting_kernel_time(*args, **kwargs):
        calls.append(kwargs.get("name"))
        return real_kernel_time(*args, **kwargs)

    img = make_image(SHAPE, PAIR, seed=0)
    eng = Engine()
    n_passes = len(get_kernel_spec("brlt_scanrow").passes)
    with execution(ExecutionConfig(sanitize=False, bounds_check=False)):
        eng.run_group([img], pair=PAIR)  # cold: records the plan
        first = eng.run_group([img], pair=PAIR)
        monkeypatch.setattr(batch_mod, "kernel_time", counting_kernel_time)
        again = eng.run_group([img], pair=PAIR)
        assert calls == []
        assert again.modeled_batched_s == first.modeled_batched_s
        eng.run_group([img, img], pair=PAIR)
        assert len(calls) == n_passes
        eng.run_group([img, img], pair=PAIR)
        assert len(calls) == n_passes


RESOLVED = ExecutionConfig(sanitize=False, bounds_check=False,
                           backend="gpusim", device="P100", autotune=False)


def test_warm_sat_builds_no_kernel_context(counts, monkeypatch):
    """A warm single call is a one-image batch on the default engine: it
    runs the bucket's lowered program and resolves its config once, in
    the engine."""
    img = make_image(SHAPE, PAIR, seed=0)
    with execution(RESOLVED):
        sat(img, pair=PAIR)  # cold: records the bucket's plan
        for k in counts:
            counts[k] = 0
        calls = count_resolves(monkeypatch)
        run = sat(img, pair=PAIR)
    assert counts == {"launch_ctx": 0, "replay_ctx": 0, "replay_kernel": 0}
    assert dict(calls) == {"repro.engine.batch": 1}
    assert run.backend == "gpusim"


def test_warm_group_with_resolved_config_resolves_nothing(monkeypatch):
    img = make_image(SHAPE, PAIR, seed=0)
    eng = Engine()
    eng.run_group([img], pair=PAIR, config=RESOLVED)  # cold
    calls = count_resolves(monkeypatch)
    run = eng.run_group([img], pair=PAIR, config=RESOLVED)
    assert sum(calls.values()) == 0
    assert run.plan_hits == 1 and run.runs[0].backend == "gpusim"


def test_override_over_resolved_config_still_resolves(monkeypatch):
    img = make_image(SHAPE, PAIR, seed=0)
    eng = Engine()
    eng.run_group([img], pair=PAIR, config=RESOLVED)
    calls = count_resolves(monkeypatch)
    eng.run_group([img], pair=PAIR, config=RESOLVED, bounds_check=True)
    assert calls["repro.engine.batch"] == 1
    # The override reached the plan key: a bounds-checked bucket of its own.
    assert {k.opts for k in eng.cache.keys()} == {
        (("bounds_check", b),) for b in (False, True)}
