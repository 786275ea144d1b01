"""One scenario that emits every telemetry event, and what it leaves behind.

:func:`run_scenario` drives the whole stack under a pinned execution
config (``gpusim`` on P100, sanitizer, bounds checks and autotune off) so
every CI profile sees the same events: cold and warm ``sat()`` on both
backends, a two-bucket ``sat_batch``, an evicting launch-plan cache,
planner decisions with a one-entry memo, a sharded call and a temporal
series, and serve requests (coalesced, autotuned, rejected and failing).
Fault paths are reached by monkeypatching: a refused lowering, a lowered
program that fails at run time, and a worker whose execution raises.

:func:`record` turns what the scenario left in each sink into plain
JSON: the registry (wall-time histograms by count only), every recorded
timeline's annotations (wall-time values by key only), and the JSONL
trace (spans and instant events without timestamps, ids or threads).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

from repro.engine import pool as engine_pool
from repro.engine.batch import Engine, default_engine, sat_batch
from repro.engine.plan import LaunchPlanCache
from repro.exec.config import ExecutionConfig, execution
from repro.obs import (get_metrics, recording_timeline, reset_metrics,
                       to_jsonl, tracing)
from repro.plan.planner import Planner, set_planner
from repro.sat.api import sat
from repro.serve import RectSumRequest, SatRequest, SatService
from repro.shard import sharded_sat, sharded_sat_series

from ..helpers import make_image

CONFIG = ExecutionConfig(backend="gpusim", device="P100", sanitize=False,
                         bounds_check=False, autotune=False)
#: Histograms of host wall time: recorded by sample count only.
WALL_HISTOGRAMS = frozenset({"serve.request_latency_us",
                             "serve.batch_wait_us"})
#: Timeline annotations of host wall time: recorded by key only.
WALL_ANNOTATIONS = frozenset({"plan_decide_us"})
#: Trace attributes that vary between runs (process-wide request ids,
#: wall latency), and the JSONL fields of ids, clocks and threads.
VOLATILE_ATTRS = frozenset({"request_id", "request_ids", "latency_us"})
VOLATILE_FIELDS = frozenset({"id", "parent_id", "span_id", "trace_id",
                             "wall_us", "links", "thread"})


@contextmanager
def _isolated(monkeypatch) -> Iterator[None]:
    """A cleared default engine, a fresh one-entry planner and an empty
    registry, so no earlier call changes what the scenario emits.  The
    engine pool runs inline, so histogram sums add up in one order."""
    default_engine().cache.clear()
    previous = set_planner(Planner(calibration=64, cache_size=1))
    reset_metrics()
    try:
        with monkeypatch.context() as m:
            m.setattr(engine_pool, "parts", lambda: 1)
            yield
    finally:
        set_planner(previous)
        default_engine().cache.clear()


def _refuse_lowering(monkeypatch) -> None:
    from repro.compile import lower

    def refuse(*args, **kwargs):
        raise lower.CompileError("lowering refused in the event scenario")

    monkeypatch.setattr(lower, "compile_plan", refuse)


def _fail_programs(monkeypatch) -> None:
    from repro.compile.lower import CompiledPlan

    def fail(self, stack):
        raise RuntimeError("program failed in the event scenario")

    monkeypatch.setattr(CompiledPlan, "run", fail)


def _serve(timelines: Dict[str, Dict[str, float]], monkeypatch) -> None:
    img = make_image((64, 64), "8u32s", seed=5)
    svc = SatService(workers=1, start=False, config=CONFIG)
    try:
        # Two requests queued before the worker starts share one batch.
        futs = [svc.submit(SatRequest(img, pair="8u32s",
                                      algorithm="brlt_scanrow"))
                for _ in range(2)]
        svc.pool.start()
        for i, fut in enumerate(futs):
            timelines[f"serve.coalesced[{i}]"] = \
                fut.result(timeout=60).timeline.annotations
        # An autotuned request decides its algorithm at submit.
        auto = SatRequest(img, pair="8u32s",
                          config=CONFIG.with_fields(autotune=True))
        timelines["serve.autotuned"] = \
            svc.submit(auto).result(timeout=60).timeline.annotations
        # A request whose finish raises: bad_request.
        bad = RectSumRequest(img, pair="8u32s", algorithm="brlt_scanrow",
                             rects=[(0, 0, 1)])
        assert svc.submit(bad).exception(timeout=60).code == "bad_request"
        # A worker whose execution raises, batched and solo.
        with monkeypatch.context() as m:
            def boom(images, key):
                raise RuntimeError("worker failed in the event scenario")

            m.setattr(svc.pool, "_run_group", boom)
            err = svc.submit(SatRequest(img, pair="8u32s",
                                        algorithm="brlt_scanrow"))
            assert err.exception(timeout=60).code == "execution_error"
    finally:
        svc.close()


def run_scenario(monkeypatch) -> Dict[str, Any]:
    """Run the scenario and return :func:`record` of its sinks."""
    timelines: Dict[str, Dict[str, float]] = {}
    with _isolated(monkeypatch), tracing() as tracer, execution(CONFIG):
        img = make_image((64, 64), "8u32s", seed=1)
        sat(img, pair="8u32s", algorithm="brlt_scanrow")    # cold
        sat(img, pair="8u32s", algorithm="brlt_scanrow")    # warm
        sat(img, pair="8u32s", algorithm="brlt_scanrow", backend="host")
        sat_batch([make_image(s, "8u32s", seed=2)
                   for s in ((64, 64), (64, 64), (96, 96), (64, 64))],
                  pair="8u32s", algorithm="scan_row_column")
        # A one-plan cache evicts when a second bucket arrives.
        small = Engine(cache=LaunchPlanCache(max_plans=1))
        for shape in ((32, 32), (64, 32)):
            small.run_batch([make_image(shape, "8u32s", seed=3)],
                            pair="8u32s", algorithm="brlt_scanrow")
        # Refused lowering: the bucket stays on the interpreter.
        with monkeypatch.context() as m, recording_timeline() as acc:
            _refuse_lowering(m)
            sat_batch([make_image((48, 32), "8u32s", seed=4)] * 2,
                      pair="8u32s", algorithm="brlt_scanrow")
        timelines["compile.refused"] = acc
        # A lowered program that fails at run time falls back to replay.
        sat(make_image((32, 64), "8u32s", seed=4), pair="8u32s",
            algorithm="brlt_scanrow")
        with monkeypatch.context() as m, recording_timeline() as acc:
            _fail_programs(m)
            sat(make_image((32, 64), "8u32s", seed=4), pair="8u32s",
                algorithm="brlt_scanrow")
        timelines["compile.failed"] = acc
        # Planner: decide, hit the memo, evict it with a second key.
        for pair in ("8u32s", "8u32s", "32f32f"):
            sat(make_image((64, 64), pair, seed=6), pair=pair,
                autotune=True)
        # Sharded on two unequal devices (lookback defers), in a timeline.
        with recording_timeline() as acc:
            sharded_sat(make_image((96, 128), "8u32s", seed=7),
                        pair="8u32s", algorithm="brlt_scanrow",
                        shard={"tile_shape": (32, 32),
                               "devices": "P100,V100"})
        timelines["shard"] = acc
        sharded_sat_series([make_image((32, 32), "8u32s", seed=t)
                            for t in range(3)], pair="8u32s",
                           temporal=True, shard={"devices": "2xP100"})
        _serve(timelines, monkeypatch)
        return record(get_metrics(), timelines, tracer)


def _trace_records(tracer) -> List[Dict[str, Any]]:
    out = []
    for line in to_jsonl(tracer):
        rec = {k: v for k, v in json.loads(line).items()
               if k not in VOLATILE_FIELDS}
        attrs = rec.get("attrs")
        if attrs is not None:
            rec["attrs"] = {k: v for k, v in attrs.items()
                            if k not in VOLATILE_ATTRS}
        else:
            for k in VOLATILE_ATTRS:
                rec.pop(k, None)
        out.append(rec)
    return sorted(out, key=lambda r: json.dumps(r, sort_keys=True))


def record(registry, timelines, tracer) -> Dict[str, Any]:
    """Plain-JSON record of the three sinks (see module docs)."""
    series = {}
    for key, value in registry.snapshot().items():
        if isinstance(value, dict) and key.split("{")[0] in WALL_HISTOGRAMS:
            value = {"count": value["count"]}
        series[key] = value
    return {
        "registry": series,
        "timelines": {
            name: {k: (None if k in WALL_ANNOTATIONS else v)
                   for k, v in sorted(ann.items())}
            for name, ann in sorted(timelines.items())
        },
        "trace": _trace_records(tracer),
    }


def canonical(doc: Dict[str, Any]) -> Dict[str, Any]:
    """``doc`` after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(doc, sort_keys=True))


def dumps(doc: Dict[str, Any]) -> str:
    """``doc`` as JSON text, one line per trace record."""
    parts = [f'"{k}": ' + json.dumps(doc[k], indent=1, sort_keys=True)
             for k in ("registry", "timelines")]
    parts.append('"trace": [\n' + ",\n".join(
        json.dumps(r, sort_keys=True) for r in doc["trace"]) + "\n]")
    return "{\n" + ",\n".join(parts) + "\n}\n"
