"""Metric definitions and their computation from a run's observations.

``END_TO_END`` are taken from untraced runs, ``PER_LAYER`` from traced
runs; ``BENCHMARK.json`` lists the same names and units.  Every workload
reports every metric: a layer a workload bypasses reports 0 for it.
Percentiles are NumPy's (linear interpolation); an empty sample where the
workload should have produced one raises rather than reading as 0.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .spans import Recorder, has_descendant, self_times
from .workloads import Measurement

#: name -> unit
END_TO_END = {
    "call_p50_us": "us",
    "sol_ratio": "x",
    "latency_p50_ms": "ms",
    "slo_attainment": "fraction",
    "mpix_per_s": "Mpix/s",
    "sim_minstr_per_s": "Minstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "exec.resolve_calls_per_op": "count",
    "exec.resolve_us_per_op": "us",
    "plan.decide_us_per_op": "us",
    "plan.cache_hit_ratio": "fraction",
    "shard.config_us_per_op": "us",
    "shard.us_per_tile": "us",
    "shard.lookback_deferred": "count",
    "shard.retries": "count",
    "sat.pad_crop_us_per_op": "us",
    "engine.self_us_per_op": "us",
    "engine.plan_hit_ratio": "fraction",
    "engine.plan_evictions": "count",
    "compile.run_us_per_mpix": "us/Mpix",
    "compile.lower_ms": "ms",
    "compile.fallbacks": "count",
    "gpusim.launch_us_per_launch": "us",
    "gpusim.cost_us_per_launch": "us",
    "gpusim.replay_us_per_image": "us",
    "gpusim.launches_per_op": "count",
    "serve.submit_us_p50": "us",
    "serve.queue_wait_ms_p50": "ms",
    "serve.dispatch_wait_ms_p90": "ms",
    "serve.execute_ms_p50": "ms",
    "serve.execute_ms_p90": "ms",
    "serve.finish_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "serve.coalesce_ratio": "fraction",
    "serve.timeline_gap_frac": "fraction",
    "obs.metric_calls_per_op": "count",
    "sol.cumsum_us_per_op": "us",
    "loadgen.lag_ms_max": "ms",
    "bench.trace_overhead_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(meas: Measurement, limit_s: float, setup_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    """The user-visible figures of an untraced run."""
    done = meas.ops
    if not done:
        raise ValueError("no operation completed")
    calls = [op.call_s for op in done]
    lat = [op.latency_s for op in done]
    sol = [op.sol_s for op in done if op.sol_s is not None]
    if not sol:
        raise ValueError("no speed-of-light timing")
    within = sum(1 for op in done if op.latency_s <= limit_s)
    return {
        "call_p50_us": np.median(calls) * 1e6,
        "sol_ratio": np.median(lat) / np.median(sol),
        "latency_p50_ms": np.median(lat) * 1e3,
        "slo_attainment": within / meas.attempted,
        "mpix_per_s": _ratio(sum(op.pixels for op in done) / 1e6, meas.busy_s),
        "sim_minstr_per_s": _ratio(sum(op.instr for op in done) / 1e6,
                                   meas.busy_s),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _serve_stages(meas: Measurement, timed) -> Dict[str, List[float]]:
    """Per-request stage durations (seconds) measured at the public calls,
    plus each request's gap against its own ``RequestTimeline``."""
    took: Dict[int, float] = {}
    ran: Dict[int, tuple] = {}
    for s in timed:
        if s.name == "serve.take" and s.info:
            for image_id in s.info:
                took.setdefault(image_id, s.end)
        elif s.name == "engine.run_group" and s.info:
            for image_id in s.info:
                ran.setdefault(image_id, (s.start, s.end))
    stages = {k: [] for k in ("submit", "queue", "dispatch", "execute",
                              "finish", "gap")}
    for r in meas.requests:
        key = id(r["image"])
        timeline = r.get("timeline")
        # The first batch each worker takes after the wrappers go in comes
        # from a take() call that started unwrapped; it has no mark.
        if key not in took or key not in ran or timeline is None:
            continue
        exec0, exec1 = ran[key]
        outside = {
            "submit": r["t_sub1"] - r["t_sub0"],
            "queue": took[key] - r["t_sub1"],
            "dispatch": exec0 - took[key],
            "execute": exec1 - exec0,
            "finish": r["t_done"] - exec1,
        }
        for k, v in outside.items():
            stages[k].append(v)
        inside = (timeline.submit_us, timeline.queue_wait_us,
                  timeline.dispatch_wait_us, timeline.execute_us,
                  timeline.finish_us)
        gap = sum(abs(o * 1e6 - t) for o, t in zip(outside.values(), inside))
        stages["gap"].append(gap / ((r["t_done"] - r["t_sub0"]) * 1e6))
    return stages


def per_layer(meas: Measurement, rec: Recorder) -> Dict[str, float]:
    """Layer attribution from a traced run's spans."""
    spans = rec.spans
    timed = [s for s in spans if s.phase == "timed"]
    n_ops = sum(1 for op in meas.ops if op.traced)
    selfs = self_times(spans)

    def named(name, pool=timed):
        return [s for s in pool if s.name == name]

    def total(name, pool=timed):
        return sum(s.duration for s in named(name, pool))

    def per_op(x):
        return _ratio(x, n_ops)

    decides = named("plan.decide")
    # A decision that had to calibrate ran the simulator underneath.
    cold = has_descendant(timed, ["gpusim.launch"])
    shard_runs = [s.info for s in named("shard.run") if s.info]
    hits = sum(s.info[0] for s in named("engine.plan_hit") if s.info)
    misses = sum(s.info[0] for s in named("engine.plan_miss") if s.info)
    evictions: Dict[int, List[int]] = {}
    for s in named("engine.plan_hit") + named("engine.plan_miss"):
        if s.info:
            evictions.setdefault(s.info[1], []).append(s.info[2])
    compiled_mpix = sum(s.info for s in named("compile.run") if s.info)
    launches_all = named("gpusim.launch", spans)
    costs_all = named("gpusim.cost", spans)
    compile_all = named("compile.lower", spans) + named("compile.run", spans)
    stages = _serve_stages(meas, timed)
    if meas.requests and not stages["submit"]:
        raise ValueError("no traced request was followed through the serve "
                         "stages")

    def stage(name, q, scale):
        # Empty only on the workloads that bypass the serve layer.
        return np.percentile(stages[name], q) * scale if stages[name] else 0.0
    # Batches of traced requests only: a worker's take() can straddle the
    # switch from the untraced phase.
    traced_images = {id(r["image"]) for r in meas.requests}
    batches = [len(s.info) for s in named("serve.take")
               if s.info and s.info[0] in traced_images]
    return {
        "exec.resolve_calls_per_op": per_op(len(named("exec.resolve"))),
        "exec.resolve_us_per_op": per_op(total("exec.resolve") * 1e6),
        "plan.decide_us_per_op": per_op(total("plan.decide") * 1e6),
        "plan.cache_hit_ratio": _ratio(
            sum(1 for s in decides if s.id not in cold), len(decides)),
        "shard.config_us_per_op": per_op(total("shard.config") * 1e6),
        "shard.us_per_tile": _ratio(total("shard.run") * 1e6,
                                    sum(i[0] for i in shard_runs)),
        "shard.lookback_deferred": _ratio(sum(i[2] for i in shard_runs),
                                          len(shard_runs)),
        "shard.retries": _ratio(sum(i[1] for i in shard_runs),
                                len(shard_runs)),
        "sat.pad_crop_us_per_op": per_op(
            (total("sat.pad") + total("sat.crop")) * 1e6),
        "engine.self_us_per_op": per_op(sum(
            selfs[s.id] for s in timed
            if s.name in ("engine.run_batch", "engine.run_group")) * 1e6),
        "engine.plan_hit_ratio": _ratio(hits, hits + misses),
        "engine.plan_evictions": float(sum(max(v) - min(v)
                                           for v in evictions.values())),
        "compile.run_us_per_mpix": _ratio(total("compile.run") * 1e6,
                                          compiled_mpix),
        "compile.lower_ms": total("compile.lower", spans) * 1e3,
        "compile.fallbacks": float(sum(1 for s in compile_all if s.error)),
        "gpusim.launch_us_per_launch": _ratio(
            sum(selfs[s.id] for s in launches_all) * 1e6, len(launches_all)),
        "gpusim.cost_us_per_launch": _ratio(
            sum(s.duration for s in costs_all) * 1e6, len(costs_all)),
        "gpusim.replay_us_per_image": _ratio(total("gpusim.replay") * 1e6,
                                             hits),
        "gpusim.launches_per_op": per_op(len(named("gpusim.launch"))),
        "serve.submit_us_p50": stage("submit", 50, 1e6),
        "serve.queue_wait_ms_p50": stage("queue", 50, 1e3),
        "serve.dispatch_wait_ms_p90": stage("dispatch", 90, 1e3),
        "serve.execute_ms_p50": stage("execute", 50, 1e3),
        "serve.execute_ms_p90": stage("execute", 90, 1e3),
        "serve.finish_ms_p50": stage("finish", 50, 1e3),
        "serve.batch_size_mean": _ratio(sum(batches), len(batches)),
        "serve.coalesce_ratio": _ratio(sum(b for b in batches if b > 1),
                                       sum(batches)),
        "serve.timeline_gap_frac": stage("gap", 50, 1.0),
        "obs.metric_calls_per_op": per_op(len(named("obs.metric"))),
        "sol.cumsum_us_per_op": np.median(
            [op.sol_s for op in meas.ops if op.sol_s is not None]) * 1e6,
        "loadgen.lag_ms_max": max(meas.lag_s, default=0.0) * 1e3,
        "bench.trace_overhead_frac": meas.trace_overhead,
    }


def as_metrics(values: Dict[str, float], units: Dict[str, str],
               ) -> Dict[str, Dict[str, object]]:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}

