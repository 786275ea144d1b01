"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sat``         compute one SAT and print timing + a checksum
``batch``       run a batch through the execution engine (``sat_batch``)
``compare``     time every algorithm on one configuration (alias: ``bench``)
``microbench``  print the Sec. V-A latency/throughput tables
``experiment``  regenerate one paper table/figure by name
``devices``     list the simulated device registry (Table I)
``trace``       trace one SAT call and export the span log
``profile``     per-pass modeled-time breakdown (Fig. 8 shape) + trace.json
``serve``       start the SAT serving layer (batcher + worker pool)
``loadgen``     drive a closed/open-loop load run against the serving layer
``slo``         run load against an in-process service and report SLO burn
                rates (latency / availability / coalescing objectives)

The ``sat``, ``batch`` and ``compare``/``bench`` commands share the
execution-mode flags ``--backend``, ``--sanitize`` and ``--bounds-check``,
which scope one :class:`~repro.exec.ExecutionConfig` over the whole
command (explicit flags beat the ``REPRO_*`` environment variables, as
everywhere else).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .exec.config import ExecutionConfig, execution
from .exec.registry import backend_names
from .harness import Runner, experiments as E
from .harness.tables import format_table
from .sat.api import ALGORITHMS, sat as sat_api
from .workloads import random_matrix

#: Experiment registry exposed by ``python -m repro experiment <name>``.
EXPERIMENTS = {
    "table1": lambda r: E.table1(),
    "table2": lambda r: E.table2(),
    "microbench": lambda r: E.microbench(),
    "model-equations": lambda r: E.model_equations(),
    "fig6": lambda r: E.fig6(r),
    "fig7": lambda r: E.fig7(r),
    "fig8": lambda r: E.fig8(r),
    "model-verification": lambda r: E.model_verification(),
    "headline": lambda r: E.headline(r),
    "ablation-scan": lambda r: E.ablation_scan_variant(r),
    "ablation-stride": lambda r: E.ablation_brlt_stride(r),
    "batch-throughput": lambda r: E.batch_throughput(),
}


def _add_exec_flags(sp: argparse.ArgumentParser) -> None:
    """The shared execution-mode flags (one ExecutionConfig per command)."""
    g = sp.add_argument_group("execution modes")
    g.add_argument("--backend", default=None, choices=backend_names(),
                   help="execution backend (default: gpusim simulator)")
    g.add_argument("--sanitize", action="store_const", const=True,
                   default=None,
                   help="run every launch under the kernel sanitizer")
    g.add_argument("--bounds-check", dest="bounds_check",
                   action="store_const", const=True, default=None,
                   help="validate global-memory indices (debug mode)")


def _exec_config(args) -> ExecutionConfig:
    """The ExecutionConfig scoped over one CLI command's execution."""
    return ExecutionConfig(
        sanitize=getattr(args, "sanitize", None),
        bounds_check=getattr(args, "bounds_check", None),
        backend=getattr(args, "backend", None),
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="SAT-on-GPUs reproduction (Chen et al., CLUSTER 2018)",
    )
    p.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sat", help="compute one SAT on the simulator")
    s.add_argument("--size", type=int, default=1024, help="square matrix side")
    s.add_argument("--pair", default="8u32s", help="type pair, e.g. 8u32s, 32f32f")
    s.add_argument("--algorithm", default=None,
                   choices=sorted(ALGORITHMS) + ["auto"],
                   help="kernel to run; 'auto' asks the planner; unset "
                        "defers to the execution config (REPRO_PLAN_AUTOTUNE"
                        " / the autotuned profile), else brlt_scanrow")
    s.add_argument("--device", default="P100")
    s.add_argument("--seed", type=int, default=0)
    _add_exec_flags(s)

    b = sub.add_parser("batch", help="run a batch through the execution engine")
    b.add_argument("--n-images", type=int, default=32)
    b.add_argument("--size", type=int, default=256, help="square image side")
    b.add_argument("--pair", default="8u32s")
    b.add_argument("--algorithm", default=None,
                   choices=sorted(ALGORITHMS) + ["auto"],
                   help="kernel to run; 'auto' asks the planner; unset "
                        "defers to the execution config (REPRO_PLAN_AUTOTUNE"
                        " / the autotuned profile), else brlt_scanrow")
    b.add_argument("--device", default="P100")
    b.add_argument("--seed", type=int, default=0)
    _add_exec_flags(b)

    c = sub.add_parser("compare", aliases=["bench"],
                       help="time every algorithm on one config")
    c.add_argument("--size", type=int, default=1024)
    c.add_argument("--pair", default="8u32s")
    c.add_argument("--device", default="P100")
    _add_exec_flags(c)

    sub.add_parser("microbench", help="Sec. V-A latency/throughput tables")

    e = sub.add_parser("experiment", help="regenerate one paper table/figure")
    e.add_argument("name", choices=sorted(EXPERIMENTS))

    d = sub.add_parser("devices",
                       help="list the simulated device zoo with key "
                            "parameters")
    d.add_argument("--table1", action="store_true",
                   help="print the paper's Table I instead of the full zoo")

    t = sub.add_parser("trace", help="trace one SAT call and export spans")
    t.add_argument("--size", type=int, default=512, help="square matrix side")
    t.add_argument("--pair", default="8u32s")
    t.add_argument("--algorithm", default="brlt_scanrow",
                   choices=sorted(ALGORITHMS))
    t.add_argument("--device", default="P100")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default="trace.json",
                   help="output path: .jsonl writes the raw span/event log, "
                        "anything else a Chrome/Perfetto trace (default "
                        "trace.json)")
    t.add_argument("--no-host", dest="include_host", action="store_false",
                   help="omit the host wall-clock track from the Chrome "
                        "trace (deterministic output)")
    _add_exec_flags(t)

    f = sub.add_parser("profile",
                       help="per-pass modeled breakdown + Chrome trace")
    f.add_argument("--size", type=int, default=512, help="square matrix side")
    f.add_argument("--pair", default="8u32s")
    f.add_argument("--algorithm", action="append", default=None,
                   choices=sorted(ALGORITHMS), dest="algorithms",
                   help="algorithm to profile (repeatable; default: the "
                        "paper's three kernels)")
    f.add_argument("--device", default="P100")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", default=None,
                   help="also write the Chrome/Perfetto trace here")
    _add_exec_flags(f)

    v = sub.add_parser("serve",
                       help="start the SAT serving layer (batcher + workers)")
    v.add_argument("--workers", type=int, default=4)
    v.add_argument("--max-delay-ms", type=float, default=5.0,
                   help="batcher linger: minimum wait of a key's oldest "
                        "request (0 admits on demand)")
    v.add_argument("--size", type=int, default=128,
                   help="square side of the synthetic self-test images")
    v.add_argument("--requests", type=int, default=16,
                   help="synthetic requests to serve before printing stats "
                        "(0 skips the self-test)")
    v.add_argument("--http", action="store_true",
                   help="bind the /health and /stats HTTP facade and print "
                        "the address")
    v.add_argument("--duration", type=float, default=0.0,
                   help="keep serving this many seconds after the self-test "
                        "(for external probes of --http)")
    v.add_argument("--seed", type=int, default=0)
    _add_exec_flags(v)

    sh = sub.add_parser("shard",
                        help="tiled SAT across simulated devices with "
                             "decoupled-lookback carries")
    sh.add_argument("--size", type=int, default=4096,
                    help="square image side (default 4096)")
    sh.add_argument("--pair", default="8u32s")
    sh.add_argument("--algorithm", default="brlt_scanrow",
                    choices=sorted(ALGORITHMS))
    sh.add_argument("--tile", type=int, default=1024,
                    help="square tile side (default 1024)")
    sh.add_argument("--devices", default="2xP100",
                    help="device set, e.g. 2xP100 or P100,V100")
    sh.add_argument("--streams", type=int, default=2,
                    help="streams per device")
    sh.add_argument("--placement", choices=["roundrobin", "blockrow"],
                    default="roundrobin")
    sh.add_argument("--verify", action="store_true",
                    help="also compute the host reference and assert "
                         "bit-identity")
    sh.add_argument("--seed", type=int, default=0)
    _add_exec_flags(sh)

    lg = sub.add_parser("loadgen",
                        help="drive a load run against an in-process service")
    lg.add_argument("--mode", choices=["closed", "open"], default="closed")
    lg.add_argument("--clients", type=int, default=8,
                    help="closed-loop client threads")
    lg.add_argument("--requests", type=int, default=64,
                    help="total requests to issue")
    lg.add_argument("--rate", type=float, default=300.0,
                    help="open-loop arrival rate (req/s)")
    lg.add_argument("--size", type=int, default=128)
    lg.add_argument("--n-shapes", type=int, default=2,
                    help="distinct image shapes in the workload")
    lg.add_argument("--workers", type=int, default=4)
    lg.add_argument("--max-delay-ms", type=float, default=5.0)
    lg.add_argument("--seed", type=int, default=0)
    _add_exec_flags(lg)

    so = sub.add_parser("slo",
                        help="load an in-process service and report SLO "
                             "burn rates per objective")
    so.add_argument("--requests", type=int, default=64,
                    help="total requests to issue")
    so.add_argument("--clients", type=int, default=8,
                    help="closed-loop client threads")
    so.add_argument("--size", type=int, default=128,
                    help="square side of the largest workload image")
    so.add_argument("--n-shapes", type=int, default=2,
                    help="distinct image shapes in the workload")
    so.add_argument("--workers", type=int, default=4)
    so.add_argument("--max-delay-ms", type=float, default=5.0,
                    help="batcher linger: minimum wait of a key's oldest "
                         "request (0 admits on demand)")
    so.add_argument("--latency-slo-ms", type=float, default=100.0,
                    help="latency objective threshold (p95 target); tighten "
                         "to exercise warning/breach states")
    so.add_argument("--latency-target", type=float, default=0.95,
                    help="fraction of requests that must beat the threshold")
    so.add_argument("--error-target", type=float, default=0.999,
                    help="availability objective (fraction non-error)")
    so.add_argument("--coalesce-target", type=float, default=0.5,
                    help="fraction of requests that should share a launch")
    so.add_argument("--inject-errors", type=int, default=0,
                    help="submit this many malformed requests to burn the "
                         "availability objective's error budget")
    so.add_argument("--json", action="store_true",
                    help="emit the full evaluation as JSON instead of the "
                         "table")
    so.add_argument("--seed", type=int, default=0)
    _add_exec_flags(so)
    return p


def cmd_sat(args) -> int:
    from .dtypes import parse_pair

    tp = parse_pair(args.pair)
    img = random_matrix((args.size, args.size), tp.input, seed=args.seed)
    run = sat_api(img, pair=tp, algorithm=args.algorithm, device=args.device)
    label = run.algorithm or args.algorithm
    print(f"{label} on {args.device}, {args.size}x{args.size} {tp.name}")
    for name, t in run.kernel_times_us():
        print(f"  {name:24s} {t:10.2f} us")
    if run.time_us is None:
        print(f"  {'total':24s} (no modeled time on the "
              f"{run.backend!r} backend)")
    else:
        print(f"  {'total':24s} {run.time_us:10.2f} us")
    print(f"  checksum (bottom-right)  {run.output[-1, -1]}")
    return 0


def cmd_batch(args) -> int:
    from .dtypes import parse_pair
    from .engine import Engine

    tp = parse_pair(args.pair)
    imgs = [random_matrix((args.size, args.size), tp.input, seed=args.seed + i)
            for i in range(args.n_images)]
    run = Engine().run_batch(imgs, pair=tp.name, algorithm=args.algorithm,
                             device=args.device)
    print(run.summary())
    print(f"  wall                     {run.wall_s * 1e3:10.2f} ms "
          f"({run.wall_images_per_s:,.0f} img/s host)")
    print(f"  modeled batched          {run.modeled_batched_s * 1e6:10.2f} us")
    print(f"  modeled sequential       {run.modeled_sequential_s * 1e6:10.2f} us")
    print(f"  checksum (last image)    {run.runs[-1].output[-1, -1]}")
    return 0


def cmd_compare(args) -> int:
    if getattr(args, "backend", None) not in (None, "gpusim"):
        print(f"compare drives the calibrated gpusim runner; backend "
              f"{args.backend!r} is not supported here", file=sys.stderr)
        return 2
    runner = Runner(calibration=min(1024, args.size))
    rows = []
    for algo in sorted(ALGORITHMS):
        if algo.startswith("cpu"):
            continue
        try:
            pt = runner.measure(algo, args.pair, args.device, args.size)
        except (ValueError, KeyError):
            continue
        rows.append({"algorithm": algo, "time_us": pt.time_us})
    best = min(r["time_us"] for r in rows)
    for r in rows:
        r["vs best"] = r["time_us"] / best
    rows.sort(key=lambda r: r["time_us"])
    print(format_table(rows, title=(
        f"{args.device}, {args.size}x{args.size}, {args.pair}")))
    return 0


def cmd_shard(args) -> int:
    import numpy as np

    from .dtypes import parse_pair
    from .shard import sharded_sat

    tp = parse_pair(args.pair)
    img = random_matrix((args.size, args.size), tp.input, seed=args.seed)
    run = sharded_sat(
        img, pair=tp, algorithm=args.algorithm,
        shard={"tile_shape": (args.tile, args.tile),
               "devices": args.devices,
               "streams_per_device": args.streams,
               "placement": args.placement},
    )
    rep = run.report
    print(f"{args.algorithm} {args.size}x{args.size} {tp.name} sharded "
          f"{rep['grid'][0]}x{rep['grid'][1]} over {args.devices}")
    print(f"  tiles                    {rep['n_tiles']:10d}")
    print(f"  makespan                 {rep['makespan_s'] * 1e3:10.2f} ms modeled")
    print(f"  tiles/s                  {rep['tiles_per_s']:10.0f}")
    print(f"  carry overhead           {rep['carry_overhead_frac']:10.1%}")
    print(f"  compute/carry overlap    {rep['overlap_fraction']:10.1%}")
    print(f"  lookback deferrals       {rep['retries']:10d}")
    print(f"  checksum (bottom-right)  {run.output[-1, -1]}")
    if args.verify:
        ref = sat_api(img, pair=tp, backend="host", shard=False).output
        if tp.output.is_integer:
            identical = bool(np.array_equal(run.output, ref))
        else:
            identical = bool(np.allclose(run.output, ref, rtol=1e-4))
        print(f"  matches host reference   {'yes' if identical else 'NO'}")
        return 0 if identical else 1
    return 0


def cmd_experiment(args) -> int:
    runner = Runner(calibration=1024)
    out = EXPERIMENTS[args.name](runner)
    print(out["text"])
    return 0


def cmd_devices(args) -> int:
    from .gpusim.device import DEVICES

    if getattr(args, "table1", False):
        print(E.table1()["text"])
        return 0
    rows = []
    for name in sorted(DEVICES):
        d = DEVICES[name]
        rows.append({
            "device": d.name,
            "cc": f"{d.compute_capability[0]}.{d.compute_capability[1]}",
            "SMs": d.sm_count,
            "clock GHz": round(d.clock_hz / 1e9, 3),
            "DRAM GB/s": round(d.global_bw / 1e9),
            "smem GB/s": round(d.shared_bw / 1e9),
            "smem/SM KB": d.shared_mem_per_sm // 1024,
            "regs/SM": d.registers_per_sm,
            "launch us": round(d.launch_overhead_s * 1e6, 1),
        })
    print(format_table(rows, title="Simulated device zoo"))
    print("\nTable I devices (paper): M40, P100, V100 — see "
          "`python -m repro devices --table1`.")
    return 0


def cmd_trace(args) -> int:
    from .dtypes import parse_pair
    from .obs import Tracer, to_chrome_trace, tracing, write_chrome_trace, write_jsonl

    tp = parse_pair(args.pair)
    img = random_matrix((args.size, args.size), tp.input, seed=args.seed)
    tr = Tracer()
    # The driver: every launch interpreted and traced, whatever plans
    # the process already holds.
    with tracing(tr):
        run = ALGORITHMS[args.algorithm](img, pair=tp, device=args.device)
    if args.out.endswith(".jsonl"):
        write_jsonl(args.out, tr)
    else:
        write_chrome_trace(args.out, tr, include_host=args.include_host)
    total = "n/a" if run.time_us is None else f"{run.time_us:.2f} us modeled"
    print(f"{args.algorithm} {args.size}x{args.size} {tp.name} on "
          f"{args.device}: {len(tr.spans)} spans, {len(tr.events)} events, "
          f"{total}")
    print(f"wrote {args.out}")
    return 0


def cmd_profile(args) -> int:
    from .dtypes import parse_pair
    from .obs import (
        Tracer,
        pass_breakdown,
        to_chrome_trace,
        tracing,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from .sat.api import PAPER_ALGORITHMS

    algorithms = args.algorithms or sorted(PAPER_ALGORITHMS)
    tp = parse_pair(args.pair)
    img = random_matrix((args.size, args.size), tp.input, seed=args.seed)
    tr = Tracer()
    totals = {}
    with tracing(tr):
        for algo in algorithms:
            # The driver, so every kernel phase is interpreted and traced.
            run = ALGORITHMS[algo](img, pair=tp, device=args.device)
            totals[algo] = run.time_us
    rows = pass_breakdown(tr)
    print(format_table(
        rows,
        columns=["algorithm", "kernel", "bound", "t_gmem_us", "t_smem_us",
                 "t_exec_us", "t_latency_us", "t_overhead_us", "modeled_us"],
        title=(f"per-pass modeled breakdown: {args.size}x{args.size} "
               f"{tp.name} on {args.device}"),
    ))
    print()
    for algo in algorithms:
        t = totals[algo]
        shown = "n/a (unmodeled backend)" if t is None else f"{t:10.2f} us"
        print(f"  {algo:24s} {shown}")
    if args.out:
        problems = validate_chrome_trace(to_chrome_trace(tr))
        write_chrome_trace(args.out, tr)
        if problems:  # pragma: no cover - structural self-check
            print(f"trace self-check: {problems}", file=sys.stderr)
            return 1
        print(f"\nwrote {args.out}")
    return 0


def _serve_images(args, n: int):
    from .dtypes import parse_pair

    tp = parse_pair("8u32s")
    sizes = [max(32, args.size - 32 * i) for i in range(n)]
    return [random_matrix((s, s), tp.input, seed=args.seed + i)
            for i, s in enumerate(sizes)]


def cmd_serve(args) -> int:
    import json
    import time

    from .obs import reset_metrics
    from .serve import SatRequest, SatService

    reset_metrics()  # stats() reads the process-global registry
    with SatService(workers=args.workers,
                    max_delay_s=args.max_delay_ms / 1e3) as svc:
        if args.http:
            host, port = svc.start_http()
            print(f"serving /health and /stats on http://{host}:{port}")
        if args.requests:
            imgs = _serve_images(args, min(4, args.requests))
            futs = [svc.submit(SatRequest(imgs[i % len(imgs)]))
                    for i in range(args.requests)]
            for f in futs:
                f.result(timeout=120)
        if args.duration > 0:
            try:
                time.sleep(args.duration)
            except KeyboardInterrupt:  # pragma: no cover - interactive
                pass
        print(json.dumps({"health": svc.health(), "stats": svc.stats()},
                         indent=2))
    return 0


def cmd_loadgen(args) -> int:
    import json

    from .obs import reset_metrics
    from .serve import SatService, run_closed_loop, run_open_loop

    reset_metrics()  # report coalesce/batch metrics for this run only
    imgs = _serve_images(args, args.n_shapes)
    with SatService(workers=args.workers,
                    max_delay_s=args.max_delay_ms / 1e3) as svc:
        if args.mode == "closed":
            rep = run_closed_loop(
                svc, imgs, clients=args.clients,
                requests_per_client=max(1, args.requests // args.clients),
            )
        else:
            rep = run_open_loop(svc, imgs, rate_rps=args.rate,
                                n_requests=args.requests)
    print(json.dumps(rep.to_dict(), indent=2))
    return 0 if rep.n_errors == 0 else 1


def cmd_slo(args) -> int:
    import json

    from .obs import reset_metrics
    from .obs.slo import SloTracker, default_objectives
    from .serve import RectSumRequest, SatService, run_closed_loop

    reset_metrics()  # the tracker reads the process-global registry
    objectives = default_objectives(
        latency_threshold_us=args.latency_slo_ms * 1e3,
        latency_target=args.latency_target,
        error_target=args.error_target,
        coalesce_target=args.coalesce_target,
    )
    imgs = _serve_images(args, args.n_shapes)
    with SatService(workers=args.workers,
                    max_delay_s=args.max_delay_ms / 1e3,
                    slo={"objectives": objectives}) as svc:
        svc.slo.sample()  # anchor the burn-rate windows before the load
        rep = run_closed_loop(
            svc, imgs, clients=args.clients,
            requests_per_client=max(1, args.requests // args.clients),
        )
        n_bad = 0
        for i in range(args.inject_errors):
            # Out-of-range rectangles fail post-processing with a
            # structured bad_request ServeError — a real error-budget
            # burn without touching the execution path.
            try:
                svc.request(RectSumRequest(
                    imgs[i % len(imgs)], rects=[(0, 0, 10 ** 6, 10 ** 6)],
                ), timeout=30)
            except Exception:
                n_bad += 1
        ev = svc.slo.evaluate()
    if args.json:
        print(json.dumps({"load": rep.to_dict(), "slo": ev}, indent=2))
    else:
        rows = []
        for name, ob in ev["objectives"].items():
            rows.append({
                "objective": name,
                "kind": ob["kind"],
                "target": f"{ob['target']:.3f}",
                "good/total": f"{ob['good']}/{ob['total']}",
                "good frac": f"{ob['good_fraction']:.4f}",
                "burn short": f"{ob['burn_short']:.2f}x",
                "burn long": f"{ob['burn_long']:.2f}x",
                "state": ob["state"],
            })
        print(format_table(rows, title=(
            f"SLO evaluation after {rep.n_requests} requests "
            f"({args.clients} clients, {n_bad} injected errors)")))
        lat = ", ".join(f"{k}={v:.2f}ms"
                        for k, v in sorted(rep.latency_ms.items()))
        print(f"\n  latency: {lat}")
        print(f"  coalesce ratio: {rep.coalesce_ratio:.3f}  "
              f"mean batch: {rep.mean_batch_size:.2f}")
        print(f"  overall state: {ev['state']}")
    return {"ok": 0, "warning": 1, "breach": 2}.get(ev["state"], 2)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "sat":
        with execution(_exec_config(args)):
            return cmd_sat(args)
    if args.command == "batch":
        with execution(_exec_config(args)):
            return cmd_batch(args)
    if args.command in ("compare", "bench"):
        with execution(_exec_config(args)):
            return cmd_compare(args)
    if args.command == "shard":
        with execution(_exec_config(args)):
            return cmd_shard(args)
    if args.command == "microbench":
        print(E.microbench()["text"])
        return 0
    if args.command == "experiment":
        return cmd_experiment(args)
    if args.command == "devices":
        return cmd_devices(args)
    if args.command == "trace":
        with execution(_exec_config(args)):
            return cmd_trace(args)
    if args.command == "profile":
        with execution(_exec_config(args)):
            return cmd_profile(args)
    if args.command == "serve":
        with execution(_exec_config(args)):
            return cmd_serve(args)
    if args.command == "loadgen":
        with execution(_exec_config(args)):
            return cmd_loadgen(args)
    if args.command == "slo":
        with execution(_exec_config(args)):
            return cmd_slo(args)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
