"""Latency/throughput of the SAT serving layer under load.

Sweeps the :mod:`repro.serve` stack — dynamic batcher + worker pool over
one shared engine — with the load generator in both arrival models:

* **closed loop** over client counts: capacity and latency at fixed
  concurrency;
* **open loop** over offered arrival rates (>= 3 rates): the
  latency-vs-throughput curve, p50/p95/p99 measured from *scheduled*
  arrivals so queueing delay past saturation is not hidden.

Run directly::

    python benchmarks/bench_serve.py            # full sweep, appends a row
                                                # to BENCH_serve.json
    python benchmarks/bench_serve.py --smoke    # CI smoke: asserts
                                                # bit-identity and coalesce
                                                # ratio > 0.5

Every run first verifies responses are bit-identical to serial ``sat()``
— the serving layer is an optimisation, never an observable.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

BENCH_LOG = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def _repo_src() -> None:
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _append_bench_entry(entry: dict) -> None:
    history = []
    if BENCH_LOG.exists():
        try:
            history = json.loads(BENCH_LOG.read_text())
        except json.JSONDecodeError:
            history = []
    history.append(entry)
    BENCH_LOG.write_text(json.dumps(history, indent=2) + "\n")


def _images(n: int, size: int, seed: int = 0):
    """``n`` images of distinct sizes: ``size`` down in 32-pixel steps."""
    rng = np.random.default_rng(seed)
    sizes = [max(32, size - 32 * i) for i in range(n)]
    return [rng.integers(0, 256, (s, s)).astype(np.uint8) for s in sizes]


def _verify_identity(svc, imgs) -> None:
    from repro.sat.api import sat

    for im in imgs:
        got = svc.sat(im, timeout=120)
        ref = sat(im).output
        assert np.array_equal(got, ref), "served SAT drifted from sat()"


def _scrape_metrics(svc) -> str:
    import urllib.request

    host, port = svc.start_http(port=0)
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=10
        ) as resp:
            ctype = resp.headers.get("Content-Type", "")
            assert "version=0.0.4" in ctype, f"bad /metrics content type {ctype}"
            return resp.read().decode("utf-8")
    finally:
        svc.stop_http()


def _undeclared_families(metrics_text: str) -> list:
    """Metric families on ``/metrics`` that no row of the event table
    declares, compared after the Prometheus mangling (dots become
    underscores, counters gain ``_total``).  A family outside the table
    means an emission bypassed ``repro.obs.emit``."""
    from repro.obs import EVENTS
    from repro.obs.exporters import _prom_name

    declared = {_prom_name(name, "_total" if ev.kind == "counter" else "")
                for name, ev in EVENTS.items() if ev.kind is not None}
    families = {line.split()[2] for line in metrics_text.splitlines()
                if line.startswith("# TYPE ")}
    return sorted(families - declared)


def run_smoke(size: int, workers: int, trace_out: str) -> int:
    from repro.obs import (
        Tracer,
        get_metrics,
        reset_metrics,
        validate_chrome_trace,
        validate_prometheus_text,
        write_chrome_trace,
    )
    from repro.obs.exporters import to_chrome_trace
    from repro.obs.quantiles import GROWTH
    from repro.serve import SatService, run_closed_loop

    reset_metrics()
    imgs = _images(4, size)
    tracer = Tracer()
    # A loose latency threshold keeps the SLO leg deterministic on slow CI
    # runners; the availability/coalesce objectives use the defaults.
    with SatService(workers=workers, max_delay_s=0.005, tracer=tracer,
                    slo={"latency_threshold_us": 1_000_000.0}) as svc:
        _verify_identity(svc, imgs)
        reset_metrics()  # quantile cross-check covers the load phase only
        rep = run_closed_loop(svc, imgs[:1], clients=6, requests_per_client=6)
        metrics_text = _scrape_metrics(svc)
        stats = svc.stats()
    print(f"smoke: {json.dumps(rep.to_dict())}")
    if rep.n_errors:
        print(f"FAIL: {rep.n_errors} request(s) errored")
        return 1
    if rep.coalesce_ratio <= 0.5:
        print(f"FAIL: same-shape coalesce ratio {rep.coalesce_ratio:.1%} "
              f"<= 50%")
        return 1

    # Live /metrics must be valid Prometheus text with populated latency
    # buckets.
    problems = validate_prometheus_text(metrics_text)
    if problems:
        print(f"FAIL: /metrics problems: {problems}")
        return 1
    if "serve_request_latency_us_bucket" not in metrics_text:
        print("FAIL: /metrics is missing serve_request_latency_us buckets")
        return 1
    undeclared = _undeclared_families(metrics_text)
    if undeclared:
        print(f"FAIL: /metrics families outside the event table: "
              f"{undeclared}")
        return 1

    # Bucketed telemetry must agree with the load generator's exact
    # percentiles to within one log-bucket width (~19% by construction).
    quant = stats["latency_quantiles"]["request_latency_us"]
    for p in ("p50", "p95", "p99"):
        exact_us = rep.latency_ms[p] * 1e3
        est_us = quant[p]
        if not exact_us / (GROWTH * 1.05) <= est_us <= exact_us * GROWTH * 1.05:
            print(f"FAIL: bucketed {p}={est_us:.1f}us vs loadgen "
                  f"{exact_us:.1f}us (beyond one bucket width)")
            return 1

    # Every response decomposes its wall latency exactly.
    slo_state = stats.get("slo", {}).get("state")
    if slo_state not in ("ok", "warning"):
        print(f"FAIL: smoke SLO state {slo_state!r}")
        return 1

    # The merged multi-request trace: complete span trees from every
    # client thread plus the serve.batch spans linking coalesced requests.
    trace = to_chrome_trace(tracer)
    problems = validate_chrome_trace(trace)
    if problems:
        print(f"FAIL: trace problems: {problems}")
        return 1
    n_req = sum(1 for s in tracer.spans if s.name == "serve.request")
    n_links = sum(len(s.links) for s in tracer.spans
                  if s.name == "serve.batch")
    if n_req < 36 or n_links < n_req:
        print(f"FAIL: expected >=36 request spans each linked from a batch "
              f"span, got {n_req} spans / {n_links} links")
        return 1
    write_chrome_trace(trace_out, tracer)
    print(f"smoke: wrote {trace_out} ({n_req} request spans, "
          f"{n_links} batch links, slo={slo_state})")
    print(f"smoke: bucketed p95={quant['p95'] / 1e3:.2f}ms vs "
          f"loadgen p95={rep.latency_ms['p95']:.2f}ms")
    print("smoke OK")
    return 0


def run_full(size: int, workers: int, n_shapes: int, rates, clients_sweep,
             n_requests: int, max_delay_ms: float) -> int:
    from repro.obs import reset_metrics
    from repro.serve import SatService, run_closed_loop, run_open_loop

    imgs = _images(n_shapes, size)
    closed_rows, open_rows = [], []

    with SatService(workers=workers, max_delay_s=max_delay_ms / 1e3) as svc:
        _verify_identity(svc, imgs)
        svc.sat_batch(imgs, timeout=120)    # warm every bucket's plan

        for clients in clients_sweep:
            reset_metrics()
            rep = run_closed_loop(
                svc, imgs, clients=clients,
                requests_per_client=max(4, n_requests // clients),
            )
            closed_rows.append(rep.to_dict())
            print(f"closed clients={clients}: "
                  f"{rep.throughput_rps:.0f} req/s "
                  f"p95={rep.latency_ms.get('p95', 0):.2f}ms "
                  f"coalesce={rep.coalesce_ratio:.0%}")

        for rate in rates:
            reset_metrics()
            rep = run_open_loop(svc, imgs, rate_rps=rate,
                                n_requests=n_requests)
            open_rows.append(rep.to_dict())
            print(f"open rate={rate:.0f}/s: achieved "
                  f"{rep.throughput_rps:.0f} req/s "
                  f"p50={rep.latency_ms.get('p50', 0):.2f}ms "
                  f"p95={rep.latency_ms.get('p95', 0):.2f}ms "
                  f"p99={rep.latency_ms.get('p99', 0):.2f}ms")

        # Headline coalescing figure: a same-shape closed-loop stream.
        reset_metrics()
        same = run_closed_loop(svc, imgs[:1], clients=8,
                               requests_per_client=8)

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "test": "bench_serve",
        "size": [size, size],
        "pair": "8u32s",
        "algorithm": "brlt_scanrow",
        "workers": workers,
        "n_shapes": n_shapes,
        "max_delay_ms": max_delay_ms,
        "closed": closed_rows,
        "open": open_rows,
        "coalesce_ratio": round(same.coalesce_ratio, 4),
        "mean_batch_size": round(same.mean_batch_size, 3),
        "p95_ms": round(same.latency_ms.get("p95", 0.0), 4),
        "p99_ms": round(same.latency_ms.get("p99", 0.0), 4),
        "throughput_rps": round(same.throughput_rps, 1),
        "outputs_identical": True,
    }
    _append_bench_entry(entry)
    print(json.dumps(entry, indent=2))

    ok = (same.n_errors == 0
          and entry["coalesce_ratio"] > 0.5
          and len(open_rows) >= 3
          and all(r["n_errors"] == 0 for r in closed_rows + open_rows))
    print("PASS" if ok else "FAIL: serving targets not met")
    return 0 if ok else 1


def main(argv=None) -> int:
    _repo_src()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="fast CI check: bit-identity + coalesce ratio > 0.5")
    ap.add_argument("--size", type=int, default=128)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--n-shapes", type=int, default=3,
                    help="distinct image shapes in the mixed workload")
    ap.add_argument("--rates", type=float, nargs="+",
                    default=[100.0, 300.0, 900.0],
                    help="open-loop arrival rates to sweep (req/s)")
    ap.add_argument("--clients", type=int, nargs="+", default=[2, 8, 16],
                    help="closed-loop client counts to sweep")
    ap.add_argument("--n-requests", type=int, default=96,
                    help="requests per sweep point")
    ap.add_argument("--max-delay-ms", type=float, default=5.0,
                    help="batcher linger: minimum wait of a key's oldest "
                         "request (0 admits on demand)")
    ap.add_argument("--trace-out", default="serve_trace.json",
                    help="smoke: write the merged multi-request Chrome "
                         "trace here")
    args = ap.parse_args(argv)
    if args.smoke:
        return run_smoke(args.size, args.workers, args.trace_out)
    return run_full(args.size, args.workers, args.n_shapes, args.rates,
                    args.clients, args.n_requests, args.max_delay_ms)


if __name__ == "__main__":
    raise SystemExit(main())
