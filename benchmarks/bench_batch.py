"""Throughput of the batched execution engine vs. looped interpreted calls.

Measures the tentpole claim of the engine: a batch of repeated-shape
images through ``sat_batch`` must beat per-image interpreted runs (the
algorithm's driver, which interprets every call) by >= 2x
in both modeled GPU throughput (launch-overhead amortisation across the
stacked grid) and host wall clock (plan reuse + warm buckets running
their lowered program), with bit-identical per-image outputs, counters
and timings.  The warm batch must also beat the looped driver calls 5x in
wall clock.

Run directly::

    python benchmarks/bench_batch.py            # full measurement
    python benchmarks/bench_batch.py --smoke    # CI smoke: fast, asserts
                                                # plan-cache hit rate >= 0.9

Both modes take ``--pair`` (images in its input dtype).  The full run
appends a row to ``BENCH_batch.json`` at the repo root so the engine's
performance history survives across commits.
"""

import argparse
import dataclasses
import json
import pathlib
import sys
import time

import numpy as np

BENCH_LOG = pathlib.Path(__file__).resolve().parent.parent / "BENCH_batch.json"


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


def _check_identical(batch_runs, solo_runs) -> None:
    for rb, rs in zip(batch_runs, solo_runs):
        assert np.array_equal(rb.output, rs.output), "batch output drifted"
        for sb, ss in zip(rb.launches, rs.launches):
            assert sb.counters.as_dict() == ss.counters.as_dict(), (
                f"batch counters drifted in {sb.name}")
            assert dataclasses.asdict(sb.timing) == dataclasses.asdict(
                ss.timing), f"batch timing drifted in {sb.name}"


def _images(n: int, size: int, pair: str) -> list:
    """``n`` seeded ``size``-square images in ``pair``'s input dtype:
    bytes for integer inputs, [0, 1) floats for float inputs."""
    from repro.dtypes import parse_pair

    dtype = parse_pair(pair).input.np_dtype
    rng = np.random.default_rng(0)
    if np.issubdtype(dtype, np.integer):
        return [rng.integers(0, 256, (size, size)).astype(dtype)
                for _ in range(n)]
    return [rng.random((size, size)).astype(dtype) for _ in range(n)]


def run_smoke(algorithm: str, device: str, pair: str = "8u32s") -> int:
    from repro.engine import Engine
    from repro.sat.api import ALGORITHMS

    imgs = _images(32, 128, pair)
    eng = Engine()
    run = eng.run_batch(imgs, pair=pair, algorithm=algorithm, device=device)
    # The driver interprets every call, where sat() would run a warm
    # bucket's lowered program.
    solo = [ALGORITHMS[algorithm](im, pair=pair, device=device)
            for im in imgs[:4]]
    _check_identical(run.runs[:4], solo)
    print(f"smoke: {run.summary()}")
    if run.plan_hit_rate < 0.9:
        print(f"FAIL: plan-cache hit rate {run.plan_hit_rate:.1%} < 90%")
        return 1
    if run.speedup_vs_sequential <= 1.0:
        print("FAIL: batched modeled time not faster than sequential")
        return 1
    print("smoke OK")
    return 0


def run_full(n_images: int, size: int, algorithm: str, pair: str,
             device: str) -> int:
    from repro.engine import Engine
    from repro.sat.api import ALGORITHMS

    imgs = _images(n_images, size, pair)

    t0 = time.perf_counter()
    solo = [ALGORITHMS[algorithm](im, pair=pair, device=device)
            for im in imgs]
    wall_seq = time.perf_counter() - t0

    eng = Engine()
    run = eng.run_batch(imgs, pair=pair, algorithm=algorithm, device=device)
    _check_identical(run.runs, solo)

    # Warm pass: plan cache and lowered programs fully populated.
    warm = eng.run_batch(imgs, pair=pair, algorithm=algorithm, device=device)
    _check_identical(warm.runs, solo)

    # One metric formatter for bench entries, exporters and the regression
    # checker: BatchRun.to_dict() (key names are part of the history format).
    metrics = run.to_dict()
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "test": "bench_batch",
        "n_images": metrics["n_images"],
        "size": [size, size],
        "pair": metrics["pair"],
        "algorithm": metrics["algorithm"],
        "device": metrics["device"],
        "wall_sequential_s": round(wall_seq, 4),
        "wall_batch_cold_s": round(metrics["wall_s"], 4),
        "wall_batch_warm_s": round(warm.to_dict()["wall_s"], 4),
        "wall_speedup_cold": round(wall_seq / run.wall_s, 3),
        "wall_speedup_warm": round(wall_seq / warm.wall_s, 3),
        "modeled_sequential_s": metrics["modeled_sequential_s"],
        "modeled_batched_s": metrics["modeled_batched_s"],
        "modeled_speedup": round(metrics["speedup_vs_sequential"], 3),
        "images_per_s_modeled": round(metrics["images_per_s_modeled"], 1),
        "effective_gbps_modeled": round(metrics["effective_gbps"], 1),
        "plan_hit_rate": round(metrics["plan_hit_rate"], 4),
        "outputs_identical": True,
    }
    _append_bench_entry(entry)
    print(json.dumps(entry, indent=2))

    ok = (entry["wall_speedup_cold"] >= 2.0
          and entry["wall_speedup_warm"] >= 5.0
          and entry["modeled_speedup"] >= 2.0
          and entry["plan_hit_rate"] >= 0.9)
    print("PASS" if ok else "FAIL: below the batched-throughput target")
    return 0 if ok else 1


def main(argv=None) -> int:
    _repo_src()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="fast CI check: hit rate >= 0.9 and modeled speedup")
    ap.add_argument("--n-images", type=int, default=64)
    ap.add_argument("--size", type=int, default=512)
    ap.add_argument("--algorithm", default="brlt_scanrow")
    ap.add_argument("--pair", default="8u32s")
    ap.add_argument("--device", default="P100")
    args = ap.parse_args(argv)
    if args.smoke:
        return run_smoke(args.algorithm, args.device, args.pair)
    return run_full(args.n_images, args.size, args.algorithm, args.pair,
                    args.device)


if __name__ == "__main__":
    raise SystemExit(main())
