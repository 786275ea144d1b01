"""Sharded gigapixel SAT: tiles/s, carry overhead, compute/carry overlap.

Sweeps the :mod:`repro.shard` tiled executor — per-tile local SATs on
simulated devices with decoupled-lookback carry propagation — at the
scales the full-image path cannot hold:

* the 16384 x 16384 gigapixel image (256 tiles of 1024^2 across two
  simulated P100s), reporting tiles/s, carry-propagation overhead as a
  percentage of busy time, the compute/carry overlap fraction, and the
  call's ``tracemalloc`` peak;
* a streamed 1080p series (integral video via the temporal descriptor
  chain), reporting frames/s.

Run directly::

    python benchmarks/bench_shard.py            # full sweep, appends a row
                                                # to BENCH_shard.json
    python benchmarks/bench_shard.py --smoke    # CI smoke: bit-identity,
                                                # single-pass accounting,
                                                # nonzero overlap

Every run asserts the sharded table is bit-identical to the host
full-image reference — sharding is an optimisation, never an observable —
and that the carry pass ran exactly once (``full_sweeps == 0``).  The
regress-comparable headline metrics (top-level ``tiles_per_s`` /
``carry_overhead_frac`` / ``overlap_fraction``) are measured at a fixed
2048^2 geometry so ``repro.obs.regress`` can re-measure them cheaply and
deterministically; the gigapixel and series figures ride along under
``headline`` / ``series``.
"""

import argparse
import json
import pathlib
import sys
import time
import tracemalloc

import numpy as np

BENCH_LOG = pathlib.Path(__file__).resolve().parent.parent / "BENCH_shard.json"


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


def _host_reference(img: np.ndarray) -> np.ndarray:
    """Exact wrapped int32 SAT without the sharded path (and without the
    full-image simulator, which is the expensive part at 16k).

    Accumulates in int32 like the kernels: wraparound addition is
    associative, so the bits equal a wide accumulation cast down, without
    holding int64 copies of a gigapixel image.  Both scans run in place
    on one int32 copy: a casting ``cumsum`` would buffer a second one."""
    rows = img.astype(np.int32)
    np.cumsum(rows, axis=0, out=rows)
    return np.cumsum(rows, axis=1, out=rows)


def _check_single_pass(rep: dict) -> None:
    assert rep["kernel_ops"] == rep["n_tiles"], "extra kernel sweeps"
    assert rep["carry_ops"] == rep["n_tiles"], "extra carry ops"
    assert rep["full_sweeps"] == 0, "a second full-image pass ran"
    assert rep["carry_passes"] == 1, "carry pass ran more than once"


def _sharded(img, tile, devices, config=None):
    from repro.shard import sharded_sat

    return sharded_sat(img, pair="8u32s", config=config,
                       shard={"tile_shape": tuple(tile), "devices": devices,
                              "streams_per_device": 2})


def run_smoke(size: int, tile: int, devices: str) -> int:
    rng = np.random.default_rng(0)
    img = rng.integers(0, 255, size=(size, size), dtype=np.uint8)
    run = _sharded(img, (tile, tile), devices)
    rep = run.report
    _check_single_pass(rep)
    if not np.array_equal(run.output, _host_reference(img)):
        print("FAIL: sharded SAT drifted from host reference")
        return 1
    if rep["overlap_s"] <= 0.0:
        print("FAIL: no compute/carry overlap across devices")
        return 1
    print(f"smoke: grid={rep['grid']} tiles/s={rep['tiles_per_s']:.0f} "
          f"carry_overhead={rep['carry_overhead_frac']:.1%} "
          f"overlap={rep['overlap_fraction']:.1%} "
          f"retries={rep['retries']}")
    print("smoke OK")
    return 0


def _series_sweep(frames: int, shape, devices: str) -> dict:
    from repro.shard import sharded_sat_series

    rng = np.random.default_rng(1)
    imgs = [rng.integers(0, 255, size=shape, dtype=np.uint8)
            for _ in range(frames)]
    run = sharded_sat_series(imgs, pair="8u32s", temporal=True,
                             shard={"devices": devices})
    rep = run.report
    return {
        "frames": frames,
        "shape": list(shape),
        "frames_per_s": round(rep["frames_per_s"], 1),
        "overlap_fraction": round(rep["overlap_fraction"], 4),
        "makespan_s": rep["makespan_s"],
    }


def run_full(big: int, big_tile: int, devices: str, frames: int) -> int:
    t0 = time.perf_counter()

    # Regress-comparable geometry: cheap, deterministic, re-measurable.
    rng = np.random.default_rng(0)
    small = rng.integers(0, 255, size=(2048, 2048), dtype=np.uint8)
    sm = _sharded(small, (512, 512), devices)
    _check_single_pass(sm.report)
    assert np.array_equal(sm.output, _host_reference(small))
    print(f"regress 2048^2: tiles/s={sm.report['tiles_per_s']:.0f} "
          f"overlap={sm.report['overlap_fraction']:.1%}")

    # Gigapixel headline on the gpusim backend: the first tile records
    # its plan, the rest run the lowered program.  The tracemalloc peak is
    # informational (regress reads only the top-level metrics).
    img = rng.integers(0, 255, size=(big, big), dtype=np.uint8)
    tracemalloc.start()
    try:
        run = _sharded(img, (big_tile, big_tile), devices,
                       config={"backend": "gpusim"})
        peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    rep = run.report
    _check_single_pass(rep)
    identical = bool(np.array_equal(run.output, _host_reference(img)))
    print(f"{big}^2: grid={rep['grid']} tiles/s={rep['tiles_per_s']:.0f} "
          f"carry_overhead={rep['carry_overhead_frac']:.1%} "
          f"overlap={rep['overlap_fraction']:.1%} identical={identical} "
          f"peak_alloc={peak_alloc_mb:.0f} MB")

    series = _series_sweep(frames, (1080, 1920), devices)
    print(f"series {frames}x1080p: {series['frames_per_s']:.1f} frames/s "
          f"overlap={series['overlap_fraction']:.1%}")

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "test": "bench_shard",
        "size": [2048, 2048],
        "tile": [512, 512],
        "pair": "8u32s",
        "algorithm": "brlt_scanrow",
        "devices": devices,
        "n_tiles": sm.report["n_tiles"],
        "tiles_per_s": round(sm.report["tiles_per_s"], 1),
        "carry_overhead_frac": round(sm.report["carry_overhead_frac"], 4),
        "overlap_fraction": round(sm.report["overlap_fraction"], 4),
        "headline": {
            "size": [big, big],
            "tile": [big_tile, big_tile],
            "n_tiles": rep["n_tiles"],
            "tiles_per_s": round(rep["tiles_per_s"], 1),
            "carry_overhead_pct": round(100 * rep["carry_overhead_frac"], 2),
            "overlap_fraction": round(rep["overlap_fraction"], 4),
            "makespan_s": rep["makespan_s"],
            "retries": rep["retries"],
            "outputs_identical": identical,
            "peak_alloc_mb": round(peak_alloc_mb, 1),
        },
        "series": series,
        "wall_s": round(time.perf_counter() - t0, 2),
    }
    _append_bench_entry(entry)
    print(json.dumps(entry, indent=2))

    ok = (identical and rep["overlap_s"] > 0
          and series["frames_per_s"] > 0)
    print("PASS" if ok else "FAIL: sharding targets not met")
    return 0 if ok else 1


def main(argv=None) -> int:
    _repo_src()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="fast CI check: bit-identity + single carry pass "
                         "+ nonzero overlap")
    ap.add_argument("--size", type=int, default=512,
                    help="smoke image edge (default 512)")
    ap.add_argument("--tile", type=int, default=128,
                    help="smoke tile edge (default 128)")
    ap.add_argument("--big", type=int, default=16384,
                    help="full-run gigapixel edge (default 16384)")
    ap.add_argument("--big-tile", type=int, default=1024,
                    help="full-run tile edge (default 1024)")
    ap.add_argument("--devices", default="2xP100",
                    help="simulated device set (default 2xP100)")
    ap.add_argument("--frames", type=int, default=16,
                    help="1080p series length (default 16)")
    args = ap.parse_args(argv)
    if args.smoke:
        return run_smoke(args.size, args.tile, args.devices)
    return run_full(args.big, args.big_tile, args.devices, args.frames)


if __name__ == "__main__":
    raise SystemExit(main())
