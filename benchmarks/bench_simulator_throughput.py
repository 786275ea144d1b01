"""Host-side throughput of the simulator itself (not a paper figure).

Wall-clock cost of simulating one BRLT-ScanRow SAT at the calibration
size — the quantity that bounds how fast the Fig. 6/7 sweeps regenerate.
pytest-benchmark's statistics apply directly here.

Each run also appends a row to ``BENCH_simulator.json`` at the repo root
(best-of-3 wall time of the register-bank kernel body), so the
simulator's own performance history survives across commits and the CI
smoke run can track regressions.
"""

import json
import pathlib
import time

import numpy as np

from repro.sat.brlt_scanrow import sat_brlt_scanrow
from repro.sat.naive import sat_reference
from repro.workloads import random_matrix

BENCH_LOG = pathlib.Path(__file__).resolve().parent.parent / "BENCH_simulator.json"


def _append_bench_entry(entry: dict) -> None:
    history = []
    if BENCH_LOG.exists():
        try:
            history = json.loads(BENCH_LOG.read_text())
        except json.JSONDecodeError:
            history = []
    history.append(entry)
    BENCH_LOG.write_text(json.dumps(history, indent=2) + "\n")


def _best_of(fn, rounds: int = 3) -> float:
    fn()  # warm-up (caches, numpy buffers)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_simulate_512_brlt_scanrow(benchmark):
    img = random_matrix((512, 512), "32f", seed=0)
    run = benchmark.pedantic(
        lambda: sat_brlt_scanrow(img, pair="32f32f"), rounds=3, iterations=1)
    np.testing.assert_allclose(run.output, sat_reference(img, "32f32f"),
                               rtol=1e-4, atol=1e-2)

    wall_s = _best_of(
        lambda: sat_brlt_scanrow(img, pair="32f32f", backend="gpusim"))
    _append_bench_entry({
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "test": "test_simulate_512_brlt_scanrow",
        "size": [512, 512],
        "pair": "32f32f",
        "device": "P100",
        # Key named for the register-bank path; kept so repro.obs.regress
        # compares against the recorded history.
        "fused_s": round(wall_s, 6),
    })


def test_host_reference_1k(benchmark):
    img = random_matrix((1024, 1024), "8u", seed=0)
    out = benchmark(lambda: sat_reference(img, "8u32s"))
    assert out.shape == img.shape and out.dtype == np.int32
    assert out[-1, -1] == np.int64(img.sum()).astype(np.int32)
