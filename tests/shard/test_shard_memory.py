"""Memory guard: a warm sharded call holds its output plus the working
sets of the tiles running at once, whatever the engine pool's size.

Each tile computes into its slice of the output through the engine's
``out=`` destination.  A float tile's carries then apply in place as two
broadcast adds; an integer tile's carries are folded into its scan.  So
while the call runs it holds the output plus the working set of each
running tile (docs/sharding.md), and afterwards only the output (plus
the small edge and carry vectors).  Keeping the un-carried tiles, or
building full-tile temporaries for each carry, shows up here as a
second copy of the output.  A warm aligned integer grid needs no
tile-sized working set at all: its lowered scans run in the output
slices, so its peak is held to a tighter bound.

The executor runs tiles at once only as far as their working sets,
counted at ``TILE_WORKING_SET`` times a tile's bytes each, fit in the
output's bytes, so the general cases hold the same bound on a pool of
1, 2 or 8 threads.  With 8 threads and no such budget, the warm
``gpusim`` 384x320 ``32f32f`` grid peaked at 1.77x to 2.15x the output's
bytes; with it, at 1.42x to 1.66x over 15 runs (2-vCPU host).

Bytes are counted with ``tracemalloc`` (NumPy reports its buffers to
it), so the guard does not depend on host speed.  The sanitizer and
bounds checks are pinned off: they keep per-launch shadow buffers that
have nothing to do with the executor, and they keep ``gpusim`` tiles on
the interpreter, whose buffers would dominate a small tile's peak.  The
measured ``gpusim`` call is warm, so its tiles run lowered programs.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc

import pytest

from repro.engine import pool
from repro.exec.config import ExecutionConfig
from repro.shard import executor, sharded_sat

from ..helpers import make_image

#: ``(image shape, pair, tile shape)``: a 4x4 grid of square tiles, and
#: a 3x4 grid of non-square tiles with a float accumulator.
CASES = (
    ((512, 512), "8u32s", (128, 128)),
    ((384, 320), "32f32f", (128, 96)),
)
#: Bytes still allocated after the call, as a multiple of the output's.
MAX_RETAINED = 1.25
#: Peak bytes allocated during the call, as a multiple of the output's.
MAX_PEAK = 2.0
#: Pool sizes the general cases run at.
POOL_PARTS = (1, 2, 8)
#: An aligned ``8u32s`` grid on ``gpusim``: every warm tile runs in place.
IN_PLACE_CASE = ((4096, 4096), "8u32s", (1024, 1024))
#: Its peak, as a multiple of the output's bytes: measured 1.008x, and
#: 1.065x when each tile was copied out of a staging buffer.
MAX_PEAK_IN_PLACE = 1.02


def _warm_call_bytes(shape, pair, tile, backend):
    """``(retained, peak)`` bytes of a warm sharded call, as multiples
    of its output's bytes."""
    img = make_image(shape, pair, seed=0)
    config = ExecutionConfig(sanitize=False, bounds_check=False)

    def call():
        return sharded_sat(img, pair=pair, backend=backend, config=config,
                           shard={"tile_shape": tile, "devices": "2xP100"})

    call()  # warm: plan caches, compiled programs, metric series
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = call()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out_bytes = run.output.nbytes
    return (current - base) / out_bytes, (peak - base) / out_bytes


@pytest.fixture
def pool_of(monkeypatch):
    """Run the engine pool with ``n`` threads (``n == 1``: inline); the
    pool builds itself at that size on first use."""
    resized = []

    def pool_of(n):
        monkeypatch.setattr(pool, "parts", lambda: n)
        monkeypatch.setattr(pool, "_pool", None)
        resized.append(n)
    yield pool_of
    if resized and pool._pool is not None:
        pool._pool.shutdown(wait=True)


@pytest.mark.parametrize("parts", POOL_PARTS)
@pytest.mark.parametrize("backend", ["host", "gpusim"])
@pytest.mark.parametrize("shape,pair,tile", CASES)
def test_warm_sharded_call_holds_output_plus_one_tile(pool_of, shape, pair,
                                                      tile, backend, parts):
    pool_of(parts)
    retained, peak = _warm_call_bytes(shape, pair, tile, backend)
    assert retained <= MAX_RETAINED, (
        f"a warm sharded call retains {retained:.2f}x its output's bytes")
    assert peak <= MAX_PEAK, (
        f"a warm sharded call peaks at {peak:.2f}x its output's bytes")


def test_warm_aligned_integer_call_runs_in_place():
    retained, peak = _warm_call_bytes(*IN_PLACE_CASE, backend="gpusim")
    assert retained <= MAX_RETAINED, (
        f"a warm sharded call retains {retained:.2f}x its output's bytes")
    assert peak <= MAX_PEAK_IN_PLACE, (
        f"a warm aligned integer sharded call peaks at {peak:.3f}x its "
        f"output's bytes")


def test_running_tiles_fit_the_memory_budget(monkeypatch, pool_of):
    """However many threads the pool has, no more tiles run at once
    than their working-set counts fit in the output's bytes; float tiles
    all start ready, so that many do run at once."""
    pool_of(8)
    (shape, pair, tile), = [c for c in CASES if c[1] == "32f32f"]
    budget = (shape[0] * shape[1]) // (
        executor.TILE_WORKING_SET * tile[0] * tile[1])
    lock = threading.Lock()
    running, most = [0], [0]
    real = executor.run_single

    def spy(image, **kwargs):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        try:
            time.sleep(0.05)
            return real(image, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(executor, "run_single", spy)
    img = make_image(shape, pair, seed=0)
    run = sharded_sat(img, pair=pair, backend="host",
                      config=ExecutionConfig(sanitize=False,
                                             bounds_check=False),
                      shard={"tile_shape": tile, "devices": "2xP100"})
    assert run.report["n_tiles"] == 12 and budget == 3
    assert 2 <= most[0] <= budget
