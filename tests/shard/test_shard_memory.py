"""Memory guard: a warm sharded call holds its output plus about one tile.

Each tile computes into its slice of the output through the engine's
``out=`` destination.  A float tile's carries then apply in place as two
broadcast adds; an integer tile's carries are folded into its scan.  So
while the call runs it holds the output plus one tile's working set, and
afterwards only the output (plus the small edge and carry vectors).
Keeping the un-carried tiles, or building full-tile temporaries for each
carry, shows up here as a second copy of the output.  A warm aligned
integer grid needs no tile-sized working set at all: its lowered scans
run in the output slices, so its peak is held to a tighter bound.

Bytes are counted with ``tracemalloc`` (NumPy reports its buffers to
it), so the guard does not depend on host speed.  The sanitizer and
bounds checks are pinned off: they keep per-launch shadow buffers that
have nothing to do with the executor, and they keep ``gpusim`` tiles on
the interpreter, whose buffers would dominate a small tile's peak.  The
measured ``gpusim`` call is warm, so its tiles run lowered programs.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.exec.config import ExecutionConfig
from repro.shard import sharded_sat

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


@pytest.mark.parametrize("backend", ["host", "gpusim"])
@pytest.mark.parametrize("shape,pair,tile", CASES)
def test_warm_sharded_call_holds_output_plus_one_tile(shape, pair, tile,
                                                      backend):
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
