"""Differential testing of the lowered programs against the interpreter.

Engine runs must be indistinguishable from the interpreter in data: cold
calls *are* interpreted runs, and warm calls execute the lowered
program — so outputs must match a fresh interpreted run of the
algorithm's driver **bit for bit**, including float pairs, where the
lowered programs reproduce the kernels' exact addition association (and
integer pairs, where the compiler's whole-axis strength reduction relies
on modular addition being associative).  The pure-NumPy ``host``
backend closes the three-way check.

References always come from the drivers, which interpret on every call
and never touch a plan cache.  ``sat()`` calls share the default
engine's cache, so the first call per shape bucket is cold (records +
lowers) and later calls run the lowered program — every Hypothesis
example after the first exercises the warm path too.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.engine.batch import Engine
from repro.gpusim import launch as launch_mod
from repro.obs import get_metrics
from repro.sat.api import PAPER_ALGORITHMS, sat
from repro.scan import WARP_SCANS

from ..helpers import assert_sat_equal, make_image


@pytest.fixture(scope="module", autouse=True)
def _no_sanitize():
    """Pin the sanitizer off (env beats profile in the resolution order).

    Under the ``sanitized`` execution profile every call runs cold on the
    interpreter by design, so the runs this module asserts on would
    never be lowered.  Module-scoped so the Hypothesis
    function-scoped-fixture health check stays quiet.
    """
    old = os.environ.get("REPRO_GPUSIM_SANITIZE")
    os.environ["REPRO_GPUSIM_SANITIZE"] = "0"
    yield
    if old is None:
        del os.environ["REPRO_GPUSIM_SANITIZE"]
    else:
        os.environ["REPRO_GPUSIM_SANITIZE"] = old


ALGOS = sorted(PAPER_ALGORITHMS)
#: One pair per input dtype class: uint8, int32, float32, float64.
PAIRS = ["8u32s", "32s32s", "32f32f", "64f64f"]

shapes = st.tuples(st.integers(1, 80), st.integers(1, 80))


def _bits(run):
    return np.ascontiguousarray(run.output).tobytes()


@pytest.mark.parametrize("algo", ALGOS)
@given(shape=shapes, pair=st.sampled_from(PAIRS))
@example(shape=(1, 1), pair="8u32s")
@example(shape=(33, 31), pair="32s32s")
@example(shape=(31, 65), pair="32f32f")
@example(shape=(64, 1), pair="64f64f")
def test_three_way_differential(algo, shape, pair):
    """The engine (cold and warm) vs the interpreting driver vs host on
    random shapes."""
    img = make_image(shape, pair, seed=shape[0] * 97 + shape[1])
    g = PAPER_ALGORITHMS[algo](img, pair=pair)
    cold = sat(img, pair=pair, algorithm=algo, backend="gpusim")
    warm = sat(img, pair=pair, algorithm=algo, backend="gpusim")
    h = sat(img, pair=pair, algorithm=algo, backend="host")
    for c in (cold, warm):
        assert c.backend == "gpusim"
        assert c.output.dtype == g.output.dtype
        assert c.output.shape == g.output.shape
        assert _bits(c) == _bits(g)
        # Counters/timings are recorded (cold) or cloned (warm) from the
        # interpreted launch — never missing, never different.
        assert len(c.launches) == len(g.launches)
        assert c.time_us == pytest.approx(g.time_us)
    if pair in ("8u32s", "32s32s"):
        np.testing.assert_array_equal(h.output, g.output)
    else:
        assert_sat_equal(h.output, g.output, pair)


@pytest.mark.parametrize("scan", sorted(WARP_SCANS))
@pytest.mark.parametrize("algo", ["scanrow_brlt", "scan_row_column"])
def test_float_scan_variants_bit_identical(algo, scan, monkeypatch):
    """Every lowered warp-scan emulator, with -0.0 inputs to exercise the
    kernels' zero-add flushing, stays bit-identical to the interpreter
    warm — and the warm run is the lowered program, not the interpreter."""
    img = make_image((70, 45), "32f32f", seed=5).copy()
    img.flat[::7] = -0.0
    g = PAPER_ALGORITHMS[algo](img, pair="32f32f", scan=scan)
    eng = Engine()
    kw = dict(pair="32f32f", algorithm=algo, scan=scan, backend="gpusim")
    cold = eng.run_batch([img], **kw).runs[0]

    contexts = []
    real_ctx = launch_mod.KernelContext

    def counting_ctx(*args, **kwargs):
        contexts.append(kwargs.get("record"))
        return real_ctx(*args, **kwargs)

    monkeypatch.setattr(launch_mod, "KernelContext", counting_ctx)
    hits = get_metrics().counter_total("compile.hit")
    warm = eng.run_batch([img], **kw).runs[0]
    assert contexts == []
    assert get_metrics().counter_total("compile.hit") == hits + 1
    assert warm.backend == "gpusim"
    assert _bits(cold) == _bits(g)
    assert _bits(warm) == _bits(g)


@pytest.mark.parametrize("pair", ["8u32s", "64f64f"])
@pytest.mark.parametrize("algo", ALGOS)
def test_batch_compiled_bit_identical(algo, pair, monkeypatch):
    """Batches (warm images run the lowered program) match interpreted
    solo driver runs per image, bit for bit, with identical modeled
    times."""
    monkeypatch.setenv("REPRO_GPUSIM_SANITIZE", "0")
    imgs = [make_image((50 + i % 3, 40 + i % 2), pair, seed=i)
            for i in range(6)]
    ref = [PAPER_ALGORITHMS[algo](im, pair=pair, backend="gpusim")
           for im in imgs]
    got = Engine().run_batch(imgs, algorithm=algo, pair=pair,
                             backend="gpusim")
    for r, c in zip(ref, got.runs):
        assert c.output.dtype == r.output.dtype
        assert _bits(c) == _bits(r)
        assert c.time_us == pytest.approx(r.time_us)
