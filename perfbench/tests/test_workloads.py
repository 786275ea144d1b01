from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import oracle
from perfbench.workloads import BulkLarge, Measurement

SHAPE = (8, 8)


def _bulk_large(sat):
    """A ``bulk_large`` loop over one tiny integer image and a stack of two
    tiny float images, calling ``sat`` for the first."""
    wl = BulkLarge(seed=1, seconds=30.0)
    wl.big = np.arange(64, dtype=np.uint8).reshape(SHAPE)
    wl.stack = np.ones((2,) + SHAPE, dtype=np.float32)
    wl.big_ref = oracle.int_reference(wl.big)
    wl.stack_refs = [oracle.float64_reference(im).astype(np.float32)
                     for im in wl.stack]
    wl.axis_big = wl.axis_stack = 0
    wl.sat = sat
    wl.sat_batch = lambda stack, **kwargs: SimpleNamespace(
        outputs=list(wl.stack_refs), runs=[])
    return wl


def test_a_wrong_output_ends_the_run_and_counts_as_failed():
    calls = []

    def sat(image, **kwargs):
        calls.append(kwargs)
        out = wl.big_ref.copy()
        if len(calls) == 3:
            out[2, 3] += 1
        return SimpleNamespace(output=out, launches=[])

    wl = _bulk_large(sat)
    meas = Measurement()
    with pytest.raises(oracle.OracleError, match=r"\(2, 3\)"):
        wl.measure(meas)
    assert (meas.attempted, meas.failed, len(meas.ops)) == (3, 1, 2)


def test_an_op_that_raises_ends_the_run_and_counts_as_failed():
    def sat(image, **kwargs):
        raise RuntimeError("kernel failed")

    wl = _bulk_large(sat)
    meas = Measurement()
    with pytest.raises(RuntimeError, match="kernel failed"):
        wl.measure(meas)
    assert (meas.attempted, meas.failed) == (1, 1)
