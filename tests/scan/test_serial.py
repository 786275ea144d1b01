"""Alg. 2 serial scan on the register cache."""

import numpy as np
import pytest

from repro.gpusim.block import KernelContext
from repro.gpusim.device import P100
from repro.scan.serial import serial_scan_registers


@pytest.fixture
def ctx():
    return KernelContext(P100, grid=1, block=32)


def make_regs(ctx, n=32, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 100, size=(n, 32)).astype(np.int64)
    regs = [ctx.from_array(np.broadcast_to(v, ctx.shape).copy()) for v in vals]
    return regs, vals


def test_inclusive_scan_across_registers(ctx):
    regs, vals = make_regs(ctx)
    out = serial_scan_registers(ctx, regs)
    expect = np.cumsum(vals, axis=0)
    for i in (0, 1, 15, 31):
        np.testing.assert_array_equal(out[i].a[0, 0], expect[i])


def test_n_minus_one_adds_per_lane(ctx):
    regs, _ = make_regs(ctx)
    serial_scan_registers(ctx, regs)
    assert ctx.counters.adds == 31 * 32  # N_scan_col_add for one warp


def test_no_shuffles_no_smem(ctx):
    """The whole point of Sec. IV-B: zero inter-thread communication."""
    regs, _ = make_regs(ctx)
    serial_scan_registers(ctx, regs)
    assert ctx.counters.shuffles == 0
    assert ctx.counters.smem_transactions == 0
    assert ctx.counters.sync_count == 0


def test_carry_added_to_first_element(ctx):
    regs, vals = make_regs(ctx)
    carry = ctx.const(1000, np.int64)
    out = serial_scan_registers(ctx, regs, carry=carry)
    expect = np.cumsum(vals, axis=0) + 1000
    np.testing.assert_array_equal(out[31].a[0, 0], expect[31])


def test_input_registers_not_mutated(ctx):
    regs, vals = make_regs(ctx)
    serial_scan_registers(ctx, regs)
    np.testing.assert_array_equal(regs[1].a[0, 0], vals[1])


def test_single_register_is_noop(ctx):
    regs, vals = make_regs(ctx, n=1)
    out = serial_scan_registers(ctx, regs)
    np.testing.assert_array_equal(out[0].a[0, 0], vals[0])
    assert ctx.counters.adds == 0


def test_latency_chain_matches_eq5(ctx):
    """Eq. 5: L_scan_col = 31 * add latency = 186 clocks on P100."""
    regs, _ = make_regs(ctx)
    before = ctx.counters.chain_clocks
    serial_scan_registers(ctx, regs)
    assert ctx.counters.chain_clocks - before == 31 * P100.add_latency
