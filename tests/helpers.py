"""Shared helpers importable from any test module."""

from __future__ import annotations

import collections
import sys

import numpy as np

from repro.dtypes import parse_pair


def make_image(shape, pair, seed=0):
    """Random image matching the input type of ``pair``."""
    tp = parse_pair(pair)
    r = np.random.default_rng(seed)
    if tp.input.is_integer:
        info = np.iinfo(tp.input.np_dtype)
        lo = 0 if info.min == 0 else -100
        hi = min(int(info.max), 255) + 1
        return r.integers(lo, hi, size=shape).astype(tp.input.np_dtype)
    return r.standard_normal(shape).astype(tp.input.np_dtype)


def assert_sat_equal(got, want, pair):
    """Bit-exact for integer accumulators, tolerant for floats."""
    tp = parse_pair(pair)
    assert got.shape == want.shape
    if tp.output.is_integer:
        np.testing.assert_array_equal(got, want)
    else:
        rtol = 1e-4 if tp.output.name == "32f" else 1e-10
        np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-2)


def count_resolves(monkeypatch) -> collections.Counter:
    """Count ``resolve_execution`` calls by the package module that made
    them: every ``repro`` module binding the function gets a counting
    wrapper, so a call through any import spelling is seen."""
    from repro.exec import config as config_mod

    real = config_mod.resolve_execution
    calls = collections.Counter()

    def wrapper_for(module_name):
        def counting(*args, **kwargs):
            calls[module_name] += 1
            return real(*args, **kwargs)
        return counting

    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(mod, "resolve_execution", None) is real):
            monkeypatch.setattr(mod, "resolve_execution", wrapper_for(name))
    return calls
