"""Golden sharded outputs: exact bits and modeled schedule per case.

For every dtype pair on a ragged 70x90 image cut into 32x48 tiles (a 3x2
grid with ragged bottom and right tiles), on the ``2xP100`` and
``P100,V100`` device sets and the ``gpusim``, ``compiled`` (an alias of
``gpusim``) and ``host`` backends, the sharded output's sha256, dtype
and shape are pinned
together with the run report's modeled fields: makespan, busy times,
overlap, retries, D2D copies and lookback statistics.

Float pairs are pinned bit for bit here: the carry fix-up's association
order ``(local + left) + top`` is part of the contract, which the
tolerance check in ``test_carry_correctness.py`` cannot see.  To
regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/shard/test_shard_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.dtypes import TYPE_PAIRS
from repro.shard import sharded_sat

from ..helpers import make_image

GOLDEN = Path(__file__).parent.parent / "golden" / "shard_outputs.json"
SHAPE = (70, 90)
TILE = (32, 48)
DEVICE_SETS = ("2xP100", "P100,V100")
BACKENDS = ("gpusim", "compiled", "host")
#: Modeled fields of the run report pinned per case.
REPORT_KEYS = ("makespan_s", "kernel_busy_s", "carry_busy_s", "copy_busy_s",
               "per_device", "overlap_s", "retries", "d2d_ops", "lookback")


def _case(pair: str, devices: str, backend: str) -> dict:
    img = make_image(SHAPE, pair, seed=0)
    run = sharded_sat(img, pair=pair, backend=backend,
                      shard={"tile_shape": TILE, "devices": devices})
    out = np.ascontiguousarray(run.output)
    return {
        "sha256": hashlib.sha256(out.tobytes()).hexdigest(),
        "dtype": str(out.dtype),
        "shape": list(out.shape),
        "report": {k: run.report[k] for k in REPORT_KEYS},
    }


def current() -> dict:
    out = {}
    for pair in sorted(TYPE_PAIRS):
        for devices in DEVICE_SETS:
            for backend in BACKENDS:
                out[f"{pair}/{devices}/{backend}"] = _case(
                    pair, devices, backend)
    # JSON round-trip: tuples become lists, floats keep their repr.
    return json.loads(json.dumps(out))


def test_sharded_outputs_match_golden():
    got = current()
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN.name}")
    assert GOLDEN.exists(), (
        f"missing {GOLDEN}; run with REPRO_REGEN_GOLDEN=1 to create"
    )
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    for case in want:
        assert got[case] == want[case], (
            f"sharded output or schedule drifted for {case}; if intentional, "
            f"regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
        )
