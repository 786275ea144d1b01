"""Golden modeled numbers of batched execution.

Every ``sat_batch`` figure that is modeled rather than measured — the
batched and sequential modeled times, plan hits and misses, effective
GB/s, per-image ``time_us`` — is a pure function of launch geometry, so
it is pinned here exactly, for every way a warm bucket can execute: the
three paper kernels x {``8u32s``, ``32f32f``} x batch depths {1, 3, 8}
on a ragged 70x45 shape, run on ``gpusim``, on ``compiled`` (an alias
that resolves to ``gpusim``, so its cases equal the ``gpusim`` ones) and
on ``gpusim`` with bounds checks.  Each case records the first call on a
fresh engine (one cold image, the rest warm) and a second, fully warm
call.  To regenerate after an intentional model change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/engine/test_batch_modeled_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.engine import Engine
from repro.exec.config import ExecutionConfig, execution
from repro.sat.api import PAPER_ALGORITHMS

from ..helpers import make_image

GOLDEN = Path(__file__).parent.parent / "golden" / "batch_modeled.json"
SHAPE = (70, 45)
PAIRS = ("8u32s", "32f32f")
DEPTHS = (1, 3, 8)
#: ``(label, backend, bounds_check)`` of each warm execution mode.
MODES = (
    ("gpusim", "gpusim", False),
    ("compiled", "compiled", False),
    ("gpusim_bounds_check", "gpusim", True),
)
#: Host wall-clock fields: everything else in ``BatchRun.to_dict()`` is modeled.
WALL_KEYS = ("wall_s", "wall_images_per_s")


def _record(run) -> dict:
    d = {k: v for k, v in run.to_dict().items() if k not in WALL_KEYS}
    d["time_us"] = [r.time_us for r in run.runs]
    return d


def _case(algo: str, pair: str, depth: int, backend: str,
          bounds_check: bool) -> dict:
    imgs = [make_image(SHAPE, pair, seed=i) for i in range(depth)]
    eng = Engine()
    # sanitize pinned off (the sanitized profile would loop per image).
    with execution(ExecutionConfig(sanitize=False, bounds_check=bounds_check,
                                   backend=backend, device="P100")):
        first = eng.run_batch(imgs, pair=pair, algorithm=algo)
        warm = eng.run_batch(imgs, pair=pair, algorithm=algo)
    return {"first": _record(first), "warm": _record(warm)}


def current() -> dict:
    out = {}
    for algo in sorted(PAPER_ALGORITHMS):
        for pair in PAIRS:
            for depth in DEPTHS:
                for label, backend, bc in MODES:
                    out[f"{algo}/{pair}/d{depth}/{label}"] = _case(
                        algo, pair, depth, backend, bc)
    # JSON round-trip: tuples become lists, floats keep their repr.
    return json.loads(json.dumps(out))


def test_batch_modeled_numbers_match_golden():
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
            f"modeled batch numbers drifted for {case}; if intentional, "
            f"regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
        )
