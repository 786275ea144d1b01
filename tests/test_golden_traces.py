"""Golden-trace regression: pinned cost-model snapshots per algorithm.

For a fixed 128x128 / 32f32f input, every launch's ``CostCounters`` and
``KernelTiming`` must match the JSON snapshot under ``tests/golden/``
**exactly** — the simulator is deterministic, so any drift is a real
change to the cost model and must be reviewed, not absorbed.

:data:`CASES` extends the same snapshot to the P100 calibration size
(1024x1024 32f32f) and to a non-square 160x224 shape in a sub-word (8u32s)
and a sector-straddling (64f64f) pair, and pins each output's sha256,
dtype and shape beside its trace.  :data:`SANITIZED` keeps the sanitizer
report of one sanitized 128x160 run per kernel.  Both run on the
``gpusim`` backend, so every execution profile interprets the kernel
body.

To regenerate after an intentional model change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

then inspect the diff of ``tests/golden/*.json`` in review.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.sat.api import PAPER_ALGORITHMS
from repro.workloads import random_matrix

from .helpers import make_image

GOLDEN_DIR = Path(__file__).parent / "golden"
SHAPE = (128, 128)
PAIR = "32f32f"

#: name -> (shape, pair, input dtype, seed); golden file
#: ``{algo}_{name}.json``.  The 8u input is drawn as 8u rather than cast
#: from floats, whose negative-to-unsigned cast is platform-dependent.
CASES = {
    "1024x1024_32f32f": ((1024, 1024), "32f32f", "32f", 0),
    "160x224_8u32s": ((160, 224), "8u32s", "8u", 1),
    "160x224_64f64f": ((160, 224), "64f64f", "64f", 1),
}
#: Sanitized runs whose ``timing.sanitizer`` report is kept in the trace.
SANITIZED = {"128x160_32f32f_sanitized": ((128, 160), "32f32f")}


def launch_trace(run, keep_sanitizer: bool = False) -> list:
    trace = []
    for s in run.launches:
        timing = dataclasses.asdict(s.timing)
        if not keep_sanitizer:
            timing.pop("sanitizer")  # debug-only attachment, not cost state
        trace.append({
            "name": s.name,
            "grid": s.grid,
            "block": s.block,
            "regs_per_thread": s.regs_per_thread,
            "smem_per_block": s.smem_per_block,
            "counters": s.counters.as_dict(),
            "timing": timing,
        })
    # JSON round-trip normalises tuples to lists so the comparison with
    # the loaded snapshot is structural, not type-sensitive.
    return json.loads(json.dumps(trace))


def current_trace(algo: str) -> list:
    img = make_image(SHAPE, PAIR, seed=0)
    return launch_trace(PAPER_ALGORITHMS[algo](img, pair=PAIR))


def case_snapshot(algo: str, name: str) -> dict:
    if name in SANITIZED:
        shape, pair = SANITIZED[name]
        run = PAPER_ALGORITHMS[algo](make_image(shape, pair), pair=pair,
                                     device="P100", backend="gpusim",
                                     sanitize=True)
    else:
        shape, pair, in_dtype, seed = CASES[name]
        run = PAPER_ALGORITHMS[algo](random_matrix(shape, in_dtype, seed),
                                     pair=pair, device="P100",
                                     backend="gpusim")
    out = np.ascontiguousarray(run.output)
    return {
        "output": {"sha256": hashlib.sha256(out.tobytes()).hexdigest(),
                   "dtype": str(out.dtype), "shape": list(out.shape)},
        "launches": launch_trace(run, keep_sanitizer=name in SANITIZED),
    }


def check_golden(path: Path, got) -> None:
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden trace {path}; run with REPRO_REGEN_GOLDEN=1 to create"
    )
    want = json.loads(path.read_text())
    assert got == want, (
        f"cost trace drifted from {path.name}; if the change is "
        f"intentional, regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
    )


@pytest.mark.parametrize("algo", sorted(PAPER_ALGORITHMS))
def test_trace_matches_golden(algo):
    check_golden(GOLDEN_DIR / f"{algo}_{SHAPE[0]}x{SHAPE[1]}.json",
                 current_trace(algo))


@pytest.mark.parametrize("name", [*CASES, *SANITIZED])
@pytest.mark.parametrize("algo", sorted(PAPER_ALGORITHMS))
def test_case_matches_golden(algo, name):
    check_golden(GOLDEN_DIR / f"{algo}_{name}.json", case_snapshot(algo, name))


def test_trace_is_deterministic():
    a = current_trace("brlt_scanrow")
    b = current_trace("brlt_scanrow")
    assert a == b
