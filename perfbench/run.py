"""Benchmark entry point: one workload, one result line.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 45 --trace 0

Runs the workload in fresh worker processes (``perfbench/worker.py``)
built from this checkout's ``src/`` and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones; see ``perfbench/README.md``.  Exits non-zero without a result line
if the package is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.report import END_TO_END, PER_LAYER, as_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Fresh processes whose set-up time is measured per untraced run; the
#: reported ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Wall-clock budget of one invocation, seconds.
TIME_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _worker(args, deadline: float, *extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("time budget exhausted before the worker started")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if result is None or (proc.returncode != 0 and result.get("correct")):
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(
                    _worker(args, deadline, "--setup-only")["setup_s"])
        res = _worker(args, deadline)
    except WorkerFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if not res["correct"]:
        print(json.dumps(res))
        return 1
    values = res["values"]
    if args.trace:
        metrics = as_metrics(values, PER_LAYER)
    else:
        values["setup_s"] = statistics.median(setups + [values["setup_s"]])
        metrics = as_metrics(values, END_TO_END)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
