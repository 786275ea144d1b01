"""Run one workload in this (fresh) process and print one JSON line.

Started by ``perfbench/run.py``; the parent passes the monotonic time it
spawned this process at, so set-up time includes interpreter start and
imports.  With ``--setup-only`` the process stops once the package is
warm and reports only its set-up time.

An operation that raises or returns a wrong output ends the run with
``correct: false``, the number of operations attempted and the number
that failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro  # noqa: F401  (imports count as set-up)
    import numpy as np

    from perfbench import report
    from perfbench.workloads import WORKLOADS, Measurement

    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    rec = None
    if args.trace:
        from perfbench.spans import Recorder

        rec = Recorder()
        rec.install()
    t0 = time.monotonic()
    wl.generate()
    generate_s = time.monotonic() - t0
    meas = Measurement()
    try:
        wl.setup()
        setup_s = time.monotonic() - args.t_spawn - generate_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if rec is not None:
            rec.uninstall()
            rec.phase = "timed"
        try:
            # A wrong set-up reference counts as one failed operation.
            wl.references()
            wl.measure(meas, rec)
        except Exception:
            traceback.print_exc()
            print(json.dumps({"correct": False,
                              "attempted": max(1, meas.attempted),
                              "failed": max(1, meas.failed),
                              "metrics": {}}))
            return 1
    finally:
        wl.close()

    out = {"correct": True, "attempted": meas.attempted,
           "failed": meas.failed}
    if rec is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["values"] = report.end_to_end(meas, wl.limit_s, setup_s, rss_mb)
        # The p90 is not gated (see README.md), so it goes to stderr.
        lat = [op.latency_s for op in meas.ops]
        print(f"perfbench: {args.workload}: {len(lat)} ops completed; "
              f"latency p90 {np.percentile(lat, 90) * 1e3:.3f} ms, "
              f"{len(lat) // 10} ops beyond it", file=sys.stderr)
    else:
        rec.uninstall()
        leftover = rec.leftover_wrappers()
        if leftover:
            print(f"perfbench: wrappers not restored: {leftover}",
                  file=sys.stderr)
            out["correct"] = False
        out["values"] = report.per_layer(meas, rec)
        spans_dir = ROOT / ".perfbench-out"
        spans_dir.mkdir(exist_ok=True)
        rec.dump(str(spans_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"),
                 t0=rec.spans[0].start if rec.spans else 0.0)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
