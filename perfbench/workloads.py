"""The benchmark's two workloads.

Each workload generates its inputs from the seed (:meth:`generate`, not
counted as set-up), warms the package the way a user would
(:meth:`setup`, counted), computes the oracle's references
(:meth:`references`, not counted) and then runs its timed loop for the
requested seconds (:meth:`measure`).  Every timed operation's output is
checked: in the closed loop before the next operation starts, in the open
loop once the window has closed.  A wrong output raises
:class:`~perfbench.oracle.OracleError` and ends the run.

With a :class:`~perfbench.spans.Recorder`, the loop interleaves traced
and untraced operations so the tracing overhead is measured in the same
process and minute as the traced figures.

An operation that raises, or returns a wrong output, ends the run: the
worker reports it with ``correct: false`` and the counts of
:class:`Measurement`.
"""

from __future__ import annotations

import sys
import time
import traceback
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import oracle
from .arrivals import exact_mix, poisson_schedule, run_open_loop

PAIRS = ("8u32s", "32f32f")


def make_image(rng: np.random.Generator, shape, pair: str) -> np.ndarray:
    """One seeded input: uniform bytes for ``8u32s``, uniform [0, 1) floats
    for ``32f32f``."""
    if pair == "8u32s":
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    return rng.random(size=shape, dtype=np.float32)


def cumsum_sat(image: np.ndarray, axis_first: int) -> np.ndarray:
    """Plain NumPy two-pass prefix sum, the speed-of-light reference."""
    dt = np.int32 if image.dtype.kind in "iu" else image.dtype
    first = np.cumsum(image, axis=axis_first, dtype=dt)
    return np.cumsum(first, axis=1 - axis_first, dtype=dt)


def faster_axis(image: np.ndarray, repeats: int = 3) -> int:
    """The axis order (0: columns first, 1: rows first) NumPy runs faster
    on this input, by the median of ``repeats`` interleaved timings."""
    times = {0: [], 1: []}
    for _ in range(repeats):
        for axis in (0, 1):
            t0 = time.perf_counter()
            cumsum_sat(image, axis)
            times[axis].append(time.perf_counter() - t0)
    return min((np.median(v), axis) for axis, v in times.items())[1]


def instructions(launches) -> float:
    return float(sum(s.counters.warp_instructions for s in launches))


def checked_float_reference(run, image: np.ndarray, what: str) -> np.ndarray:
    """The ``gpusim`` output of a float image, once it has been checked
    against a float64 SAT; later outputs must match it bit for bit."""
    oracle.check_close(run.output, oracle.float64_reference(image), what)
    return run.output


@dataclass
class Op:
    """One timed operation that completed with a correct output."""

    #: Wall time inside the package's public call(s).
    call_s: float
    #: Scheduled send to completion (closed loops: equal to ``call_s``).
    latency_s: float
    pixels: int
    #: Simulated warp instructions the operation's result accounts for.
    instr: float
    traced: bool = False
    #: Speed-of-light time on the same inputs, when timed for this op.
    sol_s: Optional[float] = None


@dataclass
class Measurement:
    """Everything a workload's timed loop observed."""

    #: Operations started, counted before each one runs.
    attempted: int = 0
    #: The ones that completed correctly.
    ops: List[Op] = field(default_factory=list)
    #: Denominator of the throughput metrics, seconds.
    busy_s: float = 0.0
    #: Generator lateness per send (open loop only), seconds.
    lag_s: List[float] = field(default_factory=list)
    #: Traced over untraced median op time, minus one (traced runs).
    trace_overhead: float = 0.0
    #: Per-request marks of the traced serve phase (serve_mixed only).
    requests: List[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - len(self.ops)


def _overhead(ops: List[Op], key) -> float:
    traced = [key(op) for op in ops if op.traced]
    plain = [key(op) for op in ops if not op.traced]
    if not traced or not plain:
        return 0.0
    return float(np.median(traced) / np.median(plain) - 1.0)


def timed_call(recorder, op_id: int, traced: bool, fn):
    """Run ``fn()`` as operation ``op_id``, with the wrappers installed
    when ``traced``.  Returns ``(result, seconds)``; an exception ends
    the run."""
    if recorder is not None:
        recorder.op = op_id
        recorder.set_traced(traced)
    t0 = time.perf_counter()
    try:
        result = fn()
        return result, time.perf_counter() - t0
    finally:
        if recorder is not None:
            recorder.set_traced(False)


class Workload:
    name = ""
    #: Latency limit of ``slo_attainment``, seconds.
    limit_s = 0.0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = float(seconds)
        self.rng = np.random.default_rng(seed)

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def references(self) -> None:
        raise NotImplementedError

    def measure(self, meas: Measurement, recorder=None) -> None:
        """Run the timed loop, recording into ``meas``."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class ServeMixed(Workload):
    """Open-loop Poisson traffic into ``SatService(workers=2)`` on the
    default profile, with skewed key popularity and three request kinds."""

    name = "serve_mixed"
    limit_s = 0.100
    #: Offered load, requests per second: about a quarter of the default
    #: profile's capacity on a 2-core machine, fixed so that faster code
    #: shows as lower latency rather than as a higher rate.
    RATE = 25.0
    WORKERS = 2
    SHAPES = ((128, 128), (96, 160), (200, 200), (64, 256))
    #: Popularity of the eight (shape, pair) keys; the top one carries 40%.
    POPULARITY = (0.40, 0.18, 0.12, 0.09, 0.07, 0.06, 0.05, 0.03)
    #: Request kinds and their shares of traffic.
    KINDS = (("sat", 0.75), ("rect_sum", 0.20), ("box_filter", 0.05))
    N_RECTS = 64
    BOX_RADIUS = 3
    VARIANTS = 4
    #: Batch depths warmed at set-up: as many as a plan keeps replay
    #: tapes for (``LaunchPlan.MAX_TAPES``).
    WARM_DEPTHS = (1, 2, 3, 4)
    #: Passes of speed-of-light timings over the window's requests: about
    #: 2.5 s of timing, long enough that a host stall of a second or so
    #: moves no request's median.
    SOL_PASSES = 20

    def generate(self) -> None:
        self.keys = [(s, p) for s in self.SHAPES for p in PAIRS]
        self.images = {
            k: [make_image(self.rng, k[0], k[1]) for _ in range(self.VARIANTS)]
            for k in self.keys
        }
        self.schedule = poisson_schedule(self.rng, self.RATE, self.seconds)
        n = len(self.schedule)
        # Exact shares of keys and kinds in a seeded order, so every seed
        # offers the same work.
        keys = exact_mix(self.rng, self.POPULARITY, n)
        kinds = exact_mix(self.rng, [s for _, s in self.KINDS], n)
        self.specs = []
        for k, kind_index in zip(keys, kinds):
            key = self.keys[k]
            kind = self.KINDS[kind_index][0]
            rects = None
            if kind == "rect_sum":
                h, w = key[0]
                ys = np.sort(self.rng.integers(0, h, size=(self.N_RECTS, 2)))
                xs = np.sort(self.rng.integers(0, w, size=(self.N_RECTS, 2)))
                rects = np.stack([ys[:, 0], xs[:, 0], ys[:, 1], xs[:, 1]],
                                 axis=1)
            self.specs.append((key, int(self.rng.integers(self.VARIANTS)),
                               kind, rects))

    def setup(self) -> None:
        from repro.serve import (BoxFilterRequest, RectSumRequest,
                                 SatRequest, SatService)

        self.kinds = {"sat": SatRequest, "rect_sum": RectSumRequest,
                      "box_filter": BoxFilterRequest}
        self.svc = SatService(workers=self.WORKERS)
        for (shape, pair), imgs in self.images.items():
            # The first request records the key's plan; then one batch of
            # each depth the traffic commonly coalesces into, because each
            # new stacked depth records its own replay tape.
            self.svc.submit(SatRequest(imgs[0], pair=pair)).result(timeout=60)
            for depth in self.WARM_DEPTHS:
                futures = [self.svc.submit(SatRequest(imgs[i], pair=pair))
                           for i in range(depth)]
                for fut in futures:
                    fut.result(timeout=60)

    def references(self) -> None:
        from repro import sat

        self.tables: Dict[Tuple, np.ndarray] = {}
        self.instr: Dict[Tuple, float] = {}
        self.axis = {}
        for (shape, pair), imgs in self.images.items():
            self.axis[(shape, pair)] = faster_axis(imgs[0])
            for v, img in enumerate(imgs):
                run = sat(img, pair=pair, backend="gpusim")
                self.instr[(shape, pair)] = instructions(run.launches)
                self.tables[(shape, pair, v)] = (
                    oracle.int_reference(img) if pair == "8u32s" else
                    checked_float_reference(run, img, f"gpusim sat{shape}"))

    def _expected(self, spec) -> np.ndarray:
        (shape, pair), v, kind, rects = spec
        table = self.tables[(shape, pair, v)]
        if kind == "sat":
            return table
        if kind == "rect_sum":
            return oracle.rect_sums_reference(table, rects)
        return oracle.box_filter_reference(table, self.BOX_RADIUS)

    def _phase(self, schedule, specs, op_base, recorder, traced, meas):
        records = []

        def done(record):
            return lambda fut: record.__setitem__("t_done", time.perf_counter())

        def send(i, due):
            (shape, pair), v, kind, rects = specs[i]
            # A fresh view per request gives each in-flight image its own
            # identity, which the traced run uses to follow it.
            img = self.images[(shape, pair)][v].view()
            extra = {}
            if kind == "rect_sum":
                extra["rects"] = rects
            elif kind == "box_filter":
                extra["radius"] = self.BOX_RADIUS
            req = self.kinds[kind](img, pair=pair, **extra)
            meas.attempted += 1
            if recorder is not None:
                recorder.op = op_base + i
            record = {"due": due, "spec": specs[i], "image": img,
                      "t_done": None, "future": None}
            t0 = time.perf_counter()
            try:
                fut = self.svc.submit(req)
            except Exception:
                traceback.print_exc()
                fut = None
            record["t_sub0"], record["t_sub1"] = t0, time.perf_counter()
            if fut is not None:
                fut.add_done_callback(done(record))
            record["future"] = fut
            records.append(record)

        if recorder is not None:
            recorder.set_traced(traced)
        t_start = time.perf_counter()
        meas.lag_s.extend(run_open_loop(schedule, send))
        futures = [r["future"] for r in records if r["future"] is not None]
        wait(futures, timeout=120)
        # A future's waiters wake before its done-callbacks run, so give
        # the callbacks a moment to stamp the completion times.
        give_up = time.perf_counter() + 10
        while (any(r["t_done"] is None for r in records
                   if r["future"] is not None and r["future"].done())
               and time.perf_counter() < give_up):
            time.sleep(0.001)
        if recorder is not None:
            recorder.set_traced(False)
        t_end = max([t_start] + [r["t_done"] for r in records
                                 if r["t_done"] is not None])
        meas.busy_s += t_end - t_start
        # Speed of light on each request's image, timed once the window
        # has closed: timed during it, it would delay the generator and
        # wait for the workers' hold on the GIL.  Each request takes the
        # median of its SOL_PASSES timings.
        sol = {id(r): [] for r in records}
        for _ in range(self.SOL_PASSES):
            for r in records:
                (shape, pair), _, _, _ = r["spec"]
                t0 = time.perf_counter()
                cumsum_sat(r["image"], self.axis[(shape, pair)])
                sol[id(r)].append(time.perf_counter() - t0)
        for r in records:
            r["sol_s"] = float(np.median(sol[id(r)]))
        # Every request is checked, so the failure count is exact; any
        # failure then ends the run.
        failures = 0
        for r in records:
            fut = r["future"]
            (shape, pair), v, kind, _ = r["spec"]
            what = f"{kind}{shape} {pair}"
            try:
                if fut is None or not fut.done() or r["t_done"] is None:
                    raise RuntimeError("no response")
                resp = fut.result()
                oracle.check_exact(np.asarray(resp.result),
                                   self._expected(r["spec"]), what)
            except Exception as e:
                print(f"perfbench: request {what} failed: {e}",
                      file=sys.stderr)
                failures += 1
                continue
            r["timeline"] = resp.timeline
            meas.ops.append(Op(
                r["t_sub1"] - r["t_sub0"], r["t_done"] - r["due"],
                r["image"].size, self.instr[(shape, pair)], traced=traced,
                sol_s=r["sol_s"],
            ))
            if traced:
                meas.requests.append(r)
        if failures:
            raise RuntimeError(f"{failures} of {len(records)} requests failed")

    def measure(self, meas: Measurement, recorder=None) -> None:
        n = len(self.schedule)
        if recorder is None:
            self._phase(self.schedule, self.specs, 0, None, False, meas)
        else:
            # Untraced first half, then the same kind of traffic traced;
            # the wrappers are swapped only while nothing is in flight.
            half = self.seconds / 2
            cut = next((i for i, t in enumerate(self.schedule) if t >= half), n)
            second = [t - half for t in self.schedule[cut:]]
            self._phase(self.schedule[:cut], self.specs[:cut], 0, recorder,
                        False, meas)
            self._phase(second, self.specs[cut:], cut, recorder, True, meas)
            meas.trace_overhead = _overhead(meas.ops, lambda op: op.latency_s)

    def close(self) -> None:
        self.svc.close()


class BulkLarge(Workload):
    """Rounds of one sharded 4096^2 ``sat()`` and one 16x512^2
    ``sat_batch()``, both on the compiled backend; the planner picks the
    batch's kernel."""

    name = "bulk_large"
    limit_s = 2.0
    BIG = (4096, 4096)
    STACK = (16, 512, 512)
    #: Speed of light is timed on every SOL_EVERY-th round: it takes longer
    #: than the round itself at these sizes, and timing it less often
    #: leaves more rounds in the run.
    SOL_EVERY = 4

    def generate(self) -> None:
        self.big = make_image(self.rng, self.BIG, "8u32s")
        self.stack = make_image(self.rng, self.STACK, "32f32f")

    def setup(self) -> None:
        from repro import sat, sat_batch

        self.sat, self.sat_batch = sat, sat_batch
        sat(self.big, pair="8u32s", backend="compiled")
        sat_batch(self.stack, pair="32f32f", algorithm="auto",
                  backend="compiled")

    def references(self) -> None:
        self.big_ref = oracle.int_reference(self.big)
        # The same batch depth as the timed call, so the planner makes the
        # same decision for the interpreter.
        batch = self.sat_batch(self.stack, pair="32f32f", algorithm="auto",
                               backend="gpusim")
        self.stack_refs = [
            checked_float_reference(run, im, f"gpusim sat_batch image {j}")
            for j, (run, im) in enumerate(zip(batch.runs, self.stack))]
        self.axis_big = faster_axis(self.big, repeats=1)
        self.axis_stack = faster_axis(self.stack[0])

    def measure(self, meas: Measurement, recorder=None) -> None:
        pixels = self.big.size + self.stack.size
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < self.seconds:
            traced = recorder is not None and i % 2 == 1
            meas.attempted += 1
            shard_run, t_shard = timed_call(recorder, i, traced, lambda: self.sat(
                self.big, pair="8u32s", backend="compiled"))
            oracle.check_exact(shard_run.output, self.big_ref,
                               f"sharded sat{self.BIG} 8u32s")
            batch, t_batch = timed_call(recorder, i, traced, lambda: self.sat_batch(
                self.stack, pair="32f32f", algorithm="auto", backend="compiled"))
            for j, (out, ref) in enumerate(zip(batch.outputs,
                                               self.stack_refs)):
                oracle.check_exact(out, ref, f"sat_batch image {j} 32f32f")
            call = t_shard + t_batch
            op = Op(call, call, pixels,
                    instructions(shard_run.launches) + sum(
                        instructions(r.launches) for r in batch.runs),
                    traced=traced)
            if i % self.SOL_EVERY == 0:
                t0 = time.perf_counter()
                cumsum_sat(self.big, self.axis_big)
                for im in self.stack:
                    cumsum_sat(im, self.axis_stack)
                op.sol_s = time.perf_counter() - t0
            meas.ops.append(op)
            i += 1
        meas.busy_s = sum(op.call_s for op in meas.ops)
        meas.trace_overhead = _overhead(meas.ops, lambda op: op.call_s)


WORKLOADS = {w.name: w for w in (ServeMixed, BulkLarge)}
