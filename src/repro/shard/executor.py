"""Sharded SAT executor: tiles, devices, streams, single-pass carries.

The executor turns one oversized image into a tile grid (via
:func:`~repro.engine.scheduler.plan_tiles`), runs every tile's *local*
SAT on its placed simulated device (a one-image batch on the default
engine, under the call's execution config resolved once), and resolves
inter-tile carries with the decoupled-lookback protocol of
:mod:`repro.shard.descriptor` — **one** carry fix-up per tile, never a
second full sweep.

Carry decomposition
-------------------
For a tile starting at ``(R0, C0)`` the global table splits into three
regions::

    S[y, x] = local[y-R0, x-C0]          # the tile's own SAT
            + left[y-R0]                 # band rows R0..y, columns < C0
            + top[x-C0]                  # all rows < R0, columns <= x

``left`` is the *row chain*: each tile publishes its right-edge column
``local[:, -1]`` as the chain aggregate; the exclusive lookback prefix is
exactly ``left``.  ``top`` is the *column chain*: each tile publishes its
*adjusted* bottom edge ``local[-1, :] + left[-1]`` — the band sum over
**all** columns up to each local column, which folds the diagonal corner
region into the column chain.  That makes the column aggregate depend on
the row prefix: a genuine two-stage dependency the lookback protocol
resolves tile-by-tile in kernel-completion order, deferring (status
``X``) when a predecessor has not landed yet.

Integer tiles do not wait for it.  An integer tile starts once the
tiles to its left and above (and so above-left) are final, and it reads
its carries from them: ``left[y] = S[R0+y, C0-1] - S[R0-1, C0-1]`` and
``top[x] = S[R0-1, C0+x]``.  The engine folds them into the tile's scan
(wrapping addition is associative), and the tile publishes the local
aggregates recovered from its final values.  Lookback still resolves
every carry, in the same order with the same stream ops, and a resolved
carry that differs from the folded one raises ``RuntimeError``.  Float
addition is not associative, so float tiles take their carries from
lookback alone.

Wavefront
---------
Tiles compute on the engine's worker pool (:mod:`repro.engine.pool`),
several at once, within the memory budget below.  Integer tiles run as
an anti-diagonal wavefront: each starts when the tiles it reads its
carries from have landed.  Float tiles have no issue-time dependency and
start in row-major order.  The calling thread books every tile in
row-major order as soon as the row-major prefix up to it has landed: its
H2D copy and kernel op on the device streams, its launches, and copies
of its edges.  Each tile's timeline notes go to an accumulator of its
own, merged in the same order.  So lookback, the
:class:`~repro.gpusim.stream.DeviceSet` report, the launches and the
timeline are those of a one-tile-at-a-time run.  A tile that raises
stops the wavefront: tiles not yet started never run, and the call
raises once the running ones finish.

Memory
------
The output is allocated first, and each tile computes into its output
slice: the slice is the engine's output destination (``out=``), and a
warm tile that fills its bucket runs its lowered program there, with no
staging buffer and without the plan's lock (integer scans run in place;
a float program's result is copied back); other tiles are copied in.
Integer carries are folded into the scan (``carry=``); float carries
apply once ``left`` and ``top`` resolve, as two in-place broadcast adds
on the slice, ``(local + left) + top``.  Copies of each tile's right and
bottom edges and its carry vectors are all that is kept for the chains,
so a sharded call holds its output plus the working sets of the tiles
running at once; they run at once only as far as their working sets,
counted at :data:`TILE_WORKING_SET` times a tile's bytes, fit in the
output's bytes, whatever the host's core count.

Cost model
----------
Every tile contributes one H2D copy, one kernel op (its local SAT's
modeled time) and one carry op (the fix-up's memory traffic), plus D2D
copies when an immediate predecessor lives on another device.  Ops land
on real :mod:`repro.gpusim.stream` queues: kernels serialise on the SM
engine, copies and carries on the copy/fix-up engine, so the
:class:`~repro.gpusim.stream.DeviceSet` report shows how much carry work
hid behind kernel execution.
"""

from __future__ import annotations

import heapq
from concurrent.futures import FIRST_COMPLETED, wait
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dtypes import TypePair, resolve_pair
from ..engine import pool as engine_pool
from ..engine.batch import check_image, choose_algorithm, run_single
from ..engine.scheduler import plan_tiles
from ..exec.config import ExecutionConfig, env, resolve_execution
from ..exec.registry import get_kernel_spec, has_kernel_spec
from ..gpusim.device import get_device, parse_device_set
from ..gpusim.stream import D2D_ALPHA, D2D_BW, H2D_BW, DeviceSet, SimDevice
from ..obs.context import recording_timeline, timeline_active, timeline_merge
from ..obs.events import emit
from ..obs.trace import resolve_tracer
from ..plan.planner import shard_threshold_elems, shard_tile_shape
from ..sat.common import SatRun
from .descriptor import DescriptorChain, LookbackStats

__all__ = [
    "DEFAULT_THRESHOLD_ELEMS",
    "TILE_WORKING_SET",
    "ShardConfig",
    "ShardRun",
    "ShardSeriesRun",
    "above_threshold",
    "sharded_sat",
    "sharded_sat_series",
]

#: Images strictly larger than this many elements shard by default —
#: 2048x2048 (the largest single-launch shape the benchmarks exercise)
#: sits exactly on the threshold and does *not* shard.
DEFAULT_THRESHOLD_ELEMS = 1 << 22

#: A running tile's working set, counted as a multiple of its bytes: a
#: warm tile measured at most 2.1x (docs/sharding.md), and the rest
#: covers the call's edges and launch records.
TILE_WORKING_SET = 3

#: Environment knobs (all optional).
THRESHOLD_ENV = "REPRO_SHARD_THRESHOLD"
TILE_ENV = "REPRO_SHARD_TILE"
DEVICES_ENV = "REPRO_SHARD_DEVICES"
STREAMS_ENV = "REPRO_SHARD_STREAMS"
PLACEMENT_ENV = "REPRO_SHARD_PLACEMENT"


def _wrap_add(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        return a + b


def _parse_tile(spec) -> Tuple[int, int]:
    if isinstance(spec, str):
        h, _, w = spec.lower().partition("x")
        return (int(h), int(w or h))
    h, w = spec
    return (int(h), int(w))


#: ``(ShardConfig field, variable, parser)`` for the environment layer.
_ENV_FIELDS = (
    ("threshold_elems", THRESHOLD_ENV, int),
    ("tile_shape", TILE_ENV, _parse_tile),
    ("devices", DEVICES_ENV, str),
    ("streams_per_device", STREAMS_ENV, int),
    ("placement", PLACEMENT_ENV, str),
)


@dataclass(frozen=True)
class ShardConfig:
    """Everything the sharded executor needs beyond the SAT call itself."""

    #: ``None`` (the default) means planner-derived per image:
    #: :func:`repro.plan.shard_tile_shape` picks 1024^2 tiles for images
    #: with a deep enough grid and 512^2 below that, so every device
    #: keeps enough tiles in flight to overlap carries with compute.
    tile_shape: Optional[Tuple[int, int]] = None
    #: Any :func:`~repro.gpusim.device.parse_device_set` spelling.
    devices: object = "2xP100"
    streams_per_device: int = 2
    placement: str = "roundrobin"
    #: ``sat()`` shards transparently strictly above this element count.
    threshold_elems: int = DEFAULT_THRESHOLD_ELEMS

    @classmethod
    def from_env(cls, **overrides) -> "ShardConfig":
        """Defaults < environment < explicit overrides.

        When no threshold is pinned (env or override), it is derived from
        the configured pipeline depth via
        :func:`repro.plan.shard_threshold_elems` — for the default two
        P100s with two streams of 1024^2 tiles that reproduces the
        historical 2^22 constant exactly.
        """
        vals = {}
        for name, var, parse in _ENV_FIELDS:
            raw = env(var)
            if raw is not None:
                vals[name] = parse(raw)
        vals.update({k: v for k, v in overrides.items() if v is not None})
        if vals.get("tile_shape") is not None:
            vals["tile_shape"] = _parse_tile(vals["tile_shape"])
        if "threshold_elems" not in vals:
            vals["threshold_elems"] = shard_threshold_elems(
                len(parse_device_set(vals.get("devices", cls.devices))),
                vals.get("streams_per_device", cls.streams_per_device),
                vals.get("tile_shape") or (1024, 1024),
            )
        return cls(**vals)

    def resolved_tile(self, image_shape: Tuple[int, int]) -> Tuple[int, int]:
        """The tile to use for ``image_shape``: the pinned one, or the
        planner's recommendation when ``tile_shape`` is ``None``."""
        if self.tile_shape is not None:
            return self.tile_shape
        return shard_tile_shape(image_shape)

    @classmethod
    def coerce(cls, shard, device=None) -> "ShardConfig":
        """Normalise a ``sat(shard=...)`` value into a config.

        ``None``/``True`` mean env-configured defaults; a mapping supplies
        field overrides; a :class:`ShardConfig` passes through.  When the
        caller pinned a single ``device=`` and no device set was
        configured anywhere, the set becomes two of that device.
        """
        if isinstance(shard, cls):
            return shard
        over = {}
        if isinstance(shard, dict):
            over = dict(shard)
        elif shard not in (None, True, False):
            raise TypeError(
                f"shard= must be None, a bool, a dict or a ShardConfig, got "
                f"{type(shard).__name__}"
            )
        if (device is not None and "devices" not in over
                and env(DEVICES_ENV) is None):
            over["devices"] = f"2x{get_device(device).name}"
        return cls.from_env(**over)

    @property
    def n_devices(self) -> int:
        return len(parse_device_set(self.devices))


@dataclass
class ShardRun(SatRun):
    """A sharded run: a :class:`SatRun` plus the shard report.

    ``output`` is the materialised global table and ``backend`` the label
    the tile runs report, as an unsharded call would.  ``time_s`` is the
    modeled *makespan* of the device set (overlap included), not the sum
    of kernel times."""

    report: Dict[str, object] = field(default_factory=dict)

    @property
    def time_s(self) -> Optional[float]:
        return self.report.get("makespan_s")


@dataclass
class ShardSeriesRun:
    """A streamed series run: per-frame outputs plus the fleet report."""

    outputs: List[np.ndarray]
    report: Dict[str, object] = field(default_factory=dict)
    algorithm: str = ""
    pair: str = ""
    backend: str = "gpusim"
    temporal: bool = False

    @property
    def time_s(self) -> Optional[float]:
        return self.report.get("makespan_s")


def _issue_carries(out: np.ndarray, p,
                   acc) -> Tuple[np.ndarray, np.ndarray]:
    """An integer tile's ``(left, top)`` carries, read from the final
    values of the tiles to its left and above::

        left[y] = S[r0 + y, c0 - 1] - S[r0 - 1, c0 - 1]
        top[x]  = S[r0 - 1, c0 + x]
    """
    r0, c0 = p.row0, p.col0
    if c0 == 0:
        left = np.zeros(p.h, dtype=acc)
    elif r0 == 0:
        left = out[:p.h, c0 - 1].copy()
    else:
        with np.errstate(over="ignore"):
            left = out[r0: r0 + p.h, c0 - 1] - out[r0 - 1, c0 - 1]
    top = (out[r0 - 1, c0: c0 + p.w].copy() if r0
           else np.zeros(p.w, dtype=acc))
    return left, top


def _kernel_cost_s(run: SatRun, shape: Tuple[int, int], tp: TypePair,
                   dev: SimDevice, n_passes: int) -> float:
    """Modeled duration of one tile's local SAT on the timeline.

    Backends with launch stats report their own modeled time; unmodeled
    backends (``host``) fall back to a bandwidth-bound estimate so the
    schedule stays meaningful.
    """
    t = run.time_s
    if t is not None and t > 0:
        return t
    h, w = shape
    traffic = h * w * (tp.input.size + 2 * n_passes * tp.output.size)
    return n_passes * dev.spec.launch_overhead_s + traffic / dev.spec.global_bw


def above_threshold(shape: Tuple[int, int]) -> bool:
    """Whether :func:`repro.sat` shards an image of ``shape`` on its own:
    it has strictly more elements than ``ShardConfig.from_env()``'s
    threshold."""
    threshold = ShardConfig.from_env().threshold_elems
    return int(shape[0]) * int(shape[1]) > threshold


def _resolve(config, backend, device, opts: Dict,
             autotune: Optional[bool] = None) -> ExecutionConfig:
    """The call's execution config, resolved once.  The ``sanitize``/
    ``bounds_check`` knobs move from ``opts`` into the resolution."""
    return resolve_execution(config, backend=backend, device=device,
                             autotune=autotune,
                             sanitize=opts.pop("sanitize", None),
                             bounds_check=opts.pop("bounds_check", None))


def _device_configs(dset: DeviceSet,
                    res: ExecutionConfig) -> Dict[str, ExecutionConfig]:
    """``res`` with each device of ``dset`` swapped in."""
    return {d.spec.name: res.with_fields(device=d.spec.name) for d in dset}


def sharded_sat(
    image: np.ndarray,
    pair=None,
    algorithm: Optional[str] = "brlt_scanrow",
    device=None,
    backend=None,
    config=None,
    shard=None,
    autotune: Optional[bool] = None,
    **opts,
) -> ShardRun:
    """Tiled SAT over a set of simulated devices, single-pass carries.

    Output is identical to a full-image run: bit-for-bit for integer
    accumulators (wraparound addition is associative), to float summation
    reordering for ``32f``/``64f`` pairs.  See :class:`ShardConfig` for
    the ``shard=`` knobs and module docs for the carry protocol.

    The call's execution config resolves once, ``autotune`` included.
    ``algorithm=None`` or ``"auto"`` is chosen under it exactly as
    :func:`repro.sat` chooses (the engine's ``choose_algorithm``), and
    every tile runs the chosen algorithm as a one-image engine batch
    under that config with its device swapped in.  Only algorithms with
    a kernel spec shard; any other raises ``ValueError``.
    """
    check_image(image)
    cfg = ShardConfig.coerce(shard, device=device)
    cfg = replace(cfg, tile_shape=cfg.resolved_tile(image.shape))
    tp = resolve_pair(image, pair)
    res = _resolve(config, backend, device, opts, autotune)
    algorithm, opts = choose_algorithm(algorithm, image.shape, tp, res, opts)
    if not has_kernel_spec(algorithm):
        raise ValueError(
            f"algorithm {algorithm!r} has no kernel spec and cannot run sharded"
        )
    n_passes = len(get_kernel_spec(algorithm).passes)

    dset = DeviceSet.from_spec(cfg.devices, cfg.streams_per_device)
    configs = _device_configs(dset, res)
    plan = plan_tiles(image.shape, cfg.tile_shape, len(dset),
                      cfg.streams_per_device, cfg.placement)
    nr, nc = plan.grid
    tracer = resolve_tracer(None)

    # -- phase 1: local SATs, a wavefront on the engine's pool -----------
    # Each tile computes into its slice of ``out``; integer tiles fold
    # their carries in (module docs).  The caller books every tile in
    # row-major order as its row-major prefix lands: the H2D and kernel
    # ops, the launches, and copies of its edges.  Edges are copies,
    # never views of ``out``: a float slice gains its carries in place,
    # and a chain hands a published aggregate on by reference as a
    # successor's prefix.
    acc = tp.output.np_dtype
    integer = tp.output.is_integer
    out = np.empty(image.shape, dtype=acc)
    timelined = timeline_active()

    def compute(p, carry):
        """One tile's local SAT into its slice (a pool task).  Its
        timeline notes go to an accumulator of its own, which the caller
        merges in row-major order."""
        dev = dset.device(p.device)
        with ExitStack() as stack:
            notes = (stack.enter_context(recording_timeline())
                     if timelined else None)
            if tracer is not None:
                stack.enter_context(tracer.span(
                    f"shard.tile[{p.r},{p.c}]", category="shard",
                    device=dev.name, stream=f"{dev.name}/s{p.stream}",
                    algorithm=algorithm,
                ))
            run = run_single(
                image[p.row0: p.row0 + p.h, p.col0: p.col0 + p.w],
                pair=tp, algorithm=algorithm, config=configs[dev.spec.name],
                out=out[p.row0: p.row0 + p.h, p.col0: p.col0 + p.w],
                carry=carry, **opts)
        return run, notes

    right: Dict[Tuple[int, int], np.ndarray] = {}
    bottom: Dict[Tuple[int, int], np.ndarray] = {}
    folded: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
    kops: Dict[Tuple[int, int], object] = {}
    launches = []
    backend_name = None
    in_size = tp.input.size
    acc_size = tp.output.size

    def book(p, run, notes) -> None:
        """Row-major bookkeeping of one computed tile."""
        nonlocal backend_name
        key = (p.r, p.c)
        dev = dset.device(p.device)
        cop = dev.enqueue(
            p.stream, "copy", (p.h * p.w * in_size) / H2D_BW,
            f"h2d[{p.r},{p.c}]", tile=key, bytes=p.h * p.w * in_size,
        )
        dst = out[p.row0: p.row0 + p.h, p.col0: p.col0 + p.w]
        if integer:
            lft, top = folded[key]
            with np.errstate(over="ignore"):
                right[key] = dst[:, -1] - lft - top[-1]
                bottom[key] = dst[-1, :] - top - lft[-1]
        else:
            right[key] = dst[:, -1].copy()
            bottom[key] = dst[-1, :].copy()
        timeline_merge(notes)
        backend_name = run.backend
        launches.extend(run.launches)
        kops[key] = dev.enqueue(
            p.stream, "kernel",
            _kernel_cost_s(run, (p.h, p.w), tp, dev, n_passes),
            f"sat[{p.r},{p.c}]", deps=[cop],
            tile=key, passes=n_passes,
        )

    # An integer tile reads its carries from the final tiles to its left
    # and above (and so above-left), so it starts once they have landed;
    # float tiles wait for nothing.
    waiting = {(p.r, p.c): (p.r > 0) + (p.c > 0) if integer else 0
               for p in plan.placements}
    tiles: Dict[object, Tuple[int, int]] = {}

    def issue(key) -> None:
        p = plan.at(*key)
        carry = None
        if integer:
            carry = folded[key] = _issue_carries(out, p, acc)
        tiles[engine_pool.submit(compute, p, carry)] = key

    for k, p in enumerate(plan.placements):
        if (p.r, p.c) != divmod(k, nc):
            raise RuntimeError(
                f"tile ({p.r}, {p.c}) is at position {k}; tiles must be "
                f"placed row-major")
    # Ready tiles start in row-major order, within the memory budget.
    ready = [key for key, n_wait in waiting.items() if not n_wait]
    p0 = plan.placements[0]
    max_running = max(1, out.size // (TILE_WORKING_SET * p0.h * p0.w))
    landed: Dict[Tuple[int, int], tuple] = {}
    booked = 0
    try:
        while booked < plan.n_tiles:
            while ready and len(tiles) < max_running:
                issue(heapq.heappop(ready))
            done, _ = wait(tiles, return_when=FIRST_COMPLETED)
            for fut in sorted(done, key=tiles.get):
                r, c = key = tiles.pop(fut)
                landed[key] = fut.result()
                for nxt in ((r, c + 1), (r + 1, c)):
                    if nxt in waiting and waiting[nxt]:
                        waiting[nxt] -= 1
                        if not waiting[nxt]:
                            heapq.heappush(ready, nxt)
            while booked < plan.n_tiles and divmod(booked, nc) in landed:
                p = plan.placements[booked]
                book(p, *landed.pop((p.r, p.c)))
                booked += 1
    finally:
        # On a failure, tiles no pool thread has started never run, and
        # the call returns only once the running ones have finished.
        for fut in tiles:
            fut.cancel()
        wait(tiles)

    # -- phase 2: decoupled-lookback carry resolution --------------------
    rows = [DescriptorChain(nc, name=f"row{r}") for r in range(nr)]
    cols = [DescriptorChain(nr, name=f"col{c}") for c in range(nc)]
    left: Dict[Tuple[int, int], np.ndarray] = {}
    carry_ops = 0
    copy_d2d = 0

    def finalize(p, top: np.ndarray) -> None:
        nonlocal carry_ops, copy_d2d
        key = (p.r, p.c)
        if integer:
            lft, ftop = folded.pop(key)
            if not (np.array_equal(left[key], lft)
                    and np.array_equal(top, ftop)):
                raise RuntimeError(
                    f"tile {key}: the carries resolved by lookback differ "
                    f"from the ones folded into its scan")
        else:
            # left before top: float outputs are pinned to this association.
            dst = out[p.row0: p.row0 + p.h, p.col0: p.col0 + p.w]
            with np.errstate(over="ignore", invalid="ignore"):
                np.add(dst, left[key][:, None], out=dst)
                np.add(dst, top[None, :], out=dst)
        dev = dset.device(p.device)
        cstream = (p.stream + 1) % len(dev.streams)
        deps = [kops[key]]
        for pr, pc, vec_len in (
            (p.r, p.c - 1, p.h), (p.r - 1, p.c, p.w)
        ):
            if pr < 0 or pc < 0:
                continue
            pred = plan.at(pr, pc)
            deps.append(kops[(pr, pc)])
            if pred.device != p.device:
                copy_d2d += 1
                deps.append(dev.enqueue(
                    cstream, "copy",
                    D2D_ALPHA + (vec_len * acc_size) / D2D_BW,
                    f"d2d[{pr},{pc}->{p.r},{p.c}]",
                    deps=[kops[(pr, pc)]],
                    bytes=vec_len * acc_size,
                ))
        carry_ops += 1
        dev.enqueue(
            cstream, "carry", (2 * p.h * p.w * acc_size) / dev.spec.global_bw,
            f"carry[{p.r},{p.c}]", deps=deps, tile=(p.r, p.c),
        )

    def attempt(p) -> bool:
        """Advance one tile; True when its carries fully resolved."""
        key = (p.r, p.c)
        if key not in left:
            excl = rows[p.r].lookback(p.c)
            if excl is None:
                return False
            left[key] = excl
            # Adjusted bottom edge: band sum over *all* columns <= x.
            cols[p.c].publish_aggregate(
                p.r, _wrap_add(bottom.pop(key), excl[-1])
            )
        exclt = cols[p.c].lookback(p.r)
        if exclt is None:
            return False
        finalize(p, exclt)
        return True

    # Tiles publish and resolve in modeled kernel-completion order — the
    # order real devices would race through the descriptor array.  A tile
    # finishing before its predecessors hits X and parks on the retry
    # queue until later publishes unblock it.
    completion = sorted(
        plan.placements, key=lambda p: (kops[(p.r, p.c)].end_s, p.order)
    )
    pending: List[object] = []
    for p in completion:
        rows[p.r].publish_aggregate(p.c, right.pop((p.r, p.c)))
        pending.append(p)
        progress = True
        while progress and pending:
            progress = False
            still = []
            for q in pending:
                if attempt(q):
                    progress = True
                else:
                    still.append(q)
            pending = still
    if pending:  # pragma: no cover - protocol invariant
        raise RuntimeError(
            f"carry resolution stalled with {len(pending)} tiles pending"
        )

    # -- report / metrics ------------------------------------------------
    row_stats, col_stats = LookbackStats(), LookbackStats()
    for ch in rows:
        row_stats.merge(ch.stats)
    for ch in cols:
        col_stats.merge(ch.stats)
    rep = dset.report()
    kb, cb, pb = rep["kernel_busy_s"], rep["carry_busy_s"], rep["copy_busy_s"]
    rep.update({
        "algorithm": algorithm,
        "pair": tp.name,
        "image_shape": list(image.shape),
        "tile_shape": list(plan.tile_shape),
        "grid": list(plan.grid),
        "n_tiles": plan.n_tiles,
        "placement": plan.policy,
        "kernel_ops": plan.n_tiles,
        "carry_ops": carry_ops,
        "h2d_ops": plan.n_tiles,
        "d2d_ops": copy_d2d,
        "full_sweeps": 0,
        "carry_passes": 1,
        "launches": len(launches),
        "retries": row_stats.deferred + col_stats.deferred,
        "lookback": {"row": row_stats.to_dict(), "col": col_stats.to_dict()},
        "carry_overhead_frac": (cb + pb) / (kb + cb + pb) if kb else 0.0,
        "tiles_per_s": (plan.n_tiles / rep["makespan_s"]
                        if rep["makespan_s"] else 0.0),
    })
    emit("shard.runs", algorithm=algorithm)
    emit("shard.tiles", plan.n_tiles, algorithm=algorithm)
    emit("shard.carry_ops", carry_ops)
    # Serving-timeline attribution: modeled carry + copy time a sharded
    # request spent off the kernel path (no-op outside a serve request).
    emit("shard.carry_us", (cb + pb) * 1e6)
    emit("shard.kernel_us", kb * 1e6)
    emit("shard.lookback.steps", row_stats.steps + col_stats.steps)
    emit("shard.lookback.deferred", row_stats.deferred + col_stats.deferred)
    for d in dset:
        emit("shard.device", device=d.name, kernel_busy_s=d.busy_s("kernel"),
             carry_busy_s=d.busy_s("carry") + d.busy_s("copy"),
             n_ops=len(d.ops))

    return ShardRun(
        output=out,
        launches=launches,
        algorithm=algorithm,
        device=",".join(dset.names),
        pair=tp.name,
        backend=backend_name,
        report=rep,
    )


def sharded_sat_series(
    frames,
    pair=None,
    algorithm: str = "brlt_scanrow",
    temporal: bool = False,
    device=None,
    backend=None,
    config=None,
    shard=None,
    **opts,
) -> ShardSeriesRun:
    """Streamed SAT over a frame series across the device set.

    Frames round-robin across devices with H2D copies pipelined on
    alternating streams, so copies and carry work overlap kernels.  With
    ``temporal=True`` the run returns the *integral video* — frame ``t``'s
    output is the elementwise (wraparound) sum of SATs of frames
    ``0..t`` — propagated along the series with the same
    decoupled-lookback descriptor chain the tile executor uses (Copik's
    parallel prefix over arbitrarily long series).
    """
    if hasattr(frames, "ndim") and getattr(frames, "ndim", 0) == 3:
        frames = [frames[i] for i in range(frames.shape[0])]
    frames = list(frames)
    if not frames:
        raise ValueError("empty frame series")
    shape = frames[0].shape
    for f in frames:
        if f.shape != shape:
            raise ValueError("all series frames must share one shape")
    cfg = ShardConfig.coerce(shard, device=device)
    tp = resolve_pair(frames[0], pair)
    spec = get_kernel_spec(algorithm)
    n_passes = len(spec.passes)
    dset = DeviceSet.from_spec(cfg.devices, cfg.streams_per_device)
    configs = _device_configs(dset, _resolve(config, backend, device, opts))

    in_size, acc_size = tp.input.size, tp.output.size
    n = len(frames)
    outputs: List[Optional[np.ndarray]] = [None] * n
    kops = []
    placements = []  # (frame index, device index, stream)
    seq = [0] * len(dset)
    for t, frame in enumerate(frames):
        di = t % len(dset)
        dev = dset.device(di)
        stream = seq[di] % len(dev.streams)
        seq[di] += 1
        cop = dev.enqueue(
            stream, "copy", (frame.size * in_size) / H2D_BW,
            f"h2d[f{t}]", frame=t, bytes=frame.size * in_size,
        )
        run = run_single(frame, pair=tp, algorithm=algorithm,
                         config=configs[dev.spec.name], **opts)
        outputs[t] = run.output
        kops.append(dev.enqueue(
            stream, "kernel",
            _kernel_cost_s(run, frame.shape, tp, dev, n_passes),
            f"sat[f{t}]", deps=[cop], frame=t,
        ))
        placements.append((t, di, stream))

    chain = None
    if temporal:
        chain = DescriptorChain(n, name="series")
        completion = sorted(range(n), key=lambda t: (kops[t].end_s, t))
        pending: List[int] = []
        for t in completion:
            chain.publish_aggregate(t, outputs[t])
            pending.append(t)
            progress = True
            while progress and pending:
                progress = False
                still = []
                for q in pending:
                    if chain.lookback(q) is None:
                        still.append(q)
                        continue
                    progress = True
                    tq, di, stream = placements[q]
                    dev = dset.device(di)
                    cstream = (stream + 1) % len(dev.streams)
                    deps = [kops[q]]
                    if q > 0:
                        deps.append(kops[q - 1])
                        if placements[q - 1][1] != di:
                            deps.append(dev.enqueue(
                                cstream, "copy",
                                D2D_ALPHA + (outputs[q].size * acc_size)
                                / D2D_BW,
                                f"d2d[f{q - 1}->f{q}]", deps=[kops[q - 1]],
                            ))
                    dev.enqueue(
                        cstream, "carry",
                        (2 * outputs[q].size * acc_size)
                        / dev.spec.global_bw,
                        f"carry[f{q}]", deps=deps, frame=q,
                    )
                pending = still
        outputs = [chain.prefix[t] for t in range(n)]

    rep = dset.report()
    rep.update({
        "algorithm": algorithm,
        "pair": tp.name,
        "frames": n,
        "frame_shape": list(shape),
        "temporal": temporal,
        "frames_per_s": (n / rep["makespan_s"] if rep["makespan_s"] else 0.0),
        "full_sweeps": 0,
        "carry_passes": 1 if temporal else 0,
        "lookback": chain.stats.to_dict() if chain else None,
    })
    emit("shard.series.frames", n, algorithm=algorithm)
    emit("shard.series", frames=n, temporal=temporal,
         makespan_s=rep["makespan_s"])
    return ShardSeriesRun(
        outputs=outputs, report=rep, algorithm=algorithm, pair=tp.name,
        backend=run.backend, temporal=temporal,
    )
