"""The engine's worker pool: independent host work on every core.

Blocks along a kernel's grid-parallel axis never communicate (Sec. IV),
and NumPy releases the interpreter lock inside its loops, so independent
pieces of one call can run at once on the host's cores.  The pool has
two users:

* the sharded executor computes its tiles on it as a
  dependency-ordered wavefront (:mod:`repro.shard.executor`);
* the engine runs the lowered program of a deep warm stack on one depth
  slice per core (:func:`split_depth`).

Rules
-----
* One pool per process, created on first use, with one thread per core
  this process may run on (:func:`parts`).  It has no setting.
* A task runs under a copy of the submitting thread's :mod:`contextvars`
  context (execution config, tracer, timeline accumulator) and in that
  thread's span lineage, so its spans nest where the caller's would.
* Work started on a pool thread, or with one part, runs inline, so a
  pool thread never waits for a task that is still queued.
* :func:`run_all` runs its first item on the calling thread and takes
  back every item no pool thread has started, so a caller that holds a
  plan's lock never waits for a queued task either.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..obs.context import TraceContext
from ..obs.trace import current_tracer

__all__ = ["PARALLEL_MIN_ELEMS", "parts", "run_all", "split_depth",
           "submit"]

#: A warm stack of at least this many elements, and depth >= 2, runs its
#: lowered program on one depth slice per core.  Median µs of a warm
#: ``brlt_scanrow`` program on a 2-vCPU host, whole stack / two slices
#: at once:
#:
#: ======================  ==============  ==============
#: stack (elements)        float32         int32
#: ======================  ==============  ==============
#: 2 x 128 x 128 (32K)     553 / 734       243 / 425
#: 8 x 128 x 128 (128K)    1701 / 1429     944 / 884
#: 4 x 256 x 256 (256K)    3185 / 2894     1494 / 1690
#: 2 x 512 x 512 (512K)    6660 / 4357     2717 / 2626
#: 3 x 512 x 512 (768K)    8947 / 6504     4236 / 3246
#: 4 x 512 x 512 (1M)      10601 / 6873    5576 / 3985
#: 6 x 512 x 512 (1.5M)    14665 / 9191    8791 / 5436
#: ======================  ==============  ==============
#:
#: Floats gain from about 128K elements and integers from about 768K;
#: at 1M both run about 1.4x faster split.  Below the constant a split
#: costs more in thread hand-offs than it saves.
PARALLEL_MIN_ELEMS = 1 << 20

_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_local = threading.local()


def parts() -> int:
    """How many tasks run at once: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _inline() -> bool:
    """Whether work started here runs on the calling thread: on a pool
    thread, or with one part."""
    return getattr(_local, "worker", False) or parts() < 2


def _mark_worker() -> None:
    _local.worker = True


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=parts(),
                                       thread_name_prefix="repro-pool",
                                       initializer=_mark_worker)
        return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads."""
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _call(tracer, lineage, fn, args):
    if tracer is None:
        return fn(*args)
    with tracer.activate(lineage):
        return fn(*args)


def _bind(fn: Callable, args: tuple) -> Callable[[], object]:
    """``fn(*args)`` as a task for another thread: under a copy of this
    thread's context, in this thread's span lineage."""
    ctx = contextvars.copy_context()
    tracer = current_tracer()
    lineage = None
    if tracer is not None:
        trace_id, parent = tracer.lineage()
        lineage = TraceContext(trace_id, parent or 0)
    return lambda: ctx.run(_call, tracer, lineage, fn, args)


def _run_here(task: Callable[[], object]) -> Future:
    fut: Future = Future()
    fut.set_running_or_notify_cancel()
    try:
        fut.set_result(task())
    except Exception as exc:
        fut.set_exception(exc)
    return fut


def submit(fn: Callable, *args) -> Future:
    """Start ``fn(*args)`` on the pool; returns its future.  Where work
    runs inline (on a pool thread, or with one part) the task runs now
    and the future is already done."""
    task = _bind(fn, args)
    if _inline():
        return _run_here(task)
    return _executor().submit(task)


def run_all(fn: Callable, items: Sequence) -> List:
    """``[fn(x) for x in items]``, with the items running at once.

    The calling thread runs the first item, and then every item no pool
    thread has started yet, so it waits only for items that are running.
    Every item finishes before this returns; the first failure, in item
    order, is then raised.
    """
    if len(items) < 2 or _inline():
        return [fn(x) for x in items]
    futs = [submit(fn, x) for x in items[1:]]
    done = [_run_here(lambda: fn(items[0]))]
    for x, fut in zip(items[1:], futs):
        done.append(_run_here(lambda x=x: fn(x)) if fut.cancel() else fut)
    wait(done)
    return [f.result() for f in done]


def split_depth(stack: np.ndarray) -> List[np.ndarray]:
    """``stack``'s depth slices, one per core, when it is deep and large
    enough (:data:`PARALLEL_MIN_ELEMS`) and work here does not run
    inline; otherwise ``[stack]``.  The slices are views."""
    if stack.shape[0] < 2 or stack.size < PARALLEL_MIN_ELEMS:
        return [stack]
    n = min(stack.shape[0], parts())
    if n < 2 or _inline():
        return [stack]
    return np.array_split(stack, n)
