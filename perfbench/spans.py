"""Spans around the package's public calls, recorded from outside it.

The traced run replaces each public function or method listed in
:data:`TARGETS` with a wrapper that records a :class:`Span` (name, start,
end, parent, op id) and, for some calls, a small ``info`` value taken
from the arguments or the result (a cache instance, a batch's images, a
shard report).  ``from x import f`` copies the binding into the
importing module, so a function is replaced at every module of the
package that binds it.  :meth:`Recorder.uninstall` puts every original
back; the benchmark toggles the wrappers between operations so traced
and untraced operations interleave in one process.

Spans stay in memory and are written out by :meth:`Recorder.dump` once
the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: The measured package.
PACKAGE = "repro"

#: ``(span name, module, attribute path)`` for every call the traced run
#: times.  One name may cover several attributes (each request kind
#: overrides ``finish``).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("exec.resolve", "repro.exec.config", "resolve_execution"),
    ("plan.decide", "repro.plan.planner", "Planner.decide"),
    ("sat.pad", "repro.sat.common", "pad_matrix"),
    ("sat.crop", "repro.sat.common", "crop"),
    ("engine.run_batch", "repro.engine.batch", "Engine.run_batch"),
    ("engine.run_group", "repro.engine.batch", "Engine.run_group"),
    ("engine.plan_hit", "repro.engine.plan", "LaunchPlanCache.note_hit"),
    ("engine.plan_miss", "repro.engine.plan", "LaunchPlanCache.note_miss"),
    ("compile.lower", "repro.compile.lower", "compile_plan"),
    ("compile.run", "repro.compile.lower", "CompiledPlan.run"),
    ("gpusim.launch", "repro.gpusim.launch", "launch_kernel"),
    ("gpusim.replay", "repro.gpusim.launch", "replay_kernel"),
    ("gpusim.cost", "repro.gpusim.cost.model", "kernel_time"),
    ("shard.config", "repro.shard.executor", "ShardConfig.from_env"),
    ("shard.run", "repro.shard.executor", "sharded_sat"),
    ("serve.submit", "repro.serve.service", "SatService.submit"),
    ("serve.take", "repro.serve.batcher", "DynamicBatcher.take"),
    ("serve.finish", "repro.serve.request", "SatRequest.finish"),
    ("serve.finish", "repro.serve.request", "RectSumRequest.finish"),
    ("serve.finish", "repro.serve.request", "BoxFilterRequest.finish"),
    ("obs.metric", "repro.obs.metrics", "MetricsRegistry.counter"),
    ("obs.metric", "repro.obs.metrics", "MetricsRegistry.histogram"),
    ("obs.metric", "repro.obs.metrics", "MetricsRegistry.gauge"),
)


def _plan_cache_info(args, kwargs, result):
    cache = args[0]
    n = args[1] if len(args) > 1 else kwargs.get("n", 1)
    return (int(n), id(cache), cache.evictions)


def _shard_info(args, kwargs, result):
    rep = result.report
    deferred = sum(rep["lookback"][axis]["deferred"] for axis in ("row", "col"))
    return (int(rep["n_tiles"]), int(rep["retries"]), int(deferred))


def _take_info(args, kwargs, result):
    return None if result is None else [id(im) for im in result.images]


def _group_info(args, kwargs, result):
    images = args[1] if len(args) > 1 else kwargs["images"]
    return [id(im) for im in images]


#: Per-span facts read from a call's arguments or result, for the calls
#: whose metrics need more than a duration.
INFO: Dict[str, Callable[[tuple, dict, Any], Any]] = {
    "engine.plan_hit": _plan_cache_info,
    "engine.plan_miss": _plan_cache_info,
    "compile.run": lambda a, kw, r: a[1].size / 1e6,
    "shard.run": _shard_info,
    "serve.take": _take_info,
    "engine.run_group": _group_info,
}


@dataclass
class Span:
    """One timed call.  ``parent`` is the id of the enclosing span on the
    same thread (``-1`` for none); ``op`` is the caller's operation id
    for spans on the caller thread and ``-1`` on other threads."""

    id: int
    parent: int
    name: str
    start: float
    end: float
    op: int = -1
    phase: str = ""
    error: bool = False
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's.

    Children run on their parent's thread, nested inside it, so they
    never overlap one another and their durations add up to the part of
    the parent they cover.
    """
    spans = list(spans)
    child_total: Dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_total[s.parent] = child_total.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_total.get(s.id, 0.0) for s in spans}


def has_descendant(spans: Iterable[Span], names: Iterable[str]) -> set:
    """Ids of spans with at least one descendant named in ``names``."""
    spans = list(spans)
    names = set(names)
    parent_of = {s.id: s.parent for s in spans}
    marked = set()
    for s in spans:
        if s.name in names:
            p = s.parent
            while p >= 0 and p not in marked:
                marked.add(p)
                p = parent_of.get(p, -1)
    return marked


def _import_package() -> None:
    """Import every module of the package so no later import can copy a
    wrapper into a fresh binding that :meth:`Recorder.uninstall` misses."""
    pkg = importlib.import_module(PACKAGE)
    for mod in pkgutil.walk_packages(pkg.__path__, prefix=PACKAGE + "."):
        if not mod.name.endswith("__main__"):
            importlib.import_module(mod.name)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name.split(".")[0] == PACKAGE]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Recorder:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self):
        _import_package()
        self.spans: List[Span] = []
        #: Operation id and phase stamped on caller-thread spans.
        self.op = -1
        self.phase = "setup"
        self.caller = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, object]] = []
        self.installed = False
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patches.append(
                    (owner, attr, original, self._wrap_member(name, original)))
            else:
                fn = getattr(owner, attr)
                wrapper = self._wrap(name, fn)
                for mod in _package_modules():
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patches.append((mod, key, fn, wrapper))

    # -- wrappers ----------------------------------------------------------
    def _wrap_member(self, name: str, original):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(name, original.__func__))
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap(name, original.__func__))
        return self._wrap(name, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        rec = self
        info_of = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else -1
            on_caller = threading.get_ident() == rec.caller
            stack.append(sid)
            error = False
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                info = None
                if info_of is not None and not error:
                    info = info_of(args, kwargs, result)
                rec.spans.append(Span(
                    sid, parent, name, t0, t1,
                    op=rec.op if on_caller else -1, phase=rec.phase,
                    error=error, info=info,
                ))

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- install / restore ---------------------------------------------------
    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.installed = False

    def set_traced(self, on: bool) -> None:
        if on != self.installed:
            (self.install if on else self.uninstall)()

    def leftover_wrappers(self) -> List[str]:
        """Attributes of the package, or of its classes, still holding a
        wrapper."""
        found = []
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                members = [(key, val)]
                if isinstance(val, type):
                    members += [(f"{key}.{k}", v) for k, v in vars(val).items()]
                for name, v in members:
                    if hasattr(getattr(v, "__func__", v),
                               "__perfbench_original__"):
                        found.append(f"{mod.__name__}.{name}")
        return found

    # -- output --------------------------------------------------------------
    def dump(self, path: str, t0: float = 0.0) -> None:
        """Write the spans as JSON lines, times in microseconds from ``t0``."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start_us": round((s.start - t0) * 1e6, 1),
                    "end_us": round((s.end - t0) * 1e6, 1),
                    "op": s.op, "phase": s.phase, "error": s.error,
                }) + "\n")

