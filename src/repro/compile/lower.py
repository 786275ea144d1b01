"""Lower recorded launch plans into closed-form compiled programs.

:func:`compile_plan` walks a :class:`~repro.exec.registry.KernelSpec`'s
passes next to the per-pass :class:`~repro.gpusim.launch.LaunchPlan`\\ s a
cold run recorded, and asks each pass's declared ``lower`` hook for a
whole-grid NumPy program.  The hook receives the recorded
:class:`~repro.gpusim.launch.LaunchStats` — the launch geometry is read
from the *recorded* block dims (``warps_per_block = prod(block) // 32``),
never re-derived, so the compiled program replays exactly the launch the
plan captured.

A :class:`CompiledPlan` executes on ``(depth, H, W)`` stacks of padded
images in the accumulator dtype.  Stacking is free: every lowered program
vectorises over all leading axes because blocks along the grid-parallel
axis never communicate (the same invariant behind the engine's stacked
replays).  Outputs are bit-identical to the interpreted path per image;
counters and timings are *not* produced here — the executing layer clones
them from the recorded cold launch.

Two optimisation rules beyond straight-line lowering, both bit-exact:

* **Layout propagation.**  A pass that ends in a per-image transposed
  store never materialises it; :meth:`CompiledPlan.run` carries the
  pending transpose as a flag and asks the *next* pass to scan the other
  physical axis instead.  A transpose is only materialised (via
  :func:`~repro.compile.ops.transpose_scatter`) when the next pass has no
  implementation for the required physical axis, or at the very end.
  Transposes move data without changing any value, so eliding them cannot
  change a single output bit.
* **Associativity strength reduction.**  Integer addition wraps modulo
  ``2**n`` and is therefore fully associative — *any* summation order
  produces identical bits.  Integer-accumulator passes lower to plain
  whole-row / whole-column accumulates (no chunking, no strip offsets)
  and implement both physical axes, so integer plans run transpose-free.
  Float addition is not associative, so float passes keep the kernels'
  exact association (:mod:`repro.compile.ops`).  The float serial-scan
  passes still implement both axes — their column body performs the
  transposed row program's additions in place — while float ScanRow-BRLT,
  whose warp scans work on the lane axis, implements only rows.

Anything the compiler cannot prove it can lower — a pass without a
``lower`` hook, an unknown scan variant, un-recorded plans — raises
:class:`CompileError`; callers fall back to the interpreted path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence

import numpy as np

from .ops import transpose_scatter

__all__ = [
    "CompileError", "LoweredPass", "CompiledPass", "CompiledPlan",
    "compile_plan",
]


class CompileError(RuntimeError):
    """A launch plan could not be lowered to a compiled program."""


@dataclass
class LoweredPass:
    """What a pass's ``lower`` hook hands back: physical-axis scan bodies.

    ``rows`` scans along the last axis of a ``(depth, H, W)`` stack,
    ``cols`` along axis 1; either may be ``None`` when the pass has no
    program for that orientation (the executor materialises a transpose
    first).  Bodies may scan **in place** — the executing layers hand the
    program a private staging stack, or a one-image view of the run's
    output destination, which may be a strided slice of a larger array
    (the in-place bodies scan such a view without a reshape copy).
    ``col_major`` marks passes whose *logical* scan runs down columns
    (ScanColumn).
    """

    rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cols: Optional[Callable[[np.ndarray], np.ndarray]] = None
    col_major: bool = False


@dataclass
class CompiledPass:
    """One lowered kernel pass: scan bodies plus its logical geometry."""

    name: str
    #: Scan along the last (row) physical axis, or ``None``.
    rows: Optional[Callable[[np.ndarray], np.ndarray]]
    #: Scan along physical axis 1 (down columns), or ``None``.
    cols: Optional[Callable[[np.ndarray], np.ndarray]]
    #: The pass's logical scan axis is the column axis.
    col_major: bool
    #: Whether the pass ends with a per-image transposed store.
    transposed: bool


@dataclass
class CompiledPlan:
    """The closed-form program for one plan-cache bucket."""

    algorithm: str
    pair: str
    passes: List[CompiledPass] = field(default_factory=list)
    #: Completed :meth:`run` calls (for introspection/tests).
    executions: int = 0
    #: Transposes materialised across all runs (elided ones don't count).
    transposes: int = 0
    #: Guards the two counters: the engine runs a program on several
    #: stacks at once (depth slices, warm in-place tiles).
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def run(self, stack: np.ndarray) -> np.ndarray:
        """Execute all passes over a padded ``(depth, H, W)`` stack.

        The stack must already be in the accumulator dtype and must be
        private to this call (a staging stack, or a view of the caller's
        output destination): lowered passes may scan it in place, and
        the returned array may alias it.

        ``t`` tracks the pending per-image transpose: when true, ``cur``
        holds the transposed image of the logical intermediate.  A pass
        whose required physical axis has no body forces materialisation.
        """
        cur = stack
        t = False
        transposes = 0
        for p in self.passes:
            want_cols = p.col_major != t
            if want_cols and p.cols is not None:
                cur = p.cols(cur)
            elif not want_cols and p.rows is not None:
                cur = p.rows(cur)
            else:
                cur = transpose_scatter(cur)
                transposes += 1
                t = not t
                want_cols = p.col_major != t
                cur = p.cols(cur) if want_cols else p.rows(cur)
            t = t != p.transposed
        if t:
            cur = transpose_scatter(cur)
            transposes += 1
        with self._lock:
            self.transposes += transposes
            self.executions += 1
        return cur


def compile_plan(spec, launch_plans: Sequence, tp,
                 opts: Optional[Mapping] = None) -> CompiledPlan:
    """Lower ``spec``'s passes against their recorded launch plans.

    Parameters
    ----------
    spec:
        The :class:`~repro.exec.registry.KernelSpec` (its passes carry the
        ``lower`` hooks).
    launch_plans:
        One recorded :class:`~repro.gpusim.launch.LaunchPlan` per pass
        (the plan-cache entry's ``launch_plans``).
    tp, opts:
        The dtype pair and the algorithm options the cold run used (the
        scan variant selects the lowered warp scan).
    """
    if len(launch_plans) != len(spec.passes):
        raise CompileError(
            f"{spec.algorithm}: {len(launch_plans)} launch plans for "
            f"{len(spec.passes)} passes"
        )
    passes: List[CompiledPass] = []
    for p, lp in zip(spec.passes, launch_plans):
        if p.lower is None:
            raise CompileError(f"pass {p.name!r} declares no lowering")
        if getattr(lp, "stats", None) is None:
            raise CompileError(f"pass {p.name!r} has no recorded launch")
        try:
            low = p.lower(lp.stats, tp, dict(opts or {}))
        except CompileError:
            raise
        except Exception as e:  # defensive: a broken hook must not crash
            raise CompileError(f"lowering {p.name!r} failed: {e}") from e
        if low is None or (low.rows is None and low.cols is None):
            raise CompileError(f"pass {p.name!r} declined to lower")
        passes.append(CompiledPass(
            name=p.name, rows=low.rows, cols=low.cols,
            col_major=low.col_major, transposed=p.transposed,
        ))
    return CompiledPlan(algorithm=spec.algorithm, pair=tp.name, passes=passes)
