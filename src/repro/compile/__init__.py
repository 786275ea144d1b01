"""Plan compilation: closed-form NumPy replay of recorded launch plans.

The simulated SAT kernels are deterministic array programs: control flow
depends only on launch geometry, never on data values (the invariant the
plan cache of :mod:`repro.engine` already relies on).  This package
pushes that one step further — instead of *replaying* a recorded launch
through the interpreter, it *lowers* the launch plan into a
:class:`~repro.compile.lower.CompiledPlan`:
a closed-form sequence of whole-grid NumPy gather/cumsum/scatter
operations per kernel pass, bit-identical to the interpreted execution
(including float summation order) but with zero interpreter steps.

:mod:`repro.compile.ops` holds the lowered building blocks (warp-scan
emulators, the strip-offset/carry programs, the transposed store);
:mod:`repro.compile.lower` assembles them into compiled plans from a
:class:`~repro.exec.registry.KernelSpec` plus the recorded per-pass
:class:`~repro.gpusim.launch.LaunchStats`.  Every warm bucket of the
engine (:mod:`repro.engine`) consumes them, for single ``sat()`` calls
and batches alike.
"""

from .lower import CompiledPass, CompiledPlan, CompileError, compile_plan

__all__ = ["CompiledPass", "CompiledPlan", "CompileError", "compile_plan"]
