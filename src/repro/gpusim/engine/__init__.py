"""Execution engines of the GPU simulator.

The simulator can execute a kernel launch with one of three interchangeable
engines:

* ``"reference"`` (:mod:`repro.gpusim.engine.reference`) — the original
  generator-based interpreter: every thread is a Python generator, barriers
  are ``yield`` points, and every memory access is recorded individually.
  It detects barrier divergence and is the semantic baseline.
* ``"vectorized"`` (:mod:`repro.gpusim.engine.vectorized`) — the
  warp-vectorized engine: all threads of the whole grid execute in lockstep
  over numpy index arrays, memory accesses are bulk gathers/scatters, and the
  cost model and race detector receive batched access records.  It produces
  *identical* cycle counts and race verdicts at a fraction of the wall-clock
  time, but requires a vectorized kernel implementation (registered with
  :func:`vectorized_impl`).
* ``"jit"`` (:mod:`repro.gpusim.engine.jit`) — runs plan-JIT kernels
  (straight-line Python emitted by the ``lower.plan.codegen`` pass,
  registered with :func:`jit_impl`) over the same grid-wide ``VecCtx``.
  Same cycle counts and race verdicts again.

Every engine records into the one :class:`~repro.gpusim.cost.CostModel` and
:class:`~repro.gpusim.races.RaceDetector` that ``GpuDevice.launch`` builds.
The reference engine records access by access; the batched engines record
one batch per vector operation, lanes in canonical (block-major,
thread-minor) order.  A batch with every lane active and all lanes at one
slot is folded into the cost totals as it is recorded; every other batch is
grouped at the end of the launch by one lexicographic sort.

Engines are selected per device (``GpuDevice(execution_mode=...)``) or per
launch (``device.launch(..., execution_mode=...)``).
"""

from repro.gpusim.engine.base import (
    EXECUTION_MODES,
    EngineStats,
    ExecutionEngine,
    get_engine,
    jit_impl,
    resolve_jit,
    resolve_reference,
    resolve_vectorized,
    vectorized_impl,
)
from repro.gpusim.engine.jit import JitEngine
from repro.gpusim.engine.reference import ReferenceEngine
from repro.gpusim.engine.vectorized import VecCtx, VecLocalBuffer, VecSharedBuffer, VectorizedEngine

__all__ = [
    "EXECUTION_MODES",
    "EngineStats",
    "ExecutionEngine",
    "JitEngine",
    "ReferenceEngine",
    "VecCtx",
    "VecLocalBuffer",
    "VecSharedBuffer",
    "VectorizedEngine",
    "get_engine",
    "jit_impl",
    "resolve_jit",
    "resolve_reference",
    "resolve_vectorized",
    "vectorized_impl",
]
