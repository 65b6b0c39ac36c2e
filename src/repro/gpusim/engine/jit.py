"""The jit execution engine: codegen'd kernels over the vectorized context.

This engine runs plan-JIT kernels (straight-line Python emitted by
:mod:`repro.descend.plan.codegen`, registered with
:func:`~repro.gpusim.engine.base.jit_impl`) over the same grid-wide
:class:`~repro.gpusim.engine.vectorized.VecCtx` the vectorized engine uses.
The recording surface is identical, and so is the accounting: both engines
record into the one :class:`~repro.gpusim.cost.CostModel` and
:class:`~repro.gpusim.races.RaceDetector`, so cycle counts and race
verdicts are identical by construction.  Any speedup over ``vectorized`` is
the generated code's alone.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional, Sequence

from repro.errors import LaunchConfigurationError
from repro.gpusim.cost import CostModel
from repro.gpusim.engine.base import Dim3, EngineStats, ExecutionEngine, resolve_jit
from repro.gpusim.engine.vectorized import VecCtx
from repro.gpusim.races import RaceDetector


class JitEngine(ExecutionEngine):
    """Runs codegen'd plan kernels over the grid-wide vectorized context."""

    name = "jit"

    def run(
        self,
        kernel: Callable,
        args: Sequence[object],
        grid_dim: Dim3,
        block_dim: Dim3,
        cost: Optional[CostModel],
        races: Optional[RaceDetector],
        warp_size: int = 32,
    ) -> EngineStats:
        impl = resolve_jit(kernel)
        if impl is None:
            name = getattr(kernel, "__name__", repr(kernel))
            raise LaunchConfigurationError(
                f"kernel `{name}` has no jit implementation; register one "
                "with @jit_impl or launch with execution_mode='reference'"
            )
        ctx = VecCtx(grid_dim, block_dim, cost=cost, races=races, warp_size=warp_size)
        result = impl(ctx, *tuple(args))
        if inspect.isgenerator(result):
            raise LaunchConfigurationError(
                "jit kernels must be plain functions that call ctx.sync(), not generators"
            )
        return EngineStats(barriers=ctx.barriers)
