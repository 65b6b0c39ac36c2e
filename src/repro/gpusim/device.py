"""The device front-end: allocation, host<->device copies, kernel launches.

:class:`GpuDevice` plays the role of the CUDA runtime API in the paper's
heterogeneous programming model.  Copy directions are explicit (as in
``cudaMemcpy``) and mismatching the direction raises an error — the dynamic
analogue of the ``copy_mem_to_host`` example of Section 2.3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataRaceError, DeviceMemoryError, LaunchConfigurationError
from repro.gpusim.buffer import DeviceBuffer, HostBuffer
from repro.gpusim.cost import CostModel, CostParameters, KernelCost
from repro.gpusim.engine import get_engine
from repro.gpusim.launch import Dim3, normalize_dim3
from repro.gpusim.races import RaceDetector, RaceReport


class CopyDirection(enum.Enum):
    """Direction of a host/device copy (mirrors ``cudaMemcpyKind``)."""

    HOST_TO_DEVICE = "host_to_device"
    DEVICE_TO_HOST = "device_to_host"


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    kernel_name: str
    grid_dim: Dim3
    block_dim: Dim3
    cost: KernelCost
    races: List[RaceReport] = field(default_factory=list)
    barriers: int = 0
    execution_mode: str = "reference"

    @property
    def cycles(self) -> float:
        return self.cost.cycles

    def raise_on_races(self) -> "LaunchResult":
        if self.races:
            raise DataRaceError(
                f"kernel `{self.kernel_name}` contains data races: "
                + "; ".join(r.describe() for r in self.races[:3]),
                races=self.races,
            )
        return self


@dataclass
class DeviceProperties:
    """Static properties of the simulated device."""

    name: str = "repro-sim (P100-like)"
    max_threads_per_block: int = 1024
    max_grid_dim: Tuple[int, int, int] = (2 ** 31 - 1, 65535, 65535)
    max_block_dim: Tuple[int, int, int] = (1024, 1024, 64)
    warp_size: int = 32
    shared_memory_per_block: int = 48 * 1024


class GpuDevice:
    """A simulated GPU device.

    ``execution_mode`` selects the default engine for kernel launches:
    ``"reference"`` (per-thread generator interpreter, the semantic baseline)
    or ``"vectorized"`` (lockstep numpy execution, identical cycle counts,
    an order of magnitude faster — requires kernels registered with
    :func:`repro.gpusim.engine.vectorized_impl`).  Individual launches can
    override it via ``launch(..., execution_mode=...)``.
    """

    def __init__(
        self,
        cost_parameters: CostParameters = CostParameters(),
        properties: DeviceProperties = DeviceProperties(),
        detect_races: bool = True,
        execution_mode: str = "reference",
    ) -> None:
        self.cost_parameters = cost_parameters
        self.properties = properties
        self.detect_races = detect_races
        get_engine(execution_mode)  # validate eagerly
        self.execution_mode = execution_mode
        self._allocations: Dict[int, DeviceBuffer] = {}
        self.launch_log: List[LaunchResult] = []

    # -- memory management ------------------------------------------------------------
    def malloc(self, shape: Sequence[int], dtype=np.float64, label: str = "") -> DeviceBuffer:
        buffer = DeviceBuffer.allocate(shape, dtype=dtype, space="global", label=label)
        self._allocations[buffer.buffer_id] = buffer
        return buffer

    def free(self, buffer: DeviceBuffer) -> None:
        self._allocations.pop(buffer.buffer_id, None)

    def allocated_bytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._allocations.values())

    def to_device(self, array: np.ndarray, label: str = "") -> DeviceBuffer:
        """Allocate a global buffer and copy a host array into it."""
        array = np.asarray(array)
        buffer = self.malloc(array.shape, dtype=array.dtype, label=label)
        buffer.data[:] = array.reshape(-1)
        return buffer

    def memcpy(self, dst, src, direction: CopyDirection) -> None:
        """Copy between host and device buffers with an explicit direction.

        Passing arguments that do not match the direction raises a
        :class:`DeviceMemoryError` — this is the unsafe CUDA behaviour that
        Descend's reference types rule out statically.
        """
        if direction is CopyDirection.HOST_TO_DEVICE:
            if not isinstance(dst, DeviceBuffer) or not isinstance(src, HostBuffer):
                raise DeviceMemoryError(
                    "HOST_TO_DEVICE copy needs a device destination and a host source"
                )
            dst.copy_from_host(src)
            return
        if direction is CopyDirection.DEVICE_TO_HOST:
            if not isinstance(dst, HostBuffer) or not isinstance(src, DeviceBuffer):
                raise DeviceMemoryError(
                    "DEVICE_TO_HOST copy needs a host destination and a device source"
                )
            src.copy_to_host(dst)
            return
        raise DeviceMemoryError(f"unknown copy direction {direction!r}")

    def to_host(self, buffer: DeviceBuffer) -> np.ndarray:
        return buffer.as_array()

    # -- launching -----------------------------------------------------------------------
    def _validate_launch(self, grid_dim: Dim3, block_dim: Dim3) -> None:
        props = self.properties
        threads = block_dim[0] * block_dim[1] * block_dim[2]
        if threads == 0 or grid_dim[0] * grid_dim[1] * grid_dim[2] == 0:
            raise LaunchConfigurationError("grid and block dimensions must be positive")
        if threads > props.max_threads_per_block:
            raise LaunchConfigurationError(
                f"{threads} threads per block exceed the device limit of "
                f"{props.max_threads_per_block}"
            )
        for axis in range(3):
            if block_dim[axis] > props.max_block_dim[axis]:
                raise LaunchConfigurationError(
                    f"block dimension {block_dim} exceeds device limit {props.max_block_dim}"
                )
            if grid_dim[axis] > props.max_grid_dim[axis]:
                raise LaunchConfigurationError(
                    f"grid dimension {grid_dim} exceeds device limit {props.max_grid_dim}"
                )

    def launch(
        self,
        kernel: Callable,
        grid_dim,
        block_dim,
        args: Sequence[object] = (),
        kernel_name: Optional[str] = None,
        detect_races: Optional[bool] = None,
        execution_mode: Optional[str] = None,
    ) -> LaunchResult:
        """Execute a kernel over the given grid and collect cost/race reports."""
        grid_dim = normalize_dim3(grid_dim)
        block_dim = normalize_dim3(block_dim)
        self._validate_launch(grid_dim, block_dim)

        mode = execution_mode if execution_mode is not None else self.execution_mode
        engine = get_engine(mode)
        # One accounting implementation serves both engines: the reference
        # engine records per access, the vectorized engine records whole
        # vector operations, and the cost model folds canonical full-grid
        # batches as they arrive (hence the geometry).
        threads_per_block = block_dim[0] * block_dim[1] * block_dim[2]
        cost = CostModel(
            self.cost_parameters,
            threads_per_block=threads_per_block,
            warp_size=self.properties.warp_size,
        )
        races_enabled = self.detect_races if detect_races is None else detect_races
        detector = RaceDetector() if races_enabled else None

        stats = engine.run(
            kernel=kernel,
            args=tuple(args),
            grid_dim=grid_dim,
            block_dim=block_dim,
            cost=cost,
            races=detector,
            warp_size=self.properties.warp_size,
        )

        blocks = grid_dim[0] * grid_dim[1] * grid_dim[2]
        result = LaunchResult(
            kernel_name=kernel_name or getattr(kernel, "__name__", "<kernel>"),
            grid_dim=grid_dim,
            block_dim=block_dim,
            cost=cost.finalize(blocks=blocks, threads_per_block=threads_per_block),
            races=detector.check() if detector is not None else [],
            barriers=stats.barriers,
            execution_mode=mode,
        )
        self.launch_log.append(result)
        return result
