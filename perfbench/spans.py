"""Per-layer self-time spans around the repo's public layer entry points.

The benchmark traces the program from outside: :class:`LayerTracer` swaps
each entry point in :data:`TARGETS` for a wrapper that times the call and
restores the original on exit, so an untraced run executes the unmodified
code.  Spans nest on one stack; a layer's *self* time is its span minus the
spans of the layers it called, so the self times of one launch add up to the
launch wall (what is left is the caller's ``other`` time).  Spans are kept
in memory as per-layer sums; nothing is written while the run is timed.

Counters ride on the same wrappers (accesses recorded, bytes copied,
launches checked for races), so ratios are measured where the work happens.
Only the ``vectorized`` engine's entry points are wrapped, the engine every
benchmark launch uses; a launch that fell back to another engine would show
its engine time as the caller's self time.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.descend.driver import CompileSession
from repro.descend.interp.device import DescendKernel
from repro.gpusim.cost import CostModel
from repro.gpusim.device import GpuDevice
from repro.gpusim.engine.vectorized import VectorizedEngine
from repro.gpusim.races import RaceDetector


def _cost_lanes(args, kwargs) -> int:
    """Lanes of one ``CostModel.record_access_batch(self, blocks, warps, slots, addresses, ...)``."""
    return int(np.size(kwargs["addresses"] if "addresses" in kwargs else args[4]))


def _race_lanes(args, kwargs) -> int:
    """Lanes of one ``RaceDetector.record_batch(self, buffer_id, offsets, ...)``."""
    return int(np.size(kwargs["offsets"] if "offsets" in kwargs else args[2]))


def _nbytes(args, kwargs) -> int:
    """Bytes moved by ``to_device(array)`` / ``to_host(buffer)``."""
    return int(getattr(args[1], "nbytes", 0))


#: ``(owner, attribute, layer, counter, count_fn)``.  ``count_fn`` maps the
#: call's ``(args, kwargs)`` to an amount added to ``counter``.
TARGETS: Tuple[Tuple[type, str, str, Optional[str], Optional[Callable]], ...] = (
    (DescendKernel, "launch", "descend.interp.launch", None, None),
    (CompileSession, "device_plan", "descend.driver.plan_resolve", None, None),
    (GpuDevice, "launch", "gpusim.device.launch", None, None),
    (VectorizedEngine, "run", "gpusim.engine.run", None, None),
    (CostModel, "record_access_batch", "gpusim.cost.record", "gpusim.cost.accesses", _cost_lanes),
    (CostModel, "finalize", "gpusim.cost.finalize", None, None),
    (RaceDetector, "record_batch", "gpusim.races.record", "gpusim.races.accesses", _race_lanes),
    (RaceDetector, "check", "gpusim.races.check", "gpusim.races.checked_launches",
     lambda a, k: 1),
    (GpuDevice, "to_device", "gpusim.device.copy", "gpusim.device.copy_bytes", _nbytes),
    (GpuDevice, "to_host", "gpusim.device.copy", "gpusim.device.copy_bytes", _nbytes),
)

#: Every layer a launch can spend self time in (copies happen around launches).
LAUNCH_LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, _, layer, _, _ in TARGETS if layer != "gpusim.device.copy")
)
LAYERS: Tuple[str, ...] = LAUNCH_LAYERS + ("gpusim.device.copy",)
COUNTERS: Tuple[str, ...] = tuple(
    dict.fromkeys(counter for _, _, _, counter, _ in TARGETS if counter)
)


class LayerTracer:
    """Installs the wrappers of :data:`TARGETS` while used as a context manager."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: one child-time accumulator per open span
        self._stack: List[int] = []
        self._saved: List[Tuple[type, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        for owner, attr, layer, counter, count_fn in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, counter, count_fn))
        return self

    def __exit__(self, *_exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer: str, counter: Optional[str], count_fn: Optional[Callable]):
        stack = self._stack
        self_ns = self.self_ns
        counts = self.counts

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += count_fn(args, kwargs)
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                self_ns[layer] += duration - stack.pop()
                if stack:
                    stack[-1] += duration

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    def layer_seconds(self, layers=LAYERS) -> float:
        """Summed self time of ``layers`` so far, in seconds."""
        return sum(self.self_ns.get(layer, 0) for layer in layers) / 1e9
