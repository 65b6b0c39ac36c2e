"""The Figure 8 programs the benchmark launches, in both variants.

Every (program, size) *cell* runs either as a Descend program, launched with
``CompiledProgram.kernel(f).launch``, or as the hand-written CUDA-lite
kernels, launched with ``GpuDevice.launch``.  The launch sequences are the
repo's own (:mod:`repro.benchsuite.runner`); this module gives them the
benchmark's seeded inputs and times each launch from outside
(:class:`LaunchLog`).  Both variants get the same parameters and inputs and
are checked the same way:

* the output against a numpy reference (``np.allclose``),
* every launch's kernel name, simulated cycles and race count against the
  golden table ``golden.json`` (written by ``golden.py`` from the
  per-thread ``reference`` engine), exactly.

Inputs come only from the benchmark seed: :func:`make_cell` seeds one numpy
generator per ``(seed, program, size)``, so the same seed gives the same
bytes in every process.  (The runner's own input generator is not used: it
seeds from ``hash(label)``, which changes from process to process.)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.benchsuite.runner import _CUDA_RUNNERS, _DESCEND_BUILDERS, _DESCEND_RUNNERS
from repro.cudalite.kernels import buggy as cu_buggy
from repro.descend.interp.device import DescendKernel
from repro.gpusim import GpuDevice

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

PROGRAMS: Tuple[str, ...] = ("reduce", "transpose", "scan", "matmul", "histogram", "stencil")

#: Parameters per program and size: the repo's Figure 8 ``small`` and
#: ``medium`` footprints at scale 2, fixed here so the benchmark does not
#: move when the repo's own workload table does.  At these sizes one
#: vectorized launch takes 5-250 ms and matmul/medium, the slowest cell,
#: is about a third of a round.
PARAMS: Dict[str, Dict[str, Dict[str, int]]] = {
    "reduce": {
        "small": {"n": 8192, "block_size": 64},
        "medium": {"n": 16384, "block_size": 64},
    },
    "transpose": {
        "small": {"n": 64, "tile": 16, "rows": 4},
        "medium": {"n": 128, "tile": 16, "rows": 4},
    },
    "scan": {
        "small": {"n": 4096, "block_size": 32, "elems_per_thread": 4},
        "medium": {"n": 8192, "block_size": 32, "elems_per_thread": 4},
    },
    "matmul": {
        "small": {"m": 32, "k": 32, "n": 32, "tile": 8},
        "medium": {"m": 48, "k": 48, "n": 48, "tile": 8},
    },
    "histogram": {
        "small": {"n": 2048, "bins": 16, "num_blocks": 8},
        "medium": {"n": 4096, "bins": 16, "num_blocks": 8},
    },
    "stencil": {
        "small": {"n": 8192, "block_size": 64},
        "medium": {"n": 16384, "block_size": 64},
    },
}
SIZES: Tuple[str, ...] = ("small", "medium")

#: The race canary: Listing 1's buggy transpose must be reported racy.
CANARY = "buggy_transpose"
CANARY_PARAMS = {"n": 64, "tile": 16, "rows": 4}

DESCEND_BUILDERS: Dict[str, Callable] = _DESCEND_BUILDERS
RUNNERS: Dict[str, Dict[str, Callable]] = {"descend": _DESCEND_RUNNERS, "cudalite": _CUDA_RUNNERS}
#: The class whose ``launch`` is each variant's launch entry point.
LAUNCH_ENTRY: Dict[str, type] = {"descend": DescendKernel, "cudalite": GpuDevice}


@dataclass
class Cell:
    """One (program, size) pair with its seeded inputs and numpy reference.

    ``data`` has the form the runner's per-program functions take.
    """

    program: str
    size: str
    params: Dict[str, int]
    data: object
    reference: np.ndarray

    @property
    def label(self) -> str:
        return f"{self.program}/{self.size}"


def make_cell(program: str, size: str, seed: int) -> Cell:
    """Inputs and reference of one cell, derived from ``seed`` alone."""
    params = PARAMS[program][size]
    rng = np.random.default_rng([seed, PROGRAMS.index(program), SIZES.index(size)])
    if program == "reduce":
        data = rng.random(params["n"])
        return Cell(program, size, params, data, data.reshape(-1, params["block_size"]).sum(axis=1))
    if program == "transpose":
        data = rng.random((params["n"], params["n"]))
        return Cell(program, size, params, data, data.T.copy())
    if program == "scan":
        data = rng.random(params["n"])
        return Cell(program, size, params, data, np.cumsum(data))
    if program == "matmul":
        a = rng.random((params["m"], params["k"]))
        b = rng.random((params["k"], params["n"]))
        return Cell(program, size, params, (a, b), a @ b)
    if program == "histogram":
        keys = rng.integers(0, params["bins"], params["n"]).astype(np.float64)
        counts = np.bincount(keys.astype(np.int64), minlength=params["bins"])
        return Cell(program, size, params, keys, counts.astype(np.float64))
    if program == "stencil":
        data = rng.random(params["n"] + 2)
        return Cell(program, size, params, data, (data[:-2] + data[1:-1] + data[2:]) / 3.0)
    raise ValueError(f"unknown program {program!r}")


def make_canary_input(seed: int) -> np.ndarray:
    n = CANARY_PARAMS["n"]
    return np.random.default_rng([seed, len(PROGRAMS)]).random((n, n))


class LaunchLog:
    """Times every call of one variant's launch entry point while active.

    Used as a context manager, it replaces ``owner.launch`` (see
    :data:`LAUNCH_ENTRY`) with a wrapper that keeps each call's wall, its
    CPU time and its :class:`LaunchResult`, and restores the original on
    exit.  Only the launch call is inside a sample; copies and host steps
    between launches are not.

    The CPU time is this process's (``time.process_time``): the simulator
    runs on the calling thread, so on a host of its own it equals the wall,
    but it leaves out the time a shared host gives other tenants on this
    CPU.  Linux guests with paravirtual steal accounting do not charge
    stolen time to the process, and a wait in the run queue is not CPU time
    either.
    """

    def __init__(self, variant: str) -> None:
        self.owner = LAUNCH_ENTRY[variant]
        self.results: List[object] = []
        self.walls: List[float] = []
        self.cpu: List[float] = []
        self._original = None

    def __enter__(self) -> "LaunchLog":
        original = self._original = self.owner.__dict__["launch"]

        def launch(*args, **kwargs):
            return self.time(lambda: original(*args, **kwargs))

        self.owner.launch = launch
        return self

    def __exit__(self, *_exc) -> None:
        self.owner.launch = self._original

    def time(self, call: Callable[[], object]):
        start, cpu = perf_counter(), process_time()
        result = call()
        self.cpu.append(process_time() - cpu)
        self.walls.append(perf_counter() - start)
        self.results.append(result)
        return result


def run_cell(variant: str, device: GpuDevice, cell: Cell, log: LaunchLog) -> np.ndarray:
    """Launch one cell through the runner; returns the output copied back to the host."""
    with log:
        _, output, _, _ = RUNNERS[variant][cell.program](device, cell.params, cell.data)
    return output


def run_canary(device: GpuDevice, data: np.ndarray, log: LaunchLog) -> np.ndarray:
    """Listing 1's buggy transpose: the one launch that must report races."""
    n, tile = CANARY_PARAMS["n"], CANARY_PARAMS["tile"]
    inp = device.to_device(data.reshape(-1), label="input")
    out = device.malloc((n * n,), label="output")
    with log:
        device.launch(cu_buggy.buggy_transpose_kernel, (n // tile, n // tile),
                      (tile, CANARY_PARAMS["rows"]), args=(inp, out, n, tile),
                      kernel_name="cuda_buggy_transpose")
    return device.to_host(out)


# ---------------------------------------------------------------------------
# Golden table and checks
# ---------------------------------------------------------------------------


def golden_key(variant: str, program: str, size: str) -> str:
    return f"{variant}/{program}/{size}"


def launch_signature(results) -> List[List[object]]:
    """``[kernel_name, cycles, race_count]`` per launch, as the golden table holds it."""
    return [[r.kernel_name, float(r.cycles), len(r.races)] for r in results]


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, object]:
    """The golden table; refuses one written for other program parameters."""
    with open(path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    if golden.get("params") != PARAMS or golden.get("canary_params") != CANARY_PARAMS:
        raise ValueError(f"{path} was generated for other sizes; rerun golden.py")
    return golden


def check_launches(golden: Dict[str, object], key: str, results) -> List[str]:
    """Mismatches between the launches of one cell and the golden table."""
    expected = golden["launches"].get(key)
    if expected is None:
        return [f"{key}: no golden entry"]
    actual = launch_signature(results)
    if actual != expected:
        return [f"{key}: launches {actual} != golden {expected}"]
    return []


def check_output(cell: Cell, output: np.ndarray) -> List[str]:
    if output.shape != cell.reference.shape or not np.allclose(output, cell.reference):
        return [f"{cell.label}: output differs from the numpy reference"]
    return []


def check_race_verdict(key: str, results, expect_race: bool) -> List[str]:
    """The Figure 8 launches must be race-free; the canary must report a race."""
    races = sum(len(r.races) for r in results)
    if expect_race and not races:
        return [f"{key}: the race canary reported no race"]
    if races and not expect_race:
        return [f"{key}: a race-free program reported {races} race(s)"]
    return []


def canary_key() -> str:
    return golden_key("cudalite", CANARY, "canary")
