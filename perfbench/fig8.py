"""The ``fig8-descend`` and ``fig8-cudalite`` workloads: timed kernel launches.

One *round* runs every (program, size) cell of :mod:`programs` once, in an
order shuffled from the seed; ``fig8-cudalite`` adds the race canary after
each round.  Set-up builds the inputs, compiles the Descend programs in a
fresh compile session, warms their device plans and runs one checked round,
so the timed rounds only launch.  Every launch uses the ``vectorized``
engine with race detection on.

The timed part runs whole rounds until ``seconds`` have passed, and at least
:data:`MIN_ROUNDS`.  Each launch call is one sample of its CPU time (see
:class:`programs.LaunchLog`); copies and host steps between launches are
outside the samples.  Every launch of a round stands at the lower quartile
of its samples over the rounds (see :func:`_timed_rounds`); of these 16
figures the run reports launches per second of the round, the median and
the slowest.  A cell is one operation: it fails if any launch differs
from the golden table or reports a race, or if its output is wrong.  The
canary is one operation too: it fails if it reports no race.

With tracing on, untraced and traced rounds alternate.  The per-layer
numbers come from the traced rounds, per traced launch; the tracing overhead
is traced minus untraced round wall.
"""

from __future__ import annotations

import contextlib
import random
from time import perf_counter, perf_counter_ns, process_time
from typing import Dict, List, Optional, Tuple

import programs as P
from common import (
    QUIET_QUANTILE,
    HostSpeed,
    merge_tiers,
    pass_metrics,
    peak_rss_mb,
    percentile,
    timed_setups,
)
from repro.descend.api import compile_program
from repro.descend.driver import CompileSession, session_scope
from repro.gpusim import GpuDevice
from spans import COUNTERS, LAUNCH_LAYERS, LAYERS, LayerTracer

VARIANTS = ("descend", "cudalite")
ENGINE = "vectorized"
#: Each launch is measured in at least this many rounds.
MIN_ROUNDS = 13
#: Per-layer metrics of the daemon, which these workloads do not run.
NOT_EXERCISED = (
    "requests",
    "descend.serve.overhead_s",
    "descend.serve.refused",
    "compile_cold_p50_ms",
    "compile_warm_p50_ms",
)


class TracedLaunchLog(P.LaunchLog):
    """A launch log that also gates the layer sum of every launch on its wall."""

    def __init__(self, variant: str, tracer: LayerTracer, gates: List[str]) -> None:
        super().__init__(variant)
        self.tracer = tracer
        self.gates = gates

    def time(self, call):
        before = dict(self.tracer.self_ns)
        cpu, start = process_time(), perf_counter_ns()
        result = call()
        wall_ns = perf_counter_ns() - start
        inside = sum(self.tracer.self_ns[layer] - before.get(layer, 0) for layer in LAUNCH_LAYERS)
        if inside > wall_ns:
            self.gates.append(
                f"{result.kernel_name}: layer sum {inside} ns exceeds launch wall {wall_ns} ns")
        self.walls.append(wall_ns / 1e9)
        self.cpu.append(process_time() - cpu)
        self.results.append(result)
        return result


class Fig8Workload:
    """One variant's cells, compiled programs and check ledger."""

    def __init__(self, variant: str, seed: int, golden: Dict[str, object]) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.seed = seed
        self.golden = golden
        self.cells: List[P.Cell] = []
        self.session: Optional[CompileSession] = None
        self.canary_input = None
        self.attempted = 0
        self.failures: List[str] = []

    def setup(self) -> None:
        """Inputs, compiled programs with warm plans, and one checked round."""
        self.cells = [P.make_cell(p, s, self.seed) for p in P.PROGRAMS for s in P.SIZES]
        self.canary_input = P.make_canary_input(self.seed)
        if self.variant == "descend":
            self.session = CompileSession(label="perfbench")
            with session_scope(self.session):
                for cell in self.cells:
                    compiled = compile_program(P.DESCEND_BUILDERS[cell.program](cell.params))
                    for fun in compiled.gpu_function_names():
                        compiled.device_plan(fun)
        self.run_round(-1)
        self.run_canary()

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    def run_cell(self, cell: P.Cell, log: P.LaunchLog) -> float:
        """Run and check one cell; returns its wall (copies and launches)."""
        device = GpuDevice(execution_mode=ENGINE)
        # The Descend runners look their program up in the active session,
        # which set-up compiled and warmed.
        scope = session_scope(self.session) if self.session else contextlib.nullcontext()
        start = perf_counter()
        with scope:
            output = P.run_cell(self.variant, device, cell, log)
        wall = perf_counter() - start
        key = P.golden_key(self.variant, cell.program, cell.size)
        self.record(
            P.check_launches(self.golden, key, log.results)
            + P.check_race_verdict(key, log.results, expect_race=False)
            + P.check_output(cell, output)
        )
        return wall

    def run_canary(self) -> None:
        """``fig8-cudalite`` only: once per round, outside timing and tracing."""
        if self.variant != "cudalite":
            return
        log = P.LaunchLog("cudalite")
        P.run_canary(GpuDevice(execution_mode=ENGINE), self.canary_input, log)
        key = P.canary_key()
        self.record(
            P.check_launches(self.golden, key, log.results)
            + P.check_race_verdict(key, log.results, expect_race=True)
        )

    def run_round(self, index: int, new_log=P.LaunchLog) -> Tuple[float, Dict[str, P.LaunchLog]]:
        """Every cell once in a seeded order; ``(cell wall, {cell label: launch log})``."""
        order = list(self.cells)
        random.Random(f"perfbench:fig8:{self.seed}:{index}").shuffle(order)
        wall, logs = 0.0, {}
        for cell in order:
            log = logs[cell.label] = new_log(self.variant)
            wall += self.run_cell(cell, log)
        return wall, logs


def _flat(logs: Dict[str, P.LaunchLog], field: str) -> List[float]:
    return [value for log in logs.values() for value in getattr(log, field)]


def _cycles(logs: Dict[str, P.LaunchLog]) -> float:
    return sum(r.cycles for log in logs.values() for r in log.results)


def run(variant: str, seed: int, seconds: float, trace: bool, golden) -> Dict[str, object]:
    workloads: List[Fig8Workload] = []

    def setup() -> None:
        workloads[:] = [Fig8Workload(variant, seed, golden)]
        workloads[0].setup()

    host = HostSpeed()
    setup_s = timed_setups(setup, host)
    workload = workloads[0]
    deadline = perf_counter() + seconds
    if trace:
        metrics, detail = _traced_rounds(workload, deadline)
    else:
        metrics, detail = _timed_rounds(workload, deadline, host)
        metrics["setup_s"] = host.scale(setup_s)
        detail["host_factor"] = host.factor()
    return {
        "attempted": workload.attempted,
        "failures": workload.failures,
        "metrics": metrics,
        "detail": detail,
    }


def _timed_rounds(workload: Fig8Workload, deadline: float, host: HostSpeed):
    """Whole rounds until the deadline; the metrics count launch CPU time.

    Each launch of a round is measured once per round, and the host is
    probed before every round.  A launch's figure is the lower quartile of
    its CPU times over the rounds, scaled to the reference host
    (:class:`common.HostSpeed`).  The quartile still moves with the program:
    a launch that does more work is slower in every round.
    """
    #: (cell, launch within the cell) -> its CPU time in every round
    samples: Dict[Tuple[str, int], List[float]] = {}
    cpu_s = wall_s = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        host.probe()
        _, logs = workload.run_round(rounds)
        workload.run_canary()
        for label, log in logs.items():
            for position, cpu in enumerate(log.cpu):
                samples.setdefault((label, position), []).append(cpu)
        cpu_s += sum(_flat(logs, "cpu"))
        wall_s += sum(_flat(logs, "walls"))
        rounds += 1
    quiet = [host.scale(percentile(series, QUIET_QUANTILE)) for series in samples.values()]
    launches = len(quiet) * rounds
    metrics = {
        "ref_ops_per_s": len(quiet) / sum(quiet),
        "ref_p50_ms": percentile(quiet, 50) * 1e3,
        "ref_tail_ms": max(quiet) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - len(workload.failures) / workload.attempted,
    }
    detail = {"rounds": rounds, "launches": launches, "launches_per_round": len(quiet),
              "cpu_ops_per_s": launches / cpu_s, "wall_ops_per_s": launches / wall_s}
    return metrics, detail


def _traced_rounds(workload: Fig8Workload, deadline: float):
    """Alternate untraced and traced rounds; per-layer metrics per traced launch."""
    tracer = LayerTracer()
    gates: List[str] = []
    session = workload.session
    tiers: Dict[str, Dict[str, int]] = {}
    passes: List[Dict[str, object]] = []
    untraced_wall = traced_wall = traced_cell_wall = 0.0
    untraced_launch_cpu = untraced_cycles = 0.0
    traced_launches = 0
    rounds = 0
    while rounds < 2 or perf_counter() < deadline:
        start = perf_counter()
        _, logs = workload.run_round(rounds)
        untraced_wall += perf_counter() - start
        untraced_launch_cpu += sum(_flat(logs, "cpu"))
        untraced_cycles += _cycles(logs)

        layers_before = tracer.layer_seconds()
        snapshot = session.pass_counts_snapshot() if session is not None else {}
        timings_mark = len(session.timings) if session is not None else 0
        start = perf_counter()
        with tracer:
            cell_wall, logs = workload.run_round(
                rounds + 1, lambda variant: TracedLaunchLog(variant, tracer, gates))
        traced_wall += perf_counter() - start
        workload.run_canary()
        traced_cell_wall += cell_wall
        traced_launches += len(_flat(logs, "walls"))
        layer_sum = tracer.layer_seconds() - layers_before
        if layer_sum > cell_wall:
            gates.append(f"round {rounds + 1}: layer sum {layer_sum} s exceeds cell wall {cell_wall} s")
        if session is not None:
            merge_tiers(tiers, session.pass_counts_since(snapshot))
            passes += [t.as_dict() for t in session.timings[timings_mark:]]
        rounds += 2

    per_launch = 1.0 / traced_launches
    metrics = {f"{layer}_s": tracer.self_ns.get(layer, 0) / 1e9 * per_launch for layer in LAYERS}
    metrics["other_s"] = (traced_cell_wall - tracer.layer_seconds()) * per_launch
    for counter in COUNTERS:
        metrics[counter] = tracer.counts.get(counter, 0) * per_launch
    checked = tracer.counts.get("gpusim.races.checked_launches", 0)
    if checked != traced_launches:
        gates.append(f"{checked} race checks for {traced_launches} traced launches")
    metrics["gpusim.races.checked_launches"] = checked
    metrics["launches"] = traced_launches
    metrics["trace_overhead_s"] = (traced_wall - untraced_wall) * per_launch
    metrics["sim_cycles_per_s"] = untraced_cycles / untraced_launch_cpu
    metrics.update(pass_metrics(tiers, passes, traced_launches))
    metrics.update(dict.fromkeys(NOT_EXERCISED, 0.0))
    workload.failures += gates
    return metrics, {"rounds": rounds, "traced_launches": traced_launches}
