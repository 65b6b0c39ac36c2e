"""Engine benchmark: reference vs vectorized on the Figure 8 workloads.

Running ``python -m repro.cli bench`` (or ``python -m
repro.benchsuite.enginebench``) executes every selected Figure 8 workload
twice — once per execution engine — and reports

* the simulated kernel cycles of both engines (they must be *identical*;
  a mismatch aborts with :class:`BenchmarkError`, which is the regression
  gate CI relies on), and
* the wall-clock time of running the simulator itself, plus the resulting
  speedup of the vectorized engine.

Two variants are covered: the handwritten CUDA-lite kernels (the default)
and, with ``--descend``, the Descend programs executed through the
device-plan compiler (:mod:`repro.descend.plan`).  The Descend variant additionally
sweeps workload *scales* (``--scales 1 4``) to record the interpreter's
scaling headroom; its report is written to ``BENCH_descend_engine.json``.

The JSON reports (``BENCH_*.json``) are uploaded as CI artifacts by the
bench-smoke job so the speedup trajectory accumulates over time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import socket
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.benchsuite.report import format_bytes, format_table
from repro.benchsuite.runner import (
    _CUDA_RUNNERS,
    _DESCEND_RUNNERS,
    _reference_and_data,
    precompile_descend,
)
from repro.benchsuite.workloads import BENCHMARKS, SIZES, Workload, scale_factor, workload
from repro.errors import BenchmarkError
from repro.gpusim import GpuDevice

#: The Descend engine sweep covers the Figure 8 benchmarks plus the
#: histogram and stencil workloads; the CUDA-lite sweep keeps the golden
#: :data:`BENCHMARKS` rows so the checked-in trajectory stays comparable.
DESCEND_BENCHMARKS = BENCHMARKS + ("histogram", "stencil")

#: Sizes benchmarked by default and by the CI smoke job (``--quick``).
DEFAULT_SIZES = ("small", "medium")
QUICK_SIZES = ("small",)
#: Scales swept by the Descend engine benchmark (and its ``--quick`` subset).
DESCEND_SCALES = (1, 4, 8)
QUICK_DESCEND_SCALES = (1,)
#: The default ``(size, scale)`` rows of the Descend engine benchmark: the
#: small footprint across all scales (16 included), plus the medium and
#: large rows at scale 8.  The biggest rows are only feasible because the
#: reference-engine column is *budgeted*: rows whose (deterministic,
#: cycle-count-based) reference estimate exceeds the wall-clock budget
#: record ``"skipped": "budget"`` instead of blowing the CI time limit.
DESCEND_ROWS = (
    ("small", 1),
    ("small", 4),
    ("small", 8),
    ("small", 16),
    ("medium", 8),
    ("large", 8),
)
QUICK_DESCEND_ROWS = (("small", 1),)

#: Conservative upper estimate of the reference interpreter's wall-clock per
#: simulated cycle (the checked-in trajectory measures 130–300 µs/cycle).
#: The budget guard multiplies it by the row's cycle count — which both
#: engines share exactly — so the skip decision is deterministic and
#: identical between serial and sharded sweeps.
REF_SECONDS_PER_CYCLE = 3e-4
#: Default per-row budget (seconds) for the reference-engine column of the
#: Descend sweep; override with ``--budget`` or ``REPRO_BENCH_BUDGET_S``.
DEFAULT_REF_BUDGET_S = 600.0


def default_budget_s() -> float:
    """The reference-column budget: ``REPRO_BENCH_BUDGET_S`` or the default."""
    try:
        return float(os.environ.get("REPRO_BENCH_BUDGET_S", DEFAULT_REF_BUDGET_S))
    except ValueError:
        return DEFAULT_REF_BUDGET_S


def estimate_reference_wall_s(cycles: float) -> float:
    """Deterministic upper estimate of a reference-engine run's wall-clock."""
    return cycles * REF_SECONDS_PER_CYCLE


def _json_number(value: Optional[float]) -> Optional[float]:
    """Non-finite floats become ``None``: ``json.dump`` would otherwise emit
    ``NaN``/``Infinity``, which is not valid JSON for strict consumers of the
    ``BENCH_*.json`` artifacts."""
    if value is None or not math.isfinite(value):
        return None
    return value


@dataclass
class EngineBenchRow:
    """One workload, both engines.

    When the budget guard skips the reference-engine column, ``skipped``
    names the reason (``"budget"``) and every reference-derived field
    (``reference_cycles``, ``reference_wall_s``, ``cycles_match``,
    ``speedup``) is ``None``.
    """

    benchmark: str
    size: str
    reference_cycles: Optional[float]
    vectorized_cycles: float
    reference_wall_s: Optional[float]
    vectorized_wall_s: float
    footprint_bytes: int
    variant: str = "cudalite"
    scale: int = 1
    skipped: Optional[str] = None
    retries: int = 0
    #: Which process measured this row — ``hostname:pid``, stamped by
    #: :func:`compare_engines` so serial rows, pool shards and dispatched
    #: remote workers are all attributable in the merged report.
    host: str = ""

    @property
    def cycles_match(self) -> Optional[bool]:
        if self.reference_cycles is None:
            return None
        return self.reference_cycles == self.vectorized_cycles

    @property
    def speedup(self) -> Optional[float]:
        if self.reference_wall_s is None:
            return None
        if self.vectorized_wall_s == 0:
            return float("inf")
        return self.reference_wall_s / self.vectorized_wall_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "size": self.size,
            "variant": self.variant,
            "scale": self.scale,
            "reference_cycles": self.reference_cycles,
            "vectorized_cycles": self.vectorized_cycles,
            "cycles_match": self.cycles_match,
            "reference_wall_s": self.reference_wall_s,
            "vectorized_wall_s": self.vectorized_wall_s,
            "speedup": _json_number(self.speedup),
            "footprint_bytes": self.footprint_bytes,
            "skipped": self.skipped,
            "retries": self.retries,
            "host": self.host,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EngineBenchRow":
        """Rebuild a row from :meth:`as_dict` output (dispatch wire format).

        Only constructor fields are read — the derived columns
        (``cycles_match``, ``speedup``, …) are recomputed by their
        properties, so a round-tripped row is value-identical to the
        original (JSON floats round-trip exactly via ``repr``).
        """
        return cls(
            benchmark=str(payload["benchmark"]),
            size=str(payload["size"]),
            reference_cycles=payload.get("reference_cycles"),  # type: ignore[arg-type]
            vectorized_cycles=payload["vectorized_cycles"],  # type: ignore[arg-type]
            reference_wall_s=payload.get("reference_wall_s"),  # type: ignore[arg-type]
            vectorized_wall_s=payload["vectorized_wall_s"],  # type: ignore[arg-type]
            footprint_bytes=int(payload["footprint_bytes"]),  # type: ignore[arg-type]
            variant=str(payload.get("variant", "cudalite")),
            scale=int(payload.get("scale", 1)),  # type: ignore[arg-type]
            skipped=payload.get("skipped"),  # type: ignore[arg-type]
            retries=int(payload.get("retries", 0)),  # type: ignore[arg-type]
            host=str(payload.get("host", "")),
        )


@dataclass
class EngineBenchResult:
    """All benchmarked workloads plus the aggregates CI tracks.

    ``compile_passes`` aggregates the sweep's compiler activity as
    ``{pass name: {cache tier: count}}`` across every worker (or the serial
    session): a warm-store sweep must show ``lower.plan`` with only
    ``store``/``memory`` tiers — zero ``compute`` — which is the
    cross-process plan-reuse gate.
    """

    rows: List[EngineBenchRow] = field(default_factory=list)
    compile_passes: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def measured_rows(self) -> List[EngineBenchRow]:
        """Rows whose reference column actually ran (not budget-skipped)."""
        return [row for row in self.rows if row.skipped is None]

    @property
    def all_cycles_match(self) -> bool:
        return all(row.cycles_match for row in self.measured_rows)

    @property
    def geometric_mean_speedup(self) -> float:
        speedups = [row.speedup for row in self.measured_rows if row.speedup > 0]
        if not speedups:
            return float("nan")
        return math.exp(sum(math.log(s) for s in speedups) / len(speedups))

    @property
    def min_speedup(self) -> float:
        speedups = [row.speedup for row in self.measured_rows]
        if not speedups:
            return float("nan")
        return min(speedups)

    kind: str = "engine-bench"

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "workloads": [row.as_dict() for row in self.rows],
            "all_cycles_match": self.all_cycles_match,
            "geometric_mean_speedup": _json_number(self.geometric_mean_speedup),
            "min_speedup": _json_number(self.min_speedup),
            "skipped_rows": sum(1 for row in self.rows if row.skipped is not None),
            "compile_passes": self.compile_passes,
        }

    def to_table(self) -> str:
        table = format_table(
            ["variant", "benchmark", "size", "scale", "footprint", "cycles", "parity",
             "ref wall", "vec wall", "speedup"],
            [
                (
                    row.variant,
                    row.benchmark,
                    row.size,
                    row.scale,
                    format_bytes(row.footprint_bytes),
                    round(row.vectorized_cycles, 1),
                    ("==" if row.cycles_match else "MISMATCH")
                    if row.skipped is None
                    else f"skip:{row.skipped}",
                    f"{row.reference_wall_s * 1e3:.1f} ms" if row.skipped is None else "—",
                    f"{row.vectorized_wall_s * 1e3:.1f} ms",
                    f"{row.speedup:.1f}x" if row.skipped is None else "—",
                )
                for row in self.rows
            ],
        )
        return (
            table
            + f"\n\ngeometric mean speedup: {self.geometric_mean_speedup:.1f}x"
            + f" (min {self.min_speedup:.1f}x); cycle parity: "
            + ("exact for every workload" if self.all_cycles_match else "VIOLATED")
        )


def _time_variant(
    runner, workload_: Workload, data, reference, engine: str, repeats: int,
    warmup: bool = False,
):
    """Best-of-``repeats`` wall-clock of simulating the workload on one engine.

    ``warmup`` adds one untimed (but checked) run before the timed ones, so
    the column measures warm execution rather than the first run's one-off
    costs (numpy and allocator warm-up, first-touch of the workload data).
    """
    best_wall = float("inf")
    cycles = float("nan")
    for attempt in range(max(1, repeats) + (1 if warmup else 0)):
        device = GpuDevice(execution_mode=engine)
        start = time.perf_counter()
        cycles, result, races, _stats = runner(device, workload_.params, data)
        wall = time.perf_counter() - start
        if attempt > 0 or not warmup:
            best_wall = min(best_wall, wall)
        if races:
            raise BenchmarkError(
                f"{workload_.label} reported {races} data races under the {engine} engine"
            )
        if not np.allclose(result, reference):
            raise BenchmarkError(
                f"{workload_.label} produced a wrong result under the {engine} engine"
            )
        # A Descend launch silently falling back to the reference interpreter
        # would fake the speedup this benchmark exists to measure.
        for launch in device.launch_log:
            if launch.execution_mode != engine:
                raise BenchmarkError(
                    f"{workload_.label}: launch `{launch.kernel_name}` ran on the "
                    f"{launch.execution_mode} engine instead of {engine}"
                )
    return cycles, best_wall


def host_label() -> str:
    """This process's row-attribution label (``hostname:pid``)."""
    return f"{socket.gethostname()}:{os.getpid()}"


def compare_engines(
    benchmark: str,
    size: str,
    repeats: int = 1,
    variant: str = "cudalite",
    scale: Optional[int] = None,
    budget_s: Optional[float] = None,
    device_s_per_cycle: Optional[float] = None,
) -> EngineBenchRow:
    """Run one workload on both engines and check cycle-count parity.

    ``variant`` selects the implementation under test: ``"cudalite"`` (the
    handwritten kernels) or ``"descend"`` (the Descend programs through the
    interpreter, vectorized via the device-plan compiler).

    The vectorized column runs once untimed before its timed repeats, so it
    measures warm execution.  The reference column is timed cold: it runs
    tens to hundreds of times longer, so its first-run cost is lost in its
    own noise.

    ``budget_s`` bounds the reference-engine column: the vectorized engine
    runs first (it shares the exact cycle count), and if the deterministic
    estimate :func:`estimate_reference_wall_s` exceeds the budget the
    reference run is skipped and the row records ``skipped="budget"``.

    ``device_s_per_cycle`` emulates waiting on a device executing the
    measured kernels in real time (the simulator counts cycles instead of
    occupying a GPU): after measuring, the call sleeps ``cycles x engines
    run x this factor``.  The sleep happens *outside* the timed regions, so
    every row column is identical with or without it — it only stretches
    the caller's wall-clock, which is what the sweep-scaling benchmark
    dispatches across workers.  ``None`` (the default) disables it.
    """
    workload_ = workload(benchmark, size, scale=scale)
    data, reference = _reference_and_data(workload_)
    runners = _DESCEND_RUNNERS if variant == "descend" else _CUDA_RUNNERS
    runner = runners[benchmark]
    if variant == "descend":
        # Warm the compile cache outside the timed regions so both engines
        # measure pure execution: without this the first timed run would pay
        # the cold typeck (or warm it from the attached artifact store) that
        # later runs then get from the cache.
        precompile_descend(benchmark, workload_.params)
    vec_cycles, vec_wall = _time_variant(
        runner, workload_, data, reference, "vectorized", repeats, warmup=True
    )
    if budget_s is not None and estimate_reference_wall_s(vec_cycles) > budget_s:
        _emulate_device_wait(vec_cycles, 1, device_s_per_cycle)
        return EngineBenchRow(
            benchmark=benchmark,
            size=size,
            reference_cycles=None,
            vectorized_cycles=vec_cycles,
            reference_wall_s=None,
            vectorized_wall_s=vec_wall,
            footprint_bytes=workload_.footprint_bytes(),
            variant=variant,
            scale=scale_factor(scale),
            skipped="budget",
            host=host_label(),
        )
    ref_cycles, ref_wall = _time_variant(runner, workload_, data, reference, "reference", repeats)
    row = EngineBenchRow(
        benchmark=benchmark,
        size=size,
        reference_cycles=ref_cycles,
        vectorized_cycles=vec_cycles,
        reference_wall_s=ref_wall,
        vectorized_wall_s=vec_wall,
        footprint_bytes=workload_.footprint_bytes(),
        variant=variant,
        scale=scale_factor(scale),
        host=host_label(),
    )
    if not row.cycles_match:
        raise BenchmarkError(
            f"cycle-count parity violated for {workload_.label} ({variant}): "
            f"reference={ref_cycles} vectorized={vec_cycles}"
        )
    _emulate_device_wait(vec_cycles, 2, device_s_per_cycle)
    return row


def _emulate_device_wait(
    cycles: float, engine_runs: int, device_s_per_cycle: Optional[float]
) -> None:
    """Model the wall-clock of a device executing the measured kernels."""
    if device_s_per_cycle is not None and device_s_per_cycle > 0:
        time.sleep(cycles * engine_runs * device_s_per_cycle)


def _run_sweep(
    variant: str,
    specs: Sequence[Tuple[str, str, Optional[int]]],
    kind: str,
    repeats: int,
    budget_s: Optional[float],
    jobs: int,
    store_path: Optional[str],
    progress,
) -> EngineBenchResult:
    """Run a sweep's cells serially or sharded across worker processes.

    The serial path is the default and the parity oracle; the sharded path
    (:mod:`repro.benchsuite.sweep`) merges per-shard rows back into sweep
    order, so both produce identical reports modulo the timing fields.
    """
    result = EngineBenchResult(kind=kind)
    if jobs > 1:
        from repro.benchsuite.sweep import make_cells, run_cells
        from repro.descend.store import is_store_url

        cells = make_cells(variant, specs, repeats=repeats, budget_s=budget_s)
        if store_path and is_store_url(store_path):
            # A URL store means the sweep can leave the machine: route the
            # cells through the pull-based dispatcher (workers steal cells
            # over TCP) instead of the single-host process pool.
            from repro.benchsuite.dispatch import dispatch_cells

            if progress is not None:
                progress(
                    f"dispatching {len(specs)} sweep cells to {jobs} workers "
                    f"(store {store_path}) ..."
                )
            result.rows.extend(
                dispatch_cells(
                    cells, jobs, store_url=store_path, progress=progress,
                    pass_totals=result.compile_passes,
                )
            )
            return result
        if progress is not None:
            progress(f"sharding {len(specs)} sweep cells across {jobs} workers ...")
        result.rows.extend(
            run_cells(
                cells, jobs, store_path=store_path, progress=progress,
                pass_totals=result.compile_passes,
            )
        )
        return result

    def run_serial() -> None:
        from repro.benchsuite.sweep import merge_pass_totals
        from repro.descend.driver import active_session

        session = active_session()
        mark = session.pass_counts_snapshot()
        for benchmark, size, scale in specs:
            if progress is not None:
                progress(
                    f"benchmarking {variant} {benchmark}/{size} at scale "
                    f"{scale_factor(scale)} on both engines ..."
                )
            result.rows.append(
                compare_engines(
                    benchmark, size, repeats=repeats, variant=variant, scale=scale,
                    budget_s=budget_s,
                )
            )
        merge_pass_totals(result.compile_passes, session.pass_counts_since(mark))

    if store_path:
        # A serial sweep with an explicit store runs in its own scoped
        # session bound to exactly that store — never a best-effort mutation
        # of the process-global session, which may already carry a different
        # store (and would otherwise keep ours attached after the sweep).
        from repro.descend.driver import CompileSession, session_scope
        from repro.descend.store import ArtifactStore

        try:
            store = ArtifactStore(store_path)
        except OSError as exc:
            raise BenchmarkError(
                f"cannot open artifact store {store_path!r}: {exc}"
            ) from exc
        with session_scope(CompileSession(label="sweep").attach_store(store)):
            run_serial()
    else:
        run_serial()
    return result


def run_engine_bench(
    benchmarks: Sequence[str] = BENCHMARKS,
    sizes: Sequence[str] = DEFAULT_SIZES,
    repeats: int = 1,
    progress=None,
    scale: Optional[int] = None,
    jobs: int = 1,
    store_path: Optional[str] = None,
) -> EngineBenchResult:
    """Benchmark every selected workload on both engines (CUDA-lite kernels)."""
    specs = [(benchmark, size, scale) for benchmark in benchmarks for size in sizes]
    return _run_sweep(
        "cudalite", specs, "engine-bench", repeats, None, jobs, store_path, progress
    )


def run_descend_engine_bench(
    benchmarks: Sequence[str] = DESCEND_BENCHMARKS,
    sizes: Optional[Sequence[str]] = None,
    scales: Optional[Sequence[int]] = None,
    rows: Optional[Sequence[Tuple[str, int]]] = None,
    repeats: int = 1,
    progress=None,
    budget_s: Optional[float] = None,
    jobs: int = 1,
    store_path: Optional[str] = None,
) -> EngineBenchResult:
    """Benchmark the Descend programs on both engines across workload scales.

    This is the perf trajectory for the interpreter's device-plan backend:
    cycle parity is asserted per workload, and the wall-clock columns record
    how far ``REPRO_SCALE`` can be pushed now that the sweep is vectorized
    and workloads compile once per sweep.  The sweep is a list of
    ``(size, scale)`` rows: pass ``rows`` directly, or ``sizes`` / ``scales``
    to take their cartesian product; the default is :data:`DESCEND_ROWS`.

    ``budget_s`` (default: :func:`default_budget_s`) caps the per-row
    reference-engine wall-clock; over-budget rows keep their vectorized
    column and record ``"skipped": "budget"``.  ``jobs > 1`` shards the
    rows across worker processes, each warming from the shared artifact
    store at ``store_path`` if one is given.
    """
    if rows is None:
        if sizes is None and scales is None:
            rows = DESCEND_ROWS
        else:
            rows = tuple(
                (size, scale)
                for scale in (scales if scales is not None else DESCEND_SCALES)
                for size in (sizes if sizes is not None else QUICK_SIZES)
            )
    if budget_s is None:
        budget_s = default_budget_s()
    specs = [
        (benchmark, size, scale)
        for size, scale in rows
        for benchmark in benchmarks
    ]
    return _run_sweep(
        "descend", specs, "descend-engine-bench", repeats, budget_s, jobs,
        store_path, progress,
    )


def write_report(result: EngineBenchResult, path: str, quick: bool = False) -> Dict[str, object]:
    """Write the JSON report CI uploads as the bench-smoke artifact."""
    payload = dict(result.as_dict())
    payload["quick"] = quick
    payload["created_unix"] = time.time()
    with open(path, "w", encoding="utf-8") as handle:
        # allow_nan=False: the report must stay valid JSON for strict
        # consumers (jq, JSON.parse); non-finite aggregates are already
        # mapped to null by as_dict.
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the reference vs the vectorized execution engine"
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=None, choices=list(DESCEND_BENCHMARKS),
        help="workloads to sweep (default: the Figure 8 four, plus histogram "
        "and stencil with --descend)",
    )
    parser.add_argument("--sizes", nargs="*", default=None, choices=list(SIZES))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke subset: sizes {QUICK_SIZES} (and rows {QUICK_DESCEND_ROWS} with --descend)",
    )
    parser.add_argument(
        "--descend", action="store_true",
        help="benchmark the Descend programs (device-plan backend) instead of the CUDA-lite kernels",
    )
    parser.add_argument(
        "--scales", nargs="*", type=int, default=None,
        help=f"workload scales for the Descend variant (default rows: {list(DESCEND_ROWS)})",
    )
    parser.add_argument(
        "--scale", type=int, default=None,
        help="workload scale for the CUDA-lite variant (overrides REPRO_SCALE)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="shard the sweep across N worker processes (default: serial)",
    )
    parser.add_argument(
        "--budget", type=float, default=None,
        help="per-row reference-engine wall-clock budget in seconds for the Descend "
        "sweep (default: REPRO_BENCH_BUDGET_S or "
        f"{DEFAULT_REF_BUDGET_S:.0f}); over-budget rows record skipped=budget",
    )
    parser.add_argument(
        "--store", default=None,
        help="persistent artifact store warming the compile caches "
        "(shared by every sweep worker with --jobs)",
    )
    parser.add_argument(
        "--store-url", default=None, dest="store_url",
        help="HTTP store endpoint URL of a `descendc serve --store-http` daemon; "
        "with --jobs N the sweep dispatches cells to worker processes sharing "
        "that remote store (pull-based work stealing)",
    )
    parser.add_argument(
        "--output", default=None,
        help="path of the JSON report (default: BENCH_engine.json, "
        "or BENCH_descend_engine.json with --descend)",
    )
    parser.add_argument("--json", action="store_true", help="print the JSON payload to stdout")
    args = parser.parse_args(argv)

    if args.output is None:
        args.output = "BENCH_descend_engine.json" if args.descend else "BENCH_engine.json"
    if args.store and args.store_url:
        parser.error("pass either --store or --store-url, not both")
    if args.store_url:
        args.store = args.store_url
    if args.scales and not args.descend:
        parser.error("--scales applies to the Descend variant; use --scale with the CUDA-lite bench")
    if args.descend and args.scale is not None and args.scales:
        parser.error("pass either --scale or --scales, not both")
    benchmarks = (
        list(args.benchmarks)
        if args.benchmarks
        else (list(DESCEND_BENCHMARKS) if args.descend else list(BENCHMARKS))
    )
    progress = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    try:
        if args.descend:
            sizes = list(args.sizes) if args.sizes else None
            if args.scales:
                scales: Optional[List[int]] = list(args.scales)
            elif args.scale is not None:
                scales = [args.scale]
            elif args.quick:
                # CI smoke subset: the QUICK_DESCEND_ROWS footprint.
                scales = list(QUICK_DESCEND_SCALES)
                sizes = sizes if sizes is not None else list(QUICK_SIZES)
            else:
                scales = None
            result = run_descend_engine_bench(
                benchmarks=benchmarks,
                sizes=sizes,
                scales=scales,
                repeats=args.repeats,
                progress=progress,
                budget_s=args.budget,
                jobs=args.jobs,
                store_path=args.store,
            )
        else:
            sizes = args.sizes if args.sizes else (
                list(QUICK_SIZES) if args.quick else list(DEFAULT_SIZES)
            )
            result = run_engine_bench(
                benchmarks=benchmarks,
                sizes=sizes,
                repeats=args.repeats,
                progress=progress,
                scale=args.scale,
                jobs=args.jobs,
                store_path=args.store,
            )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        payload = write_report(result, args.output, quick=args.quick)
    except OSError as exc:
        print(f"error: cannot write report to {args.output!r}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result.to_table())
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
