"""Scaling benchmark of the distributed sweep: ``BENCH_sweep_scaling.json``.

The dispatcher's value proposition is wall-clock: once the shared store is
warm, a bench sweep is pure measurement work, and pull-based work stealing
should spread it across worker processes with near-linear speedup.  This
benchmark quantifies that against one daemon-style HTTP store endpoint:

* **cold** — one worker fills the store: the first compile of every
  program pays the compute passes, persisted over the HTTP protocol;
* **warm xN** — the same cells dispatched to 1, 2 and 4 workers against
  the now-warm store.  Every warm phase must report *zero* compute-tier
  passes (the fleet-wide zero-compute acceptance criterion), its rows
  must agree with every other warm phase on all stable columns (the
  serial-parity oracle, transitively), and the headline number is
  ``speedup_4w = wall(1 worker) / wall(4 workers)``.

The cells are *device-bound* (:data:`DEVICE_S_PER_CYCLE`,
:data:`SCALING_BUDGET_S`): each engine run waits out its kernels'
simulated execution time, and the CPU-heavy reference-interpreter column
is budget-skipped.  That is the dispatcher's target regime — workers
overlap their devices' execution — and it keeps the ladder meaningful on
small hosts, where contending simulator CPU (a shared resource) would
otherwise drown the overlap.  Both parameters land in the JSON payload.

Wall time includes worker spawn: the claim is end-to-end sweep latency,
not per-cell throughput.  ``descendc bench`` does not front this module
(it is a meta-benchmark of the dispatcher, not of the engines); CI runs it
directly via ``python -m repro.benchsuite.sweepbench --quick``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchsuite.report import format_table
from repro.descend.api import LocalBackend
from repro.descend.serve import ServeConfig, ServerThread
from repro.errors import BenchmarkError

#: Worker counts of the scaling ladder (the cold fill always uses one).
WORKER_LADDER = (1, 2, 4)

#: Default cell set: every Descend benchmark at small x scales 1 and 2 —
#: twelve cells of comparable weight, enough measurement work to amortize
#: worker spawn without pushing the run past a few minutes.
DEFAULT_SCALES = (1, 2)
QUICK_SCALES = (1,)

#: The scaling cells are *device-bound*: after measuring, each engine run
#: waits out its kernels' simulated execution time at this clock (the
#: simulator counts cycles instead of occupying a GPU, so the wait is
#: emulated — see ``compare_engines(device_s_per_cycle=...)``).  That is
#: the regime the dispatcher exists for: a host's workers overlap their
#: devices' execution, so the sweep scales even where raw simulator CPU
#: (a shared resource) would not.  The row columns are latency-free; only
#: sweep wall-clock stretches.
DEVICE_S_PER_CYCLE = 100e-6

#: The reference interpreter is the sweep's CPU hog (seconds per cell of
#: pure simulator time); the scaling cells skip its column via the budget
#: guard so dispatch overlap, not interpreter contention, is what the
#: ladder measures.  ``0.0`` skips it on every row, deterministically.
SCALING_BUDGET_S = 0.0

#: Timing and identity columns excluded from the cross-phase parity check.
UNSTABLE_COLUMNS = frozenset(
    {
        "reference_wall_s",
        "vectorized_wall_s",
        "speedup",
        "host",
        "retries",
    }
)


@dataclass
class SweepPhaseRow:
    """One dispatched sweep: worker count, wall clock, pass-tier mix."""

    phase: str
    workers: int
    cells: int
    wall_s: float
    hosts: int
    #: ``{pass: {tier: count}}`` summed over every cell of the phase.
    pass_tiers: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def compute_passes(self) -> int:
        return sum(tiers.get("compute", 0) for tiers in self.pass_tiers.values())

    @property
    def cells_per_s(self) -> float:
        return self.cells / self.wall_s if self.wall_s > 0 else float("inf")

    def as_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "workers": self.workers,
            "cells": self.cells,
            "wall_s": self.wall_s,
            "cells_per_s": self.cells_per_s,
            "hosts": self.hosts,
            "compute_passes": self.compute_passes,
        }


@dataclass
class SweepBenchResult:
    rows: List[SweepPhaseRow] = field(default_factory=list)
    kind: str = "sweep-scaling-bench"

    def warm_wall(self, workers: int) -> Optional[float]:
        for row in self.rows:
            if row.phase.startswith("warm") and row.workers == workers:
                return row.wall_s
        return None

    @property
    def speedup_4w(self) -> Optional[float]:
        base, wide = self.warm_wall(1), self.warm_wall(4)
        if base is None or wide is None or wide <= 0:
            return None
        return base / wide

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "phases": [row.as_dict() for row in self.rows],
            "speedup_4w": self.speedup_4w,
            "warm_compute_passes": sum(
                row.compute_passes for row in self.rows if row.phase.startswith("warm")
            ),
        }

    def to_table(self) -> str:
        table = format_table(
            ["phase", "workers", "cells", "wall", "cells/s", "hosts", "compute passes"],
            [
                (
                    row.phase,
                    row.workers,
                    row.cells,
                    f"{row.wall_s:.2f} s",
                    f"{row.cells_per_s:.2f}",
                    row.hosts,
                    row.compute_passes,
                )
                for row in self.rows
            ],
        )
        speedup = self.speedup_4w
        headline = (
            f"warm sweep speedup at 4 workers: {speedup:.2f}x"
            if speedup is not None
            else "warm sweep speedup at 4 workers: (not measured)"
        )
        return table + "\n\n" + headline


def _stable_rows(rows: Sequence[object]) -> List[Dict[str, object]]:
    return [
        {k: v for k, v in row.as_dict().items() if k not in UNSTABLE_COLUMNS}
        for row in rows
    ]


def _dispatch_phase(
    phase: str,
    cells: Sequence[Dict[str, object]],
    workers: int,
    store_url: str,
    progress=None,
) -> Tuple[SweepPhaseRow, List[object]]:
    from repro.benchsuite.dispatch import dispatch_cells

    pass_totals: Dict[str, Dict[str, int]] = {}
    started = time.perf_counter()
    rows = dispatch_cells(
        cells, workers, store_url=store_url, pass_totals=pass_totals
    )
    wall_s = time.perf_counter() - started
    hosts = len({getattr(row, "host", "") for row in rows})
    phase_row = SweepPhaseRow(
        phase=phase,
        workers=workers,
        cells=len(cells),
        wall_s=wall_s,
        hosts=hosts,
        pass_tiers=pass_totals,
    )
    if progress is not None:
        progress(
            f"{phase}: {len(cells)} cells over {workers} worker(s) in {wall_s:.2f}s "
            f"({phase_row.compute_passes} compute-tier passes)"
        )
    return phase_row, rows


def run_sweep_bench(
    scales: Sequence[int] = DEFAULT_SCALES,
    repeats: int = 1,
    ladder: Sequence[int] = WORKER_LADDER,
    progress=None,
) -> SweepBenchResult:
    from repro.benchsuite.enginebench import DESCEND_BENCHMARKS
    from repro.benchsuite.sweep import make_cells

    specs = [
        (benchmark, "small", scale)
        for scale in scales
        for benchmark in DESCEND_BENCHMARKS
    ]
    cells = make_cells(
        "descend", specs, repeats=repeats, budget_s=SCALING_BUDGET_S,
        device_s_per_cycle=DEVICE_S_PER_CYCLE,
    )
    result = SweepBenchResult()
    with tempfile.TemporaryDirectory(prefix="descend-sweepbench-") as tmp:
        config = ServeConfig(
            socket_path=f"{tmp}/serve.sock",
            store_path=f"{tmp}/store",
            store_http_port=0,
        )
        with ServerThread(LocalBackend(label="sweepbench"), config) as thread:
            store_url = thread.store_url
            assert store_url is not None
            if progress is not None:
                progress(f"store endpoint: {store_url} ({len(cells)} cells)")
            cold_row, _ = _dispatch_phase("cold", cells, 1, store_url, progress)
            result.rows.append(cold_row)
            if cold_row.compute_passes == 0:
                raise BenchmarkError(
                    "cold fill phase reported no compute-tier passes; the store "
                    "was not actually cold and the warm walls would be meaningless"
                )
            baseline: Optional[List[Dict[str, object]]] = None
            for workers in ladder:
                phase_row, rows = _dispatch_phase(
                    f"warm x{workers}", cells, workers, store_url, progress
                )
                if phase_row.compute_passes:
                    raise BenchmarkError(
                        f"warm sweep at {workers} worker(s) ran "
                        f"{phase_row.compute_passes} compute-tier passes; expected "
                        f"every compile served from the shared store "
                        f"(tiers: {phase_row.pass_tiers})"
                    )
                stable = _stable_rows(rows)
                if baseline is None:
                    baseline = stable
                elif stable != baseline:
                    raise BenchmarkError(
                        f"warm sweep at {workers} worker(s) disagrees with the "
                        f"1-worker rows on a stable column — dispatch broke the "
                        f"serial-parity oracle"
                    )
                result.rows.append(phase_row)
    return result


def write_report(result: SweepBenchResult, path: str, quick: bool = False) -> Dict[str, object]:
    """Write the JSON report CI uploads as a distributed-smoke artifact."""
    payload = dict(result.as_dict())
    payload["quick"] = quick
    payload["device_s_per_cycle"] = DEVICE_S_PER_CYCLE
    payload["budget_s"] = SCALING_BUDGET_S
    payload["created_unix"] = time.time()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Scaling benchmark of the distributed sweep dispatcher"
    )
    parser.add_argument(
        "--scales", nargs="*", type=int, default=None,
        help=f"workload scales of the cell set (default {DEFAULT_SCALES})",
    )
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument(
        "--workers", nargs="*", type=int, default=None,
        help=f"worker counts of the scaling ladder (default {WORKER_LADDER})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke subset: scales {QUICK_SCALES}",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, dest="min_speedup",
        help="fail unless the 4-worker warm speedup reaches this factor",
    )
    parser.add_argument("--output", default="BENCH_sweep_scaling.json")
    parser.add_argument("--json", action="store_true", help="print the JSON payload to stdout")
    args = parser.parse_args(argv)

    scales = args.scales
    if scales is None:
        scales = QUICK_SCALES if args.quick else DEFAULT_SCALES
    ladder = tuple(args.workers) if args.workers else WORKER_LADDER
    progress = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    try:
        result = run_sweep_bench(
            scales=scales, repeats=max(1, args.repeats), ladder=ladder,
            progress=progress,
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    speedup = result.speedup_4w
    if (
        args.min_speedup is not None
        and (speedup is None or speedup < args.min_speedup)
    ):
        print(
            f"error: 4-worker warm speedup "
            f"{'n/a' if speedup is None else f'{speedup:.2f}x'} is below the "
            f"required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
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
