"""Scaling benchmark of the sweep dispatcher: ``BENCH_sweep_scaling.json``.

``--jobs N`` sweeps exist for wall-clock: once the shared store is warm, a
bench sweep is pure measurement work, and pull-based work stealing should
spread it across worker processes.  This benchmark measures how far it
does, against one daemon-style HTTP store endpoint:

* **cold** — one worker fills the store: the first compile of every
  program pays the compute passes, persisted over the HTTP protocol;
* **warm xN** — the same cells dispatched to 1, 2, ... up to
  ``os.cpu_count()`` workers against the now-warm store.  Every warm phase
  must report *zero* compute-tier passes (the fleet-wide zero-compute
  acceptance criterion) and its rows must agree with every other warm
  phase on all stable columns (the serial-parity oracle, transitively).

Each cell runs both engine columns, so the work is the simulator's own
CPU time — mostly the reference interpreter — and the ladder stops at the
host's CPU count, past which workers only contend for the same cores.
The headline numbers are ``speedup = wall(1 worker) / wall(widest rung)``
and ``parallel_efficiency = speedup / widest rung``.

Wall time includes worker spawn: the claim is end-to-end sweep latency,
not per-cell throughput.  ``descendc bench`` does not front this module
(it is a meta-benchmark of the dispatcher, not of the engines); CI runs it
directly via ``python -m repro.benchsuite.sweepbench --quick``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchsuite.report import format_table
from repro.descend.api import LocalBackend
from repro.descend.serve import ServeConfig, ServerThread
from repro.errors import BenchmarkError


def default_ladder() -> Tuple[int, ...]:
    """Worker counts of the scaling ladder: 1 up to this host's CPU count.

    The cold fill always uses one worker.
    """
    return tuple(range(1, (os.cpu_count() or 1) + 1))


#: Default cell set: every Descend benchmark at small x scales 1 and 2 —
#: twelve cells of comparable weight, enough measurement work to amortize
#: worker spawn without pushing the run past a few minutes.
DEFAULT_SCALES = (1, 2)
QUICK_SCALES = (1,)

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

    @property
    def ladder(self) -> List[int]:
        return [row.workers for row in self.rows if row.phase.startswith("warm")]

    def warm_wall(self, workers: int) -> Optional[float]:
        for row in self.rows:
            if row.phase.startswith("warm") and row.workers == workers:
                return row.wall_s
        return None

    @property
    def speedup(self) -> Optional[float]:
        """Warm wall at 1 worker over warm wall at the widest rung (> 1)."""
        widest = max(self.ladder, default=1)
        base, wide = self.warm_wall(1), self.warm_wall(widest)
        if widest <= 1 or base is None or wide is None or wide <= 0:
            return None
        return base / wide

    @property
    def parallel_efficiency(self) -> Optional[float]:
        speedup = self.speedup
        return None if speedup is None else speedup / max(self.ladder)

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "phases": [row.as_dict() for row in self.rows],
            "ladder": self.ladder,
            "speedup": self.speedup,
            "parallel_efficiency": self.parallel_efficiency,
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
        speedup = self.speedup
        headline = (
            f"warm sweep speedup at {max(self.ladder)} workers: {speedup:.2f}x "
            f"(parallel efficiency {self.parallel_efficiency:.0%})"
            if speedup is not None
            else "warm sweep speedup: (not measured; needs rungs 1 and > 1)"
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
    store_path: str,
    progress=None,
) -> Tuple[SweepPhaseRow, List[object]]:
    from repro.benchsuite.dispatch import dispatch_cells

    pass_totals: Dict[str, Dict[str, int]] = {}
    started = time.perf_counter()
    rows = dispatch_cells(
        cells, workers, store_path=store_path, pass_totals=pass_totals
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
    ladder: Optional[Sequence[int]] = None,
    progress=None,
) -> SweepBenchResult:
    from repro.benchsuite.dispatch import make_cells
    from repro.benchsuite.enginebench import DESCEND_BENCHMARKS

    specs = [
        (benchmark, "small", scale)
        for scale in scales
        for benchmark in DESCEND_BENCHMARKS
    ]
    cells = make_cells("descend", specs, repeats=repeats, budget_s=None)
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
            for workers in ladder if ladder is not None else default_ladder():
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
        help="worker counts of the scaling ladder (default: 1 up to the CPU count)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke subset: scales {QUICK_SCALES}",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, dest="min_speedup",
        help="fail unless the warm speedup at the widest rung reaches this factor",
    )
    parser.add_argument("--output", default="BENCH_sweep_scaling.json")
    parser.add_argument("--json", action="store_true", help="print the JSON payload to stdout")
    args = parser.parse_args(argv)

    scales = args.scales
    if scales is None:
        scales = QUICK_SCALES if args.quick else DEFAULT_SCALES
    ladder = tuple(args.workers) if args.workers else None
    progress = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    try:
        result = run_sweep_bench(
            scales=scales, repeats=max(1, args.repeats), ladder=ladder,
            progress=progress,
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    speedup = result.speedup
    if (
        args.min_speedup is not None
        and (speedup is None or speedup < args.min_speedup)
    ):
        print(
            f"error: warm speedup at the widest rung "
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
