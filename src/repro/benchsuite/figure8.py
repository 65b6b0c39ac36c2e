"""Figure 8: relative runtimes between handwritten CUDA and Descend.

Running ``python -m repro.benchsuite.figure8`` regenerates the figure's data:
for every benchmark (Reduce, Transpose, Scan, MM) and every footprint size
(small, medium, large) it reports the simulated kernel cycles of the
handwritten CUDA-lite implementation and of the Descend implementation, their
ratio, and the geometric mean over all cells (the "mean" bar of the figure).

The expected shape (which the tests assert) is the paper's result: Descend
performs the same memory accesses as the handwritten code, so the relative
runtime is ~1.0 for every benchmark and size.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.benchsuite.report import format_bytes, format_table
from repro.benchsuite.runner import BenchmarkRun, run_benchmark_pair
from repro.benchsuite.workloads import BENCHMARKS, SIZES, workload


@dataclass
class Figure8Row:
    """One bar pair of Figure 8."""

    benchmark: str
    size: str
    cuda_cycles: float
    descend_cycles: float
    relative: float
    footprint_bytes: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "size": self.size,
            "cuda_cycles": self.cuda_cycles,
            "descend_cycles": self.descend_cycles,
            "relative_runtime": self.relative,
            "footprint_bytes": self.footprint_bytes,
        }


@dataclass
class Figure8Result:
    """All rows of Figure 8 plus the mean."""

    rows: List[Figure8Row] = field(default_factory=list)

    @property
    def geometric_mean(self) -> float:
        ratios = [row.relative for row in self.rows if row.relative > 0]
        if not ratios:
            return float("nan")
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    def as_dict(self) -> Dict[str, object]:
        return {
            "rows": [row.as_dict() for row in self.rows],
            "geometric_mean_relative_runtime": self.geometric_mean,
        }

    def to_table(self) -> str:
        table = format_table(
            ["benchmark", "size", "footprint", "CUDA cycles", "Descend cycles", "Descend/CUDA"],
            [
                (
                    row.benchmark,
                    row.size,
                    format_bytes(row.footprint_bytes),
                    round(row.cuda_cycles, 1),
                    round(row.descend_cycles, 1),
                    row.relative,
                )
                for row in self.rows
            ],
        )
        return table + f"\n\ngeometric mean Descend/CUDA relative runtime: {self.geometric_mean:.3f}"


def run_figure8(
    benchmarks: Sequence[str] = BENCHMARKS,
    sizes: Sequence[str] = SIZES,
    repeats: int = 1,
    progress=None,
    engine: str = "reference",
    scale: Optional[int] = None,
) -> Figure8Result:
    """Run the Figure 8 sweep (optionally restricted to some benchmarks/sizes).

    ``engine`` picks the execution engine for both variants (CUDA-lite and
    Descend); the cycle counts (and therefore every number in the figure)
    are engine-independent, but ``"vectorized"`` regenerates the data much
    faster.  ``scale`` enlarges every workload footprint (equivalent to the
    ``REPRO_SCALE`` environment variable, without mutating the environment).
    """
    result = Figure8Result()
    for benchmark in benchmarks:
        for size in sizes:
            if progress is not None:
                progress(f"running {benchmark}/{size} ...")
            run = run_benchmark_pair(benchmark, size, repeats=repeats, engine=engine, scale=scale)
            result.rows.append(_row_from_run(run))
    return result


def _row_from_run(run: BenchmarkRun) -> Figure8Row:
    return Figure8Row(
        benchmark=run.workload.benchmark,
        size=run.workload.size,
        cuda_cycles=run.cuda.cycles,
        descend_cycles=run.descend.cycles,
        relative=run.relative_runtime,
        footprint_bytes=run.workload.footprint_bytes(),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate Figure 8 of the Descend paper")
    parser.add_argument("--benchmarks", nargs="*", default=list(BENCHMARKS), choices=list(BENCHMARKS))
    parser.add_argument("--sizes", nargs="*", default=list(SIZES), choices=list(SIZES))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument(
        "--engine", default="reference", choices=("reference", "vectorized"),
        help="execution engine for both variants (cycle counts are identical)",
    )
    parser.add_argument(
        "--scale", type=int, default=None,
        help="workload scale factor (overrides the REPRO_SCALE environment variable)",
    )
    parser.add_argument("--json", action="store_true", help="print machine-readable JSON")
    args = parser.parse_args(argv)

    result = run_figure8(
        benchmarks=args.benchmarks,
        sizes=args.sizes,
        repeats=args.repeats,
        progress=lambda msg: print(msg, file=sys.stderr),
        engine=args.engine,
        scale=args.scale,
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(result.to_table())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
