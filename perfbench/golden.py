"""Write ``golden.json``: expected cycles and race counts per launch.

Runs every (variant, program, size) cell of :mod:`programs` and the race
canary once on the per-thread ``reference`` engine, the repo's semantic
oracle, and records ``[kernel_name, cycles, race_count]`` for each launch.
The benchmark then requires its ``vectorized`` launches to match this table
exactly.  Simulated cycles do not depend on the input values, so one table
serves every seed.

Run from the repository root after changing the sizes in ``programs.py``::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import programs as P  # noqa: E402
from repro.gpusim import GpuDevice  # noqa: E402

SEED = 0


def _record(table, key, log) -> None:
    table[key] = P.launch_signature(log.results)
    print(f"{key}: {table[key]}", file=sys.stderr)


def build_table() -> dict:
    launches = {}
    problems = []
    for program in P.PROGRAMS:
        for size in P.SIZES:
            cell = P.make_cell(program, size, SEED)
            for variant in ("descend", "cudalite"):
                started = time.perf_counter()
                log = P.LaunchLog(variant)
                output = P.run_cell(variant, GpuDevice(execution_mode="reference"), cell, log)
                key = P.golden_key(variant, program, size)
                problems += P.check_output(cell, output)
                problems += P.check_race_verdict(key, log.results, expect_race=False)
                _record(launches, key, log)
                print(f"  {time.perf_counter() - started:.1f} s", file=sys.stderr)
    log = P.LaunchLog("cudalite")
    P.run_canary(GpuDevice(execution_mode="reference"), P.make_canary_input(SEED), log)
    problems += P.check_race_verdict(P.canary_key(), log.results, expect_race=True)
    _record(launches, P.canary_key(), log)
    if problems:
        raise SystemExit("golden run failed its own checks:\n" + "\n".join(problems))
    return {
        "engine": "reference",
        "params": P.PARAMS,
        "canary_params": P.CANARY_PARAMS,
        "launches": launches,
    }


def main() -> int:
    table = build_table()
    with open(P.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {P.GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
