"""The repository benchmark: Figure 8 launches and the compile daemon.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-descend --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``fig8-descend`` -- the six Descend programs at two sizes, launched through
  ``CompiledProgram.kernel(f).launch`` (:mod:`fig8`);
* ``fig8-cudalite`` -- the same cells as hand-written CUDA-lite kernels
  through ``GpuDevice.launch``, plus the Listing 1 race canary (:mod:`fig8`);
* ``serve-mixed`` -- a closed-loop client against a ``descendc serve`` daemon
  process (:mod:`serve`).

Every workload reports the same end-to-end metrics (``--trace 0``); an
operation is a kernel launch on ``fig8-*`` and a request on ``serve-mixed``.
Times are CPU times, and each operation stands at the lower quartile of its
times over the repeats of one run: a round of launches on ``fig8-*``, a
replay of the request sequence against a fresh daemon on ``serve-mixed``.
The host is shared with other tenants: CPU time leaves out the time they
are given this CPU, and the quartile leaves out short stretches in which
they slow the work run here.  Longer stretches last minutes (the same code
ran 1.6 times slower for half an hour), so the benchmark also probes the
host between operations and reports every time, set-up too, as it would be
on a reference host (:class:`common.HostSpeed`; ``ref_`` in a name says
so).  On a host of its own, the CPU time of this single-threaded work is
its wall time.

* ``ref_ops_per_s`` -- operations per second of a round / of a replay;
  on ``fig8-*`` simulated cycles per second move with it, because every
  round launches the same cells;
* ``ref_p50_ms``, ``ref_tail_ms`` -- median and slowest of a round's
  launches / median and p95 of a replay's requests (ten beyond it);
* ``peak_rss_mb`` -- peak RSS of the benchmark process (the probe's
  arrays add 9 MiB); on ``serve-mixed`` plus the daemon's ``VmHWM``, both
  read at the end of the first replay;
* ``success_rate`` -- share of operations that passed every check;
* ``setup_s`` -- median wall of three set-ups, scaled to the reference host.

The per-layer metrics (``--trace 1``) are per traced operation (unit
``s/op``, ``count/op``, ``B/op``) or totals (``count``); a workload reports 0
for the layers it does not run.  :mod:`spans` names the wrapped entry points.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it starts with
``perfbench:`` and records the workload, the seed, sample counts and the
first failures.  Without the repository's ``src/`` next to this directory
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig8-descend", "fig8-cudalite", "serve-mixed")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload.startswith("fig8-"):
        import fig8
        import programs

        golden = programs.load_golden()
        return fig8.run(workload[len("fig8-"):], seed, seconds, trace, golden)
    import serve

    return serve.run(seed, seconds, trace)


def result_line(outcome: dict, spec: dict, trace: bool) -> dict:
    """The final JSON object; refuses a metric set that differs from the spec."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    produced = outcome["metrics"]
    if set(produced) != set(units):
        missing = sorted(set(units) - set(produced))
        extra = sorted(set(produced) - set(units))
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    failed = len(outcome["failures"])
    return {
        "correct": failed == 0,
        "attempted": int(outcome["attempted"]),
        "failed": failed,
        "metrics": {
            name: {"value": float(produced[name]), "unit": units[name]} for name in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repository sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # A terminated run still stops the daemon it started (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One CPU for the benchmark, its probes and the daemon it starts: the
    # host's tenants slow each CPU by a different amount, and a probe
    # speaks only for the CPU it ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(outcome, spec, bool(args.trace))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **outcome["detail"],
        "failures": outcome["failures"][:10],
    }
    print("perfbench: " + json.dumps(summary, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
