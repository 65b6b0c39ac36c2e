"""Helpers shared by the workloads: statistics, memory, set-up timing, passes, host speed."""

from __future__ import annotations

import resource
import statistics
from time import perf_counter, process_time
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

import numpy as np

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: The percentile over a run's repeats that stands for a quiet host.
QUIET_QUANTILE = 25
#: What :func:`host_probe` takes on the reference host (:class:`HostSpeed`);
#: on a 2-CPU Xeon at 2.0 GHz shared with other tenants it takes 20-24 ms.
PROBE_REFERENCE_S = 0.020

#: Compile passes (``PassTiming`` names) -> the per-layer metric of their
#: compute-tier wall.
PASS_LAYERS: Dict[str, str] = {
    "parse": "descend.frontend.parse_s",
    "typeck": "descend.typeck.check_s",
    "lower.plan": "descend.plan.lower_s",
    "lower.plan.opt": "descend.plan.opt_s",
    "lower.cuda": "descend.codegen.cuda_s",
}
TIERS: Tuple[str, ...] = ("compute", "memory", "store")

Metrics = Dict[str, float]


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup: Callable[[], None], host: "HostSpeed") -> float:
    """Run ``setup`` :data:`SETUP_REPEATS` times, each after a host probe;
    the median wall in seconds."""
    walls = []
    for _ in range(SETUP_REPEATS):
        host.probe()
        start = perf_counter()
        setup()
        walls.append(perf_counter() - start)
    return statistics.median(walls)


def merge_tiers(into: Dict[str, Dict[str, int]], tiers: Mapping[str, Mapping[str, int]]) -> None:
    """Add one ``{pass: {tier: count}}`` table into another."""
    for name, counts in tiers.items():
        bucket = into.setdefault(name, {})
        for tier, count in counts.items():
            bucket[tier] = bucket.get(tier, 0) + count


def pass_metrics(
    tiers: Mapping[str, Mapping[str, int]], passes: Iterable[Mapping[str, object]], ops: int
) -> Metrics:
    """Compile-pass and cache-tier metrics from ``PassTiming`` rows.

    Pass walls count only when the pass ran in the compute tier; the store
    tier's wall is ``descend.store.load_s``.  Times are per operation.
    """
    walls = {metric: 0.0 for metric in PASS_LAYERS.values()}
    store_wall = 0.0
    for row in passes:
        if row["source"] == "compute" and row["pass"] in PASS_LAYERS:
            walls[PASS_LAYERS[row["pass"]]] += float(row["wall_s"])
        elif row["source"] == "store":
            store_wall += float(row["wall_s"])
    per_op = 1.0 / ops if ops else 0.0
    metrics: Metrics = {name: wall * per_op for name, wall in walls.items()}
    metrics["descend.store.load_s"] = store_wall * per_op
    totals = {tier: 0 for tier in TIERS}
    for counts in tiers.values():
        for tier, count in counts.items():
            totals[tier] = totals.get(tier, 0) + count
    for tier in TIERS:
        metrics[f"descend.driver.tier.{tier}"] = totals[tier]
    served = sum(totals.values())
    hits = totals["memory"] + totals["store"]
    metrics["descend.driver.hit_ratio"] = hits / served if served else 0.0
    return metrics


# -- host speed ------------------------------------------------------------------------

_PROBE_RNG = np.random.default_rng(0)
_PROBE_VALUES = _PROBE_RNG.random(1 << 19)
_PROBE_INDEX = _PROBE_RNG.integers(0, 1 << 19, 1 << 16)


def host_probe() -> float:
    """CPU seconds of a fixed piece of numpy work that shares no code with the repo.

    Gathers, scatter-adds and sorts on 4 MiB arrays: data that does not fit
    in a core's own caches, so the probe slows, as the simulator and the
    compile daemon do, when other tenants fill the shared ones.
    """
    start = process_time()
    acc = np.zeros_like(_PROBE_VALUES)
    for _ in range(2):
        gathered = _PROBE_VALUES[_PROBE_INDEX]
        np.add.at(acc, _PROBE_INDEX[:8192], gathered[:8192])
        np.argsort(_PROBE_INDEX, kind="stable")
        np.where(gathered > 0.5, gathered, -gathered).sum()
    return process_time() - start


class HostSpeed:
    """Probes the host between the operations of a run.

    The host is shared with other tenants, and for minutes at a time they
    slow the work run here by up to two thirds.  :func:`host_probe` runs
    between operations, on the same CPU (the benchmark pins itself and the
    daemon it starts to one); :meth:`scale` takes a time measured in this
    run to the time it would take on the reference host, on which the probe
    takes :data:`PROBE_REFERENCE_S`.  Operations and probes both stand at
    their lower quartile over the run (:data:`QUIET_QUANTILE`), so a short
    slow stretch moves neither.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []

    def probe(self) -> None:
        self.probes.append(host_probe())

    def factor(self) -> float:
        return PROBE_REFERENCE_S / percentile(self.probes, QUIET_QUANTILE)

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()
