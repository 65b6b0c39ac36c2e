"""The ``serve-mixed`` workload: a compile daemon under a closed-loop client.

A ``descendc serve --store DIR`` daemon runs in its own process.  One client
connection sends its next request as soon as the previous answer arrives,
from a seeded sequence of sources of a fixed corpus, each under its own unit
name:

* **new** sources (:data:`NEW_PER_BLOCK`): never seen, so the compile
  passes run in the compute tier and write to the store;
* **preloaded** sources (:data:`STORE_PER_BLOCK`): written to the store
  during set-up by an earlier daemon process, so their first request is
  served from the store tier;
* **repeats** (the rest): a source already sent, served from the daemon's
  memory tier.

Most requests are new (10 in 16), so the median request runs the compile
passes and writes the store, and ``ref_p50_ms`` and ``ref_ops_per_s`` move
with the compile layers rather than with socket and memory-cache overhead
alone; the p95 is the slowest compiles.  Sources are programs from
``repro.fuzz.generate``, every fourth one mutated (most mutants are
ill-typed, but a mutation does not always break typing), and, as every
eighth source, the printed Figure 8 programs in turn.  Each source has one
op: ``check``, ``compile`` or ``plan``.

A request is one operation.  It fails if it is refused (``overloaded``,
``retries-exhausted``, ``deadline-exceeded``; the client never retries, so
transport errors show as ``retries-exhausted``), if an unmutated source is
not ``ok``, if a mutant is neither ``ok`` nor a ``type-error``, or if a
repeat's status, error code or artifact digest differs from the source's
first answer, which for preloaded sources is the earlier daemon's.

Set-up starts the preloading daemon, preloads :data:`PRELOAD` sources into
a store, stops it and starts the measured daemon on a copy of that store; it
runs :data:`common.SETUP_REPEATS` times on fresh stores and the last one is
measured.  The timed part *replays* the same :data:`REPLAY` requests until
``seconds`` have passed and at least :data:`MIN_REPLAYS` times, each replay
against a fresh daemon on a fresh copy of the preloaded store, so every
replay does the same work in the same tiers.  A request's sample is its CPU
time: the client thread's during the call plus what every daemon thread ran
since the previous answer (:meth:`Daemon.cpu_s`).  Each request of the
sequence stands at the lower quartile of its samples over the replays,
scaled to the reference host by the probe the client runs before every
block (:class:`common.HostSpeed`).  Of these :data:`REPLAY` figures the run
reports requests per second, the median and the p95 (ten requests lie
beyond it).  Peak memory is read at the end of the first replay, so it
measures a fixed amount of work.  With tracing on, the per-layer numbers
come from the ``passes`` each response reports; the daemon is not
instrumented, so the tracing overhead is the time spent attributing those
passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter, thread_time
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
from repro.descend.api import (
    ERR_DEADLINE,
    ERR_OVERLOADED,
    ERR_RETRIES_EXHAUSTED,
    ERR_TYPE,
    NO_RETRY,
    DescendClient,
    ProtocolError,
    Request,
    Response,
)
from repro.descend.ast.printer import print_program
from repro.fuzz.generate import build_program, case_rng, random_spec
from spans import COUNTERS, LAYERS

#: Per block of requests: new sources, preloaded sources; the rest repeat.
BLOCK = 16
NEW_PER_BLOCK = 10
STORE_PER_BLOCK = 1
#: Requests per replay: 13 blocks, so ten requests lie beyond the p95.
REPLAY = 13 * BLOCK
MIN_REPLAYS = 4
#: Sources in the store before the measured daemon starts; a replay draws
#: :data:`STORE_PER_BLOCK` per block of them.
PRELOAD = 64
#: The seed of the fuzz programs in the corpus (:func:`make_source`).
CORPUS_SEED = 0
FIG8_EVERY = 8
OPS = ("check", "compile", "check", "compile", "plan")
REFUSED = (ERR_OVERLOADED, ERR_RETRIES_EXHAUSTED, ERR_DEADLINE)
WORK_DIR = ".perfbench_work"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: Per-layer metrics of kernel launches, which this workload does not run.
NOT_EXERCISED = tuple(f"{layer}_s" for layer in LAYERS) + COUNTERS + (
    "other_s", "launches", "sim_cycles_per_s")


@dataclass(frozen=True)
class Source:
    name: str
    text: str
    op: str
    mutated: bool


_FIG8_TEXTS: List[str] = []


def _fig8_texts() -> List[str]:
    if not _FIG8_TEXTS:
        _FIG8_TEXTS.extend(
            print_program(P.DESCEND_BUILDERS[p](P.PARAMS[p][s])) for p in P.PROGRAMS for s in P.SIZES
        )
    return _FIG8_TEXTS


def make_source(index: int) -> Source:
    """Source ``index`` of the corpus, the same for every seed.

    The op cycles with the index (two ``check``, two ``compile``, one
    ``plan`` in five), every eighth source is a printed Figure 8 program and
    every fourth fuzz program, generated under :data:`CORPUS_SEED`, is a
    mutant.  The fuzz programs differ widely in size: when the seed picked
    them, the compile time of the 130 a replay sends spread by 12% of its
    median over ten seeds.  So every run compiles the same corpus and the
    seed picks the order (:func:`make_sequence`).
    """
    op = OPS[index % len(OPS)]
    name = f"s{index}.descend"
    fig8 = _fig8_texts()
    if index % FIG8_EVERY == FIG8_EVERY - 2:
        return Source(name, fig8[(index // FIG8_EVERY) % len(fig8)], op, False)
    spec = random_spec(case_rng(CORPUS_SEED, index), mutate=index % 4 == 3)
    return Source(name, print_program(build_program(spec)), op, bool(spec.mutation))


def make_sequence(seed: int) -> List[int]:
    """The source indices of one replay, from the seed alone.

    Every block of :data:`BLOCK` holds exactly :data:`NEW_PER_BLOCK` new and
    :data:`STORE_PER_BLOCK` preloaded sources and repeats for the rest, in a
    seeded order.  The new sources are the corpus after the preloaded ones,
    in a seeded order; the preloaded ones a seeded sample; a repeat picks
    uniformly among the sources already sent.
    """
    rng = random.Random(f"perfbench:serve:stream:{seed}")
    blocks = REPLAY // BLOCK
    preloaded = rng.sample(range(PRELOAD), min(PRELOAD, STORE_PER_BLOCK * blocks))
    new = list(range(PRELOAD, PRELOAD + NEW_PER_BLOCK * blocks))
    rng.shuffle(new)
    seen: List[int] = []
    sequence: List[int] = []
    for _ in range(blocks):
        plan = (["new"] * NEW_PER_BLOCK + ["store"] * STORE_PER_BLOCK
                + ["repeat"] * (BLOCK - NEW_PER_BLOCK - STORE_PER_BLOCK))
        rng.shuffle(plan)
        for kind in plan:
            if kind == "store" and preloaded:
                index = preloaded.pop()
            elif (kind == "repeat" and seen) or not new:
                sequence.append(rng.choice(seen))
                continue
            else:
                index = new.pop()
            seen.append(index)
            sequence.append(index)
    return sequence


def response_digest(response: Response) -> str:
    payload = json.dumps([response.artifacts, list(response.diagnostics)], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Ledger:
    """First answer per source; checks every later answer against it."""

    def __init__(self) -> None:
        self.first: Dict[str, Tuple[str, str, str]] = {}

    def check(self, source: Source, response: Response) -> List[str]:
        code = response.error_code
        if code in REFUSED:
            return [f"{source.name}: refused: {code}: {response.error_message}"]
        problems = []
        if not source.mutated and not response.ok:
            problems.append(f"{source.name}: expected ok, got {code}")
        if source.mutated and not response.ok and code != ERR_TYPE:
            problems.append(f"{source.name}: mutant expected ok or {ERR_TYPE}, got {code}")
        answer = (response.status, code, response_digest(response))
        first = self.first.setdefault(source.name, answer)
        if answer != first:
            problems.append(f"{source.name}: repeat answered {answer[:2]}, first answer {first[:2]}"
                            + (" (artifact digest differs)" if answer[2] != first[2] else ""))
        return problems


class Daemon:
    """One ``descendc serve`` process; always stopped and waited for."""

    def __init__(self, work: str, name: str, store: str) -> None:
        self.socket = os.path.join(work, f"{name}.sock")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = SRC
        self._log = open(os.path.join(work, f"{name}.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", self.socket, "--store", store],
            env=env, stdin=subprocess.DEVNULL, stdout=self._log, stderr=subprocess.STDOUT,
        )
        probe = DescendClient(self.socket, retry=NO_RETRY)
        try:
            if not probe.wait_until_ready(timeout=60.0):
                raise RuntimeError(f"daemon {name} did not become ready")
        except BaseException:
            self.stop()
            raise
        finally:
            probe.close()

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set)."""
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def cpu_s(self) -> float:
        """CPU time of the daemon's threads so far, from ``/proc/PID/task/*/schedstat``.

        The first field is the thread's run time in ns; a Linux guest with
        paravirtual steal accounting leaves out time the host gave to other
        tenants.
        """
        tasks = f"/proc/{self.proc.pid}/task"
        total = 0
        for tid in os.listdir(tasks):
            with contextlib.suppress(FileNotFoundError):
                with open(f"{tasks}/{tid}/schedstat", "r", encoding="ascii") as handle:
                    total += int(handle.read().split()[0])
        return total / 1e9

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with DescendClient(self.socket, timeout=10.0, retry=NO_RETRY) as client:
                    client.shutdown()
            except (OSError, ProtocolError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def request(client: DescendClient, source: Source) -> Response:
    return client.handle(Request(op=source.op, source=source.text, name=source.name))


@dataclass
class Answer:
    """What the run keeps of one request; passes and tiers only when traced."""

    index: int
    latency_s: float
    cpu_s: float
    error_code: str
    pass_tiers: Dict[str, Dict[str, int]]
    passes: Tuple[Dict[str, object], ...]


class ServeWorkload:
    """The request sequence and ledger, the preloaded store and the measured daemon."""

    def __init__(self, seed: int, work: str) -> None:
        self.work = work
        self.sequence = make_sequence(seed)
        self.sources = {index: make_source(index) for index in set(self.sequence)}
        self.ledger = Ledger()
        self.host = HostSpeed()
        self.daemon: Optional[Daemon] = None
        self.setups = 0
        self.replays = 0
        self.setup_dir = ""

    def setup(self) -> None:
        """Preload through one daemon, then start the first measured one."""
        self.close()
        if self.setup_dir:
            shutil.rmtree(self.setup_dir, ignore_errors=True)
        self.setups += 1
        self.replays = 0
        self.setup_dir = os.path.join(self.work, f"setup{self.setups}")
        os.makedirs(self.setup_dir)
        self.ledger = Ledger()
        preloader = Daemon(self.setup_dir, "preload", os.path.join(self.setup_dir, "preloaded"))
        try:
            with DescendClient(preloader.socket, retry=NO_RETRY) as client:
                for index in range(PRELOAD):
                    source = self.sources.get(index) or make_source(index)
                    problems = self.ledger.check(source, request(client, source))
                    if problems:
                        raise RuntimeError(f"preload failed: {problems[0]}")
        finally:
            preloader.stop()
        self.start_daemon()

    def start_daemon(self) -> None:
        """A fresh daemon on a fresh copy of the preloaded store."""
        self.replays += 1
        name = f"serve{self.replays}"
        store = os.path.join(self.setup_dir, name)
        shutil.copytree(os.path.join(self.setup_dir, "preloaded"), store)
        self.daemon = Daemon(self.setup_dir, name, store)

    def replay(self, trace: bool) -> Tuple[List[Answer], List[str]]:
        """The sequence once against the current daemon; ``(answers, failures)``.

        The host is probed before every block, while the daemon is idle.
        """
        assert self.daemon is not None
        answers: List[Answer] = []
        failures: List[str] = []
        with DescendClient(self.daemon.socket, retry=NO_RETRY) as client:
            daemon_cpu = self.daemon.cpu_s()
            for position, index in enumerate(self.sequence):
                if position % BLOCK == 0:
                    self.host.probe()
                source = self.sources[index]
                start, client_cpu = perf_counter(), thread_time()
                response = request(client, source)
                latency = perf_counter() - start
                client_cpu = thread_time() - client_cpu
                daemon_cpu, before = self.daemon.cpu_s(), daemon_cpu
                answers.append(Answer(index, latency, client_cpu + daemon_cpu - before,
                                      response.error_code,
                                      response.pass_tiers if trace else {},
                                      response.passes if trace else ()))
                problems = self.ledger.check(source, response)
                if problems:
                    failures.append("; ".join(problems))
        return answers, failures

    def run(self, deadline: float,
            trace: bool = False) -> Tuple[List[List[Answer]], List[str], float]:
        """Replays until the deadline; ``(answers per replay, failures, peak_rss_mb)``.

        The peak RSS (this process plus the daemon) is read at the end of
        the first replay.
        """
        replays: List[List[Answer]] = []
        failures: List[str] = []
        rss = 0.0
        while len(replays) < MIN_REPLAYS or perf_counter() < deadline:
            if self.daemon is None:
                self.start_daemon()
            answers, problems = self.replay(trace)
            if not replays:
                rss = peak_rss_mb() + self.daemon.peak_rss_mb()
            self.close()
            shutil.rmtree(os.path.join(self.setup_dir, f"serve{self.replays}"), ignore_errors=True)
            replays.append(answers)
            failures += problems
        return replays, failures, rss

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


def traced_metrics(answers: List[Answer]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics from each response's ``passes``, and the wall gates."""
    tiers: Dict[str, Dict[str, int]] = {}
    passes: List[Dict[str, object]] = []
    gates: List[str] = []
    overhead = 0.0
    cold: List[float] = []
    warm: List[float] = []
    for answer in answers:
        merge_tiers(tiers, answer.pass_tiers)
        passes += answer.passes
        pass_wall = sum(float(row["wall_s"]) for row in answer.passes)
        if pass_wall > answer.latency_s:
            gates.append(f"request {answer.index}: passes {pass_wall} s "
                         f"exceed round trip {answer.latency_s} s")
        overhead += answer.latency_s - pass_wall
        if any("compute" in counts for counts in answer.pass_tiers.values()):
            cold.append(answer.latency_s)
        elif answer.pass_tiers:
            warm.append(answer.latency_s)
    metrics = pass_metrics(tiers, passes, len(answers))
    metrics["descend.serve.overhead_s"] = overhead / len(answers)
    metrics["descend.serve.refused"] = sum(a.error_code in REFUSED for a in answers)
    metrics["requests"] = len(answers)
    metrics["compile_cold_p50_ms"] = percentile(cold, 50) * 1e3
    metrics["compile_warm_p50_ms"] = percentile(warm, 50) * 1e3
    return metrics, gates


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    work = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(work)
    workload = ServeWorkload(seed, work)
    try:
        setup_s = timed_setups(workload.setup, workload.host)
        replays, failures, rss = workload.run(perf_counter() + seconds, trace)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)
    answers = [a for replay in replays for a in replay]
    latencies = [a.latency_s for a in answers]
    detail = {"replays": len(replays), "requests": len(answers), "requests_per_replay": REPLAY,
              "tail_percentile": 95, "host_factor": workload.host.factor(),
              "wall_ops_per_s": len(answers) / sum(latencies),
              "cpu_ops_per_s": len(answers) / sum(a.cpu_s for a in answers),
              "replay_cpu_s": [round(sum(a.cpu_s for a in replay), 3) for replay in replays]}
    if trace:
        start = perf_counter()
        metrics, gates = traced_metrics(answers)
        metrics["trace_overhead_s"] = (perf_counter() - start) / len(answers)
        metrics.update(dict.fromkeys(NOT_EXERCISED, 0.0))
        failures += gates
    else:
        # Request i of the sequence -> its CPU time in every replay.
        positions = zip(*[[a.cpu_s for a in replay] for replay in replays])
        host = workload.host
        quiet = [host.scale(percentile(list(samples), QUIET_QUANTILE)) for samples in positions]
        metrics = {
            "ref_ops_per_s": len(quiet) / sum(quiet),
            "ref_p50_ms": percentile(quiet, 50) * 1e3,
            "ref_tail_ms": percentile(quiet, 95) * 1e3,
            "peak_rss_mb": rss,
            "success_rate": 1.0 - len(failures) / len(answers),
            "setup_s": host.scale(setup_s),
        }
    return {"attempted": len(answers), "failures": failures, "metrics": metrics, "detail": detail}
