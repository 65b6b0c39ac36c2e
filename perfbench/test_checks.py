"""Tests of the benchmark's own checks: each kind of wrong answer must count.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import functools
import json

import numpy as np
import pytest

import fig8
import programs as P
import run
import serve
from repro.descend.api import ERR_OVERLOADED, ERR_TYPE, Response
from repro.gpusim import GpuDevice
from spans import LayerTracer


@pytest.fixture(scope="module")
def golden():
    return P.load_golden()


def one_cell_workload(variant, golden, program="reduce", size="small"):
    workload = fig8.Fig8Workload(variant, seed=5, golden=golden)
    cell = P.make_cell(program, size, 5)
    workload.cells = [cell]
    workload.canary_input = P.make_canary_input(5)
    return workload, cell


# -- Figure 8: golden table, outputs, race verdicts ----------------------------------


@pytest.mark.parametrize("variant", fig8.VARIANTS)
def test_matching_cell_passes(variant, golden):
    workload, cell = one_cell_workload(variant, golden)
    workload.run_cell(cell, P.LaunchLog(variant))
    assert (workload.attempted, workload.failures) == (1, [])


@pytest.mark.parametrize("variant", fig8.VARIANTS)
def test_wrong_golden_cycle_count_fails_the_cell(variant, golden):
    wrong = copy.deepcopy(golden)
    key = P.golden_key(variant, "reduce", "small")
    wrong["launches"][key][0][1] += 1.0
    workload, cell = one_cell_workload(variant, wrong)
    workload.run_cell(cell, P.LaunchLog(variant))
    assert workload.attempted == 1
    assert len(workload.failures) == 1 and "golden" in workload.failures[0]


def test_wrong_output_fails_the_cell(golden):
    workload, cell = one_cell_workload("cudalite", golden)
    cell.reference = cell.reference + 1.0
    workload.run_cell(cell, P.LaunchLog("cudalite"))
    assert len(workload.failures) == 1 and "numpy reference" in workload.failures[0]


def test_race_canary_is_caught(golden):
    workload, _ = one_cell_workload("cudalite", golden)
    workload.run_canary()
    assert (workload.attempted, workload.failures) == (1, [])


def test_canary_without_race_fails(golden, monkeypatch):
    """Switching race checking off for CUDA-lite shows as a failure, not a speed-up."""
    monkeypatch.setattr(fig8, "GpuDevice", functools.partial(GpuDevice, detect_races=False))
    workload, _ = one_cell_workload("cudalite", golden)
    workload.run_canary()
    assert workload.attempted == 1
    assert len(workload.failures) == 1 and "canary reported no race" in workload.failures[0]


def test_race_in_a_race_free_cell_fails():
    racy = P.LaunchLog("cudalite")
    P.run_canary(GpuDevice(execution_mode="vectorized"), P.make_canary_input(0), racy)
    assert P.check_race_verdict("descend/transpose/small", racy.results, expect_race=False)


def test_golden_table_refuses_other_sizes(tmp_path, golden):
    stale = copy.deepcopy(golden)
    stale["params"]["reduce"]["small"]["n"] *= 2
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(stale))
    with pytest.raises(ValueError):
        P.load_golden(str(path))


# -- inputs come from the seed alone ---------------------------------------------------


def test_cell_inputs_follow_the_seed():
    first, again, other = (P.make_cell("histogram", "small", s) for s in (3, 3, 4))
    assert np.array_equal(first.data, again.data)
    assert not np.array_equal(first.data, other.data)


def test_serve_sources_follow_the_seed():
    assert serve.make_source(17) == serve.make_source(17)
    assert serve.make_sequence(9) == serve.make_sequence(9)
    assert serve.make_sequence(9) != serve.make_sequence(10)
    # Every seed compiles the same new sources, in its own order.
    new = [{i for i in serve.make_sequence(seed) if i >= serve.PRELOAD} for seed in (9, 10)]
    assert new[0] == new[1]


# -- serve-mixed: answers -------------------------------------------------------------


def ok_response(cuda="__global__ void k() {}"):
    return Response(op="compile", status="ok", artifacts={"cuda": cuda})


def test_identical_repeat_passes():
    ledger = serve.Ledger()
    source = serve.Source("s1.descend", "fn f() {}", "compile", False)
    assert ledger.check(source, ok_response()) == []
    assert ledger.check(source, ok_response()) == []


def test_repeat_with_other_digest_fails():
    ledger = serve.Ledger()
    source = serve.Source("s1.descend", "fn f() {}", "compile", False)
    ledger.check(source, ok_response())
    problems = ledger.check(source, ok_response(cuda="// different"))
    assert problems and "digest differs" in problems[0]


def test_repeat_with_other_status_fails():
    ledger = serve.Ledger()
    source = serve.Source("s2.descend", "fn f() {}", "check", True)
    ledger.check(source, Response.failure("check", ERR_TYPE, "conflict"))
    assert ledger.check(source, Response(op="check", status="ok"))


def test_mismatched_repeat_counts_as_a_failed_request(tmp_path, monkeypatch):
    """Against a real daemon: answers that differ from the first one fail."""
    monkeypatch.setattr(serve, "PRELOAD", 8)
    monkeypatch.setattr(serve, "REPLAY", 5 * serve.BLOCK)
    monkeypatch.setattr(serve, "MIN_REPLAYS", 2)
    workload = serve.ServeWorkload(seed=2, work=str(tmp_path))
    try:
        workload.setup()
        first = workload.ledger.first
        for name, (status, code, _) in first.items():
            first[name] = (status, code, "0" * 64)
        replays, failures, _ = workload.run(deadline=0.0)
    finally:
        workload.close()
    assert len(replays) == 2
    answers = [a for replay in replays for a in replay]
    assert 0 < len(failures) < len(answers)
    assert all("digest differs" in failure for failure in failures)


def test_refused_and_unexpected_errors_fail():
    ledger = serve.Ledger()
    source = serve.Source("s3.descend", "fn f() {}", "check", False)
    assert ledger.check(source, Response.failure("check", ERR_OVERLOADED, "queue full"))
    assert ledger.check(source, Response.failure("check", ERR_TYPE, "rejected"))


# -- gates and the result line --------------------------------------------------------


class _Result:
    kernel_name = "k"


def test_layer_sum_above_launch_wall_is_a_gate_failure():
    tracer = LayerTracer()
    gates = []
    log = fig8.TracedLaunchLog("cudalite", tracer, gates)

    def inflated():
        tracer.self_ns["gpusim.engine.run"] += 10 ** 12
        return _Result()

    log.time(inflated)
    assert gates and "exceeds launch wall" in gates[0]


def test_tracer_restores_the_originals():
    original = GpuDevice.launch
    with LayerTracer():
        assert GpuDevice.launch is not original
    assert GpuDevice.launch is original


def test_result_line_refuses_a_metric_set_that_differs_from_the_spec():
    spec = run.load_spec()
    outcome = {"attempted": 1, "failures": [], "metrics": {"p50_ms": 1.0}}
    with pytest.raises(RuntimeError):
        run.result_line(outcome, spec, trace=False)
