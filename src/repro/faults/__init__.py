"""Deterministic fault injection for the compile-service stack.

The serving path around the Descend compiler — the content-addressed
artifact store, the ``descendc serve`` daemon, the multi-process sweep
dispatcher — promises to *degrade*, never die, under partial failure.
This package makes that promise testable: named injection points are wired
into the hot I/O seams (blob read/write/rename, index flock, socket
read/write, executor submission, worker spawn/execution), and a
seed-driven plan parsed from ``REPRO_FAULTS`` decides deterministically
when each one misbehaves.  Daemon and sweep subprocesses inherit the plan
through the environment, so one spec governs the whole process tree and
every chaos run replays exactly.

Spec grammar: :mod:`repro.faults.spec`.  Runtime: :mod:`repro.faults.registry`.
The chaos suite asserting the stack's invariants under every fault class
lives in ``tests/test_faults.py``; CI runs the fault matrix as the
``chaos-smoke`` job.
"""

from repro.faults.registry import (
    ENV_EPOCH,
    ENV_SPEC,
    FaultRegistry,
    InjectedError,
    InjectedFault,
    InjectedOSError,
    active,
    check,
    maybe_raise,
    report,
    reset,
)
from repro.faults.spec import KINDS, SITES, FaultPlan, FaultRule, FaultSpecError, parse_spec

__all__ = [
    "ENV_EPOCH",
    "ENV_SPEC",
    "FaultPlan",
    "FaultRegistry",
    "FaultRule",
    "FaultSpecError",
    "InjectedError",
    "InjectedFault",
    "InjectedOSError",
    "KINDS",
    "SITES",
    "active",
    "check",
    "maybe_raise",
    "parse_spec",
    "report",
    "reset",
]
