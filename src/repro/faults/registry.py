"""The runtime half of the fault harness: deciding when a site fires.

The serving stack calls :func:`check` (or :func:`maybe_raise`) at every
instrumented seam.  With no ``REPRO_FAULTS`` in the environment that is one
dict lookup and an early return — the harness costs nothing in production.
With a spec, a process-wide :class:`FaultRegistry` tracks per-site hit
counters and draws from per-site PRNGs seeded by ``(seed, site, epoch)``,
so a fault schedule is a deterministic function of the spec and the
process's own sequence of I/O operations: the same chaos run replays
exactly, including inside ``spawn``-ed sweep workers (which inherit the
environment and therefore the plan).
"""

from __future__ import annotations

import os
import random
import threading
from typing import Dict, Optional

from repro.faults.spec import FaultPlan, FaultRule, parse_spec

__all__ = [
    "ENV_SPEC",
    "ENV_EPOCH",
    "InjectedFault",
    "InjectedError",
    "InjectedOSError",
    "FaultRegistry",
    "active",
    "check",
    "maybe_raise",
    "report",
    "reset",
]

#: Environment variables the harness reads.  Both are inherited by spawned
#: subprocesses (daemon workers, sweep workers), which is how one spec
#: governs a whole process tree.
ENV_SPEC = "REPRO_FAULTS"
ENV_EPOCH = "REPRO_FAULTS_EPOCH"


class InjectedFault(Exception):
    """Marker base of every injected failure (``except InjectedFault`` in
    tests distinguishes planned chaos from real bugs)."""


class InjectedError(InjectedFault, RuntimeError):
    """An injected in-process failure (kind ``exc``)."""


class InjectedOSError(InjectedFault, OSError):
    """An injected I/O failure (kind ``oserror``)."""


class FaultRegistry:
    """Per-process fault state: hit counters, fire counters, per-site PRNGs."""

    def __init__(self, plan: FaultPlan, epoch: int = 0, spec: str = "") -> None:
        self.plan = plan
        self.epoch = epoch
        self.spec = spec
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random(f"{self.plan.seed}:{site}:{self.epoch}")
        return rng

    def check(self, site: str) -> Optional[FaultRule]:
        """Record one hit of ``site``; the rule to apply, or ``None``."""
        rules = self.plan.rules_for(site)
        if not rules:
            return None
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for rule in rules:
                if rule.epoch is not None and rule.epoch != self.epoch:
                    continue
                key = f"{site}:{rule.kind}"
                if rule.max_fires is not None and self._fired.get(key, 0) >= rule.max_fires:
                    continue
                if rule.nth is not None and hit != rule.nth:
                    continue
                if rule.p < 1.0 and self._rng(site).random() >= rule.p:
                    continue
                self._fired[key] = self._fired.get(key, 0) + 1
                return rule
        return None

    def report(self) -> Dict[str, object]:
        """The chaos run's ledger: what was planned, hit, and fired."""
        with self._lock:
            return {
                "spec": self.spec,
                "seed": self.plan.seed,
                "epoch": self.epoch,
                "rules": len(self.plan.rules),
                "hits": dict(sorted(self._hits.items())),
                "fired": dict(sorted(self._fired.items())),
            }


# The process-wide registry, (re)loaded lazily from the environment.  The
# cache key is the (spec, epoch) pair actually in the environment, so tests
# that monkeypatch REPRO_FAULTS take effect on the next check() with no
# explicit reload hook.
_cache_key: Optional[object] = None
_registry: Optional[FaultRegistry] = None
_load_lock = threading.Lock()


def _env_key() -> object:
    return (os.environ.get(ENV_SPEC) or "", os.environ.get(ENV_EPOCH) or "0")


def active() -> Optional[FaultRegistry]:
    """The registry for the current environment, or ``None`` when unset."""
    global _cache_key, _registry
    key = _env_key()
    if key == _cache_key:
        return _registry
    with _load_lock:
        if key != _cache_key:
            spec, epoch_text = key  # type: ignore[misc]
            if not spec:
                _registry = None
            else:
                try:
                    epoch = int(epoch_text)
                except ValueError:
                    epoch = 0
                _registry = FaultRegistry(parse_spec(spec), epoch=epoch, spec=spec)
            _cache_key = key
    return _registry


def reset() -> None:
    """Forget the cached registry (fresh counters on the next check)."""
    global _cache_key, _registry
    with _load_lock:
        _cache_key = None
        _registry = None


def check(site: str) -> Optional[FaultRule]:
    """The rule firing at ``site`` right now, or ``None`` (the fast path)."""
    registry = active()
    if registry is None:
        return None
    return registry.check(site)


def maybe_raise(site: str) -> Optional[FaultRule]:
    """Check ``site`` and raise for the exception-shaped kinds.

    ``oserror`` raises :class:`InjectedOSError`, ``exc`` raises
    :class:`InjectedError`, ``crash`` hard-kills the process (the sweep
    chaos class: a worker dying without cleanup).  Any other kind is
    returned for the seam to interpret (``torn``, ``drop``).
    """
    rule = check(site)
    if rule is None:
        return None
    if rule.kind == "oserror":
        raise InjectedOSError(f"injected oserror at {site}")
    if rule.kind == "exc":
        raise InjectedError(f"injected exception at {site}")
    if rule.kind == "crash":
        os._exit(3)
    return rule


def report() -> Optional[Dict[str, object]]:
    """The active registry's ledger, or ``None`` when no plan is loaded."""
    registry = active()
    return registry.report() if registry is not None else None
