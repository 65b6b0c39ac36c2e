"""The ``REPRO_FAULTS`` specification grammar.

A fault plan is a seed plus a list of rules, each naming one injection
*site* (a hot I/O seam instrumented with :func:`repro.faults.check`) and
describing when it misbehaves and how::

    REPRO_FAULTS = [seed=<int>;] <rule> [; <rule> ...]
    rule         = <site>:<field>[,<field>...]
    field        = kind=<kind> | p=<float> | nth=<int> | max=<int> | epoch=<int>

``kind`` is mandatory and names the misbehavior the seam applies (see
:data:`KINDS`); the remaining fields are the *trigger*:

``p=<float>``
    Fire on each hit with this probability (default ``1.0``), drawn from a
    per-site PRNG seeded with ``(seed, site, epoch)`` — the schedule is a
    pure function of the spec, never of wall-clock or pids, so the same
    spec replays the same faults.
``nth=<int>``
    Fire only on exactly the *nth* hit of the site (1-based) in this
    process.
``max=<int>``
    Stop firing after this many fires (how chaos tests let a retry
    eventually succeed against a long-lived daemon).
``epoch=<int>``
    Fire only when ``REPRO_FAULTS_EPOCH`` equals this value.  The sweep
    dispatcher sets it per cell to the cell's attempt count, and starts
    each locally spawned worker under its slot's respawn count, so "every
    cell fails on its first try and heals on the retry" (``sweep.cell``)
    and "the first worker fails setup, its respawn succeeds"
    (``sweep.spawn``) are expressible and deterministic even though
    worker-local hit counters restart per process.

Example: a store whose first two blob writes are torn, a daemon that
drops the socket on the second response::

    REPRO_FAULTS="seed=42;store.blob.write:kind=torn,max=2;serve.conn.write:kind=drop,nth=2"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["FaultRule", "FaultPlan", "FaultSpecError", "SITES", "KINDS", "parse_spec"]


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` string that does not parse: fail loud, not quiet.

    A typo'd chaos run that silently injects nothing would report a green
    "survived all faults" without testing anything.
    """


#: Every injection point wired into the serving stack.  Parsing rejects
#: unknown sites so a typo cannot silently disable a chaos scenario.
SITES = frozenset(
    {
        "store.blob.read",
        "store.blob.write",
        "store.blob.rename",
        "store.index.flock",
        "store.http.get",
        "store.http.put",
        "serve.conn.read",
        "serve.conn.write",
        "serve.exec.submit",
        "sweep.spawn",
        "sweep.cell",
        "sweep.dispatch",
    }
)

#: The misbehavior vocabulary.  Sites interpret the kinds that make sense
#: for them (a socket cannot tear a pickle; a flock cannot drop a frame):
#:
#: ``oserror``  raise :class:`repro.faults.InjectedOSError` at the seam
#: ``exc``      raise :class:`repro.faults.InjectedError` at the seam
#: ``torn``     truncate the bytes in flight (blob writes/reads, responses)
#: ``drop``     close the connection without (fully) answering
#: ``crash``    hard-kill the process (``os._exit``) — sweep workers only
KINDS = frozenset({"oserror", "exc", "torn", "drop", "crash"})


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule: *where* (site), *what* (kind), and *when* (trigger)."""

    site: str
    kind: str
    p: float = 1.0
    nth: Optional[int] = None
    max_fires: Optional[int] = None
    epoch: Optional[int] = None


@dataclass(frozen=True)
class FaultPlan:
    """A parsed ``REPRO_FAULTS`` value: the seed plus every rule."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def rules_for(self, site: str) -> Tuple[FaultRule, ...]:
        return tuple(rule for rule in self.rules if rule.site == site)


def _parse_fields(site: str, text: str) -> FaultRule:
    fields: Dict[str, str] = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise FaultSpecError(
                f"fault rule field {chunk!r} for site {site!r} must be key=value"
            )
        key, _, value = chunk.partition("=")
        key, value = key.strip(), value.strip()
        if key in fields:
            raise FaultSpecError(f"duplicate field {key!r} in rule for site {site!r}")
        fields[key] = value
    kind = fields.pop("kind", None)
    if kind is None:
        raise FaultSpecError(f"fault rule for site {site!r} is missing kind=")
    if kind not in KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r} for site {site!r}; expected one of "
            f"{sorted(KINDS)}"
        )
    try:
        p = float(fields.pop("p", "1.0"))
        nth = int(fields.pop("nth")) if "nth" in fields else None
        max_fires = int(fields.pop("max")) if "max" in fields else None
        epoch = int(fields.pop("epoch")) if "epoch" in fields else None
    except ValueError as exc:
        raise FaultSpecError(f"bad numeric field in rule for site {site!r}: {exc}") from None
    if fields:
        raise FaultSpecError(
            f"unknown fault rule field(s) {sorted(fields)} for site {site!r}"
        )
    if not 0.0 <= p <= 1.0:
        raise FaultSpecError(f"fault probability p={p} for site {site!r} not in [0, 1]")
    if nth is not None and nth < 1:
        raise FaultSpecError(f"fault nth={nth} for site {site!r} must be >= 1")
    if max_fires is not None and max_fires < 1:
        raise FaultSpecError(f"fault max={max_fires} for site {site!r} must be >= 1")
    return FaultRule(site=site, kind=kind, p=p, nth=nth, max_fires=max_fires, epoch=epoch)


def parse_spec(spec: str) -> FaultPlan:
    """Parse one ``REPRO_FAULTS`` value (raises :class:`FaultSpecError`)."""
    seed = 0
    rules = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError:
                raise FaultSpecError(f"bad fault seed in {clause!r}") from None
            continue
        if ":" not in clause:
            raise FaultSpecError(
                f"fault rule {clause!r} must be <site>:<field>[,<field>...]"
            )
        site, _, fields = clause.partition(":")
        site = site.strip()
        if site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r}; expected one of {sorted(SITES)}"
            )
        rules.append(_parse_fields(site, fields))
    return FaultPlan(seed=seed, rules=tuple(rules))
