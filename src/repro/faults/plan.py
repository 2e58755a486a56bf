"""Fault plans: declarative, replayable descriptions of injected failures.

A :class:`FaultPlan` is the unit of chaos: a seed plus an ordered list of
:class:`FaultRule` entries, each binding one **fault site** (a named seam
compiled into the production code — see :mod:`repro.faults`) to one
**action** and a deterministic trigger window.  Because triggers are
counter-based (``after``/``count``) and the only randomness is a seeded
RNG, running the same plan against the same workload reproduces the same
failures — a chaos run that exposed a bug is replayable as a regression
test by pasting its plan.

Plans serialize to JSON (``to_json``/``from_json``/``load``/``dump``) so
``python -m repro.benchmarking --fault-plan plan.json`` can drive a chaos
run from the command line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

__all__ = ["FaultPlan", "FaultRule", "InjectedFault", "FAULT_ACTIONS"]


class InjectedFault(RuntimeError):
    """A failure raised on purpose at a fault seam.

    Deliberately *not* a :class:`ConnectionError`/:class:`OSError`
    subclass: seams decide explicitly how an injected fault surfaces
    (dropping a connection, killing a worker, aborting a queue pull), so a
    generic degradation path can never quietly absorb one by accident.
    """


#: The action vocabulary seams understand.  A seam only reacts to the
#: actions that make sense at its site and ignores the rest, so a plan
#: cannot make a seam do something the production failure mode could not.
FAULT_ACTIONS = frozenset(
    {
        "error",  # raise InjectedFault at the site
        "crash",  # kill the owning component (worker server: listener + lanes)
        "stall",  # sleep for ``seconds`` before proceeding
        "corrupt",  # garble the bytes flowing through the site
        "drop",  # sever the connection without replying
        "http_503",  # answer one HTTP request with 503 Service Unavailable
    }
)


@dataclass(frozen=True)
class FaultRule:
    """One deterministic failure: *where*, *what*, and *when*.

    Parameters
    ----------
    site:
        Exact fault-site name (see the site registry in
        :mod:`repro.faults`); a rule never fires anywhere else.
    action:
        One of :data:`FAULT_ACTIONS`.
    after:
        Number of matching passages through the site that go through
        cleanly before the rule starts firing (``after=2`` → the third
        matching event is the first to fail).
    count:
        How many events fire once the window opens; ``None`` fires
        forever.  The default of 1 models the common one-shot fault.
    seconds:
        Stall duration for ``action="stall"``.
    probability:
        Seeded-RNG gate applied after the counter window; 1.0 (default)
        keeps triggers fully counter-deterministic.  Values below 1.0 are
        reproducible only for a fixed thread interleaving.
    match:
        Substring filter on the event's detail string (e.g. a document
        name or ``host:port``); empty matches everything.
    """

    site: str
    action: str
    after: int = 0
    count: int | None = 1
    seconds: float = 0.0
    probability: float = 1.0
    match: str = ""

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; choose one of "
                f"{sorted(FAULT_ACTIONS)}"
            )
        if not self.site:
            raise ValueError("a fault rule needs a site name")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 (or None for unlimited)")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")

    def to_record(self) -> dict:
        record: dict[str, Any] = {"site": self.site, "action": self.action}
        if self.after:
            record["after"] = self.after
        if self.count != 1:
            record["count"] = self.count
        if self.seconds:
            record["seconds"] = self.seconds
        if self.probability != 1.0:
            record["probability"] = self.probability
        if self.match:
            record["match"] = self.match
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "FaultRule":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - set of names
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"unknown fault-rule fields {sorted(unknown)}")
        return cls(**dict(record))


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered rule list: one replayable chaos scenario."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def of(cls, *rules: FaultRule, seed: int = 0, name: str = "") -> "FaultPlan":
        """Convenience constructor: ``FaultPlan.of(rule, rule, ...)``."""
        return cls(rules=rules, seed=seed, name=name)

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "name": self.name,
                "rules": [rule.to_record() for rule in self.rules],
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        record = json.loads(text)
        if not isinstance(record, dict) or not isinstance(record.get("rules"), list):
            raise ValueError("a fault plan is an object with a 'rules' list")
        return cls(
            rules=tuple(FaultRule.from_record(rule) for rule in record["rules"]),
            seed=int(record.get("seed", 0)),
            name=str(record.get("name", "")),
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def dump(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    def sites(self) -> Iterable[str]:
        return sorted({rule.site for rule in self.rules})

    def __repr__(self) -> str:
        label = f"name={self.name!r}, " if self.name else ""
        return f"FaultPlan({label}seed={self.seed}, rules={len(self.rules)})"
