"""Typed, serializable fault schedules.

A :class:`FaultPlan` is the complete description of what goes wrong in a
trial: a deterministic schedule of discrete faults (server crash/restart,
RAID stall, link degradation, network partition, capability-revocation
storms) plus stochastic per-RPC faults (dropped or duplicated requests)
whose decisions are drawn from dedicated RNG substreams.  Two runs of the
same spec with the same plan therefore produce identical fault logs and
identical timelines — faults are part of the experiment, not noise.

Plans round-trip through JSON (``--faults plan.json`` on the CLI,
``RunOptions(faults="plan.json")`` in code) and hash stably via
:meth:`FaultPlan.signature`, which the bench trial cache folds into its
key so a fault-free cached outcome can never answer for a faulted spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

from ..errors import from_fields

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "RetryPolicy", "load_plan"]

#: Fault kinds the injector understands.
FAULT_KINDS = (
    "server_crash",  # kill the target server's node; restart after `duration`
    "disk_stall",    # occupy the target server's RAID controller for `duration`
    "link_degrade",  # scale the target node's effective bandwidth by `factor`
    "partition",     # cut `targets` off from the rest of the fabric
    "revoke_storm",  # revoke WRITE on every container through the authz cache
)


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side RPC retry: exponential backoff with jitter.

    Active only while a fault plan is installed; the fault-free path never
    consults it, so fault-free timelines are untouched.  ``timeout``
    overrides the per-call RPC timeout during the faulted run (failure
    detection wants to be much faster than the 30 s 2PC default).
    """

    attempts: int = 5
    base_delay: float = 0.01
    max_delay: float = 1.0
    jitter: float = 0.25  # relative spread on each backoff wait
    timeout: Optional[float] = 0.25

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("retry attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` names a server the way clients address it: ``stor0``,
    ``ost1``, ``buf0`` (a burst-buffer node, when a tier is configured),
    ``mds``, ``authz``, ``auth``, ``naming``, ``locks`` — or
    ``node:<id>`` for a raw node (link faults).  ``duration`` is the
    outage/stall/degradation window; ``0`` means the fault is permanent.
    ``factor`` is the bandwidth multiplier for ``link_degrade`` (0.25 =
    quarter speed).  ``targets`` is the isolated group for ``partition``.
    """

    kind: str
    at: float
    target: str = ""
    duration: float = 0.0
    factor: float = 1.0
    targets: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.at < 0:
            raise ValueError("fault time must be >= 0")
        if self.duration < 0:
            raise ValueError("fault duration must be >= 0")
        if not 0 < self.factor <= 1:
            raise ValueError("link_degrade factor must be in (0, 1]")
        if self.kind == "partition" and not self.targets:
            raise ValueError("partition needs a non-empty targets group")
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class FaultPlan:
    """A full fault schedule for one trial.

    ``rpc_drop_rate`` / ``rpc_dup_rate`` are per-request probabilities;
    each decision draws from a substream salted with ``seed``, so the
    stochastic faults are as reproducible as the scheduled ones.
    """

    events: Tuple[FaultEvent, ...] = ()
    rpc_drop_rate: float = 0.0
    rpc_dup_rate: float = 0.0
    retry: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for rate, name in ((self.rpc_drop_rate, "rpc_drop_rate"), (self.rpc_dup_rate, "rpc_dup_rate")):
            if not 0 <= rate < 1:
                raise ValueError(f"{name} must be in [0, 1)")

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["events"] = [asdict(ev) for ev in self.events]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        """Load a plan document.  An absent key takes its dataclass
        default, so a plan without ``retry`` gets :class:`RetryPolicy()`
        and only an explicit ``"retry": null`` turns retries off.  A key
        that names no field, in the plan, an event or ``retry``, raises
        :class:`~repro.errors.ConfigError`."""
        plan = dict(doc)
        plan["events"] = tuple(from_fields(FaultEvent, ev) for ev in doc.get("events", ()))
        if isinstance(doc.get("retry"), dict):
            plan["retry"] = from_fields(RetryPolicy, doc["retry"])
        return from_fields(cls, plan)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def signature(self) -> str:
        """Stable content hash: part of the trial cache key."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_plan(path: str) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return FaultPlan.from_dict(json.load(fh))
