"""Typed multi-tenant workload specifications.

A :class:`WorkloadSpec` describes an *open-loop* traffic mix: a set of
:class:`TenantClass` populations (how many tenants, which arrival
process, which operation mix, which request sizes) driven against one
shared LWFS deployment for a fixed horizon.  Open-loop means arrivals
do not wait for completions — the offered load is a property of the
spec, not of the system's response, which is what makes saturation and
interference measurable.

Specs are :class:`~repro.jsonspec.JsonSpec` documents
(``WorkloadSpec.load(path)`` / ``spec.save(path)``; a class's
``op_mix`` is an object of op weights, ``{"create": 3.0}``) and carry a
content :meth:`~WorkloadSpec.signature`.  The bench trial-cache key
holds a spec's content, never the name of the file it came from
(:func:`repro.bench.executor.workload_spec` loads paths first), so a
cached outcome can never answer for a different mix.

Arrival processes (all parameterized by the class-aggregate ``rate`` in
arrivals/second):

* ``poisson`` — memoryless arrivals, the independent-tenant baseline;
* ``pareto`` — heavy-tailed (Lomax) inter-arrival gaps with shape
  ``pareto_alpha``, normalized to the same mean rate: bursts and lulls;
* ``diurnal`` — a piecewise-constant intensity trace
  (``diurnal_profile``, cycled over the horizon) modulating a Poisson
  process, normalized so the *mean* rate matches ``rate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigError
from ..jsonspec import JsonSpec
from ..units import KiB

__all__ = [
    "ARRIVALS",
    "OPS",
    "SIZE_DISTS",
    "TenantClass",
    "WorkloadSpec",
    "as_workload",
    "diurnal_mixed",
]

#: Supported arrival processes.
ARRIVALS = ("poisson", "pareto", "diurnal")

#: Operations a tenant can issue (mapped onto the LWFS client API).
OPS = ("create", "getattr", "read", "write")

#: Request-size distributions (mean = ``size_bytes`` for all of them).
SIZE_DISTS = ("fixed", "uniform", "lognormal")


@dataclass(frozen=True)
class TenantClass(JsonSpec):
    """One homogeneous tenant population.

    ``rate`` is the aggregate arrival rate of the *whole class* in
    operations/second — scaling ``tenants`` up at constant ``rate``
    changes who issues the load, not how much of it there is, which is
    what makes tenant-class collapsing testable against the uncollapsed
    population.

    ``representatives`` bounds how many simulated sessions stand in for
    the class when tenant collapsing is on (0 = choose automatically);
    with collapsing off every tenant gets its own session.
    """

    name: str
    tenants: int
    rate: float
    arrival: str = "poisson"
    #: Relative operation weights, e.g. ``(("create", 3), ("getattr", 1))``.
    op_mix: Tuple[Tuple[str, float], ...] = (("create", 1.0),)
    size_dist: str = "fixed"
    size_bytes: int = 64 * KiB
    pareto_alpha: float = 1.5
    diurnal_profile: Tuple[float, ...] = ()
    representatives: int = 0

    def __post_init__(self) -> None:
        if not self.name or "." in self.name:
            raise ValueError(f"class name must be non-empty and dot-free, got {self.name!r}")
        if self.tenants < 1:
            raise ValueError(f"{self.name}: tenants must be >= 1, got {self.tenants}")
        if not self.rate > 0:
            raise ValueError(f"{self.name}: rate must be positive, got {self.rate}")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"{self.name}: arrival must be one of {ARRIVALS}, "
                             f"got {self.arrival!r}")
        if not self.op_mix:
            raise ValueError(f"{self.name}: op_mix cannot be empty")
        for op, share in self.op_mix:
            if op not in OPS:
                raise ValueError(f"{self.name}: unknown op {op!r}; expected one of {OPS}")
            if share < 0:
                raise ValueError(f"{self.name}: op_mix share for {op!r} is negative")
        if not sum(share for _, share in self.op_mix) > 0:
            raise ValueError(f"{self.name}: op_mix shares sum to zero")
        if len({op for op, _ in self.op_mix}) != len(self.op_mix):
            raise ValueError(f"{self.name}: op_mix lists an op twice")
        if self.size_dist not in SIZE_DISTS:
            raise ValueError(f"{self.name}: size_dist must be one of {SIZE_DISTS}, "
                             f"got {self.size_dist!r}")
        if self.size_bytes < 1:
            raise ValueError(f"{self.name}: size_bytes must be >= 1")
        if self.arrival == "pareto" and not self.pareto_alpha > 1.0:
            raise ValueError(f"{self.name}: pareto_alpha must be > 1 for a finite "
                             f"mean inter-arrival gap, got {self.pareto_alpha}")
        if self.arrival == "diurnal":
            if not self.diurnal_profile:
                raise ValueError(f"{self.name}: diurnal arrival needs a diurnal_profile")
            if any(v < 0 for v in self.diurnal_profile):
                raise ValueError(f"{self.name}: diurnal_profile values must be >= 0")
            if not sum(self.diurnal_profile) > 0:
                raise ValueError(f"{self.name}: diurnal_profile sums to zero")
        if self.representatives < 0:
            raise ValueError(f"{self.name}: representatives must be >= 0")
        # Canonical op order: the engine maps RNG draws to ops through the
        # mix's cumulative fractions, so two spellings of the same mix
        # (code-built vs JSON round-trip) must consume draws identically.
        object.__setattr__(
            self,
            "op_mix",
            tuple(sorted(self.op_mix, key=lambda pair: OPS.index(pair[0]))),
        )

    def mix(self) -> Tuple[Tuple[str, float], ...]:
        """The op mix normalized to fractions, in ``op_mix`` order."""
        total = sum(share for _, share in self.op_mix)
        return tuple((op, share / total) for op, share in self.op_mix)

    def to_dict(self) -> dict:
        doc = super().to_dict()
        doc["op_mix"] = dict(self.op_mix)
        return doc

    @classmethod
    def from_dict(cls, doc) -> "TenantClass":
        """As :meth:`JsonSpec.from_dict`; ``op_mix`` is an object of op
        weights, ``{"create": 3.0, "getattr": 2.0}``."""
        if isinstance(doc, dict) and "op_mix" in doc:
            mix = doc["op_mix"]
            if not isinstance(mix, dict):
                raise ConfigError(
                    f"TenantClass.op_mix: expected an object of op weights, got {mix!r}"
                )
            doc = {**doc, "op_mix": list(mix.items())}
        return super().from_dict(doc)


@dataclass(frozen=True)
class WorkloadSpec(JsonSpec):
    """A complete open-loop traffic description for one trial.

    ``quantum`` is the arrival-batching granularity in simulated
    seconds: per (class, quantum) the engine draws how many arrivals
    land in the window, then which tenants issued them — one RNG
    consumption pattern shared by the collapsed and uncollapsed paths
    (common random numbers), so ``tenant_collapse=False`` is
    bit-identical whenever every class multiplicity is 1.  ``warmup``
    excludes the ramp-in prefix from the measured latency/goodput
    statistics (the load is still offered).
    """

    classes: Tuple[TenantClass, ...]
    horizon: float = 1.0
    quantum: float = 0.01
    warmup: float = 0.0

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("a workload needs at least one tenant class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant-class names: {names}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0 < self.quantum <= self.horizon:
            raise ValueError(
                f"quantum must be in (0, horizon], got {self.quantum} vs {self.horizon}"
            )
        if not 0 <= self.warmup < self.horizon:
            raise ValueError(f"warmup must be in [0, horizon), got {self.warmup}")

    @property
    def total_tenants(self) -> int:
        return sum(c.tenants for c in self.classes)


def as_workload(workload) -> WorkloadSpec:
    """*workload* as a :class:`WorkloadSpec`: a spec passes through and a
    string is read as a JSON path."""
    if isinstance(workload, str):
        return WorkloadSpec.load(workload)
    if not isinstance(workload, WorkloadSpec):
        raise TypeError(
            f"workload must be a WorkloadSpec or a JSON path, got {type(workload).__name__}"
        )
    return workload


def diurnal_mixed(
    tenants: int = 1_000_000,
    rate: float = 1500.0,
    horizon: float = 3600.0,
    quantum: float = 2.0,
    representatives: int = 4,
) -> WorkloadSpec:
    """The headline mix: three tenant populations over one shared LWFS.

    A metadata storm (small-file creates + stats), a read-mostly
    restart/analysis population, and streaming checkpoint producers —
    the first two on a day/night intensity trace, the producers
    heavy-tailed.  Tenant and rate totals split roughly 60/30/10.
    """
    day_night = (0.35, 0.25, 0.3, 0.5, 0.9, 1.4, 1.8, 2.0,
                 1.9, 1.6, 1.2, 0.8)
    n_meta = max(1, (tenants * 6) // 10)
    n_read = max(1, (tenants * 3) // 10)
    n_ckpt = max(1, tenants - n_meta - n_read)
    return WorkloadSpec(
        classes=(
            TenantClass(
                name="metadata-storm",
                tenants=n_meta,
                rate=rate * 0.6,
                arrival="diurnal",
                diurnal_profile=day_night,
                op_mix=(("create", 3.0), ("getattr", 2.0)),
                size_dist="fixed",
                size_bytes=4 * KiB,
                representatives=representatives,
            ),
            TenantClass(
                name="restart-readers",
                tenants=n_read,
                rate=rate * 0.3,
                arrival="diurnal",
                diurnal_profile=tuple(reversed(day_night)),
                op_mix=(("read", 4.0), ("getattr", 1.0)),
                size_dist="uniform",
                size_bytes=256 * KiB,
                representatives=representatives,
            ),
            TenantClass(
                name="checkpoint-producers",
                tenants=n_ckpt,
                rate=rate * 0.1,
                arrival="pareto",
                pareto_alpha=1.7,
                op_mix=(("write", 5.0), ("create", 1.0)),
                size_dist="lognormal",
                size_bytes=512 * KiB,
                representatives=representatives,
            ),
        ),
        horizon=horizon,
        quantum=quantum,
        warmup=min(30.0, horizon / 10.0),
    )
