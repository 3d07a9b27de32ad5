"""Open-loop multi-tenant traffic: specs, arrival engine, collapsing.

ROADMAP item 1 — scale-invariant multi-tenant load.  A
:class:`WorkloadSpec` describes tenant-class populations (arrival
process × op mix × size distribution); :func:`run_workload_trial`
drives them against a shared LWFS deployment with arrival-batch
aggregation and tenant-class collapsing, so 10^6 simulated tenants cost
event-loop work proportional to the *traffic*, not the population.
The trial runs through the bench harness's shared trial lifecycle and
returns its :class:`~repro.bench.harness.TrialResult`; it is defined
in :mod:`repro.bench.harness` and re-exported here.

Quick use::

    from repro.workload import diurnal_mixed, run_workload_trial

    result = run_workload_trial(diurnal_mixed(tenants=1_000_000), n_servers=16)
    print(result.extra["ops_per_s"], result.extra["max_class_multiplicity"])

``RunOptions(tenant_collapse=False)`` (``--no-collapse`` on the
``traffic`` CLI) gives every tenant its own session (bit-identical to
collapsed mode whenever every class multiplicity is already 1);
``tests/workload`` pins that, the 1% collapse accuracy, and scale
invariance.
"""

from ..bench.harness import run_workload_trial
from .engine import WorkloadEngine, auto_representatives
from .spec import (
    ARRIVALS,
    OPS,
    SIZE_DISTS,
    TenantClass,
    WorkloadSpec,
    diurnal_mixed,
    load_workload,
    save_workload,
)

__all__ = [
    "ARRIVALS",
    "OPS",
    "SIZE_DISTS",
    "TenantClass",
    "WorkloadEngine",
    "WorkloadSpec",
    "auto_representatives",
    "diurnal_mixed",
    "load_workload",
    "run_workload_trial",
    "save_workload",
]
