"""Cost calibration and run options for the simulated deployments.

All host-side service times live here so calibration is one file.  The
defaults target the paper's dev cluster (§4, DESIGN.md §5): LWFS object
creates around 0.2 ms at the owning server, Lustre-like MDS creates around
1.3 ms serialized at one node, and 4 MiB bulk chunks.

This module is also the single source of truth for *run configuration*:
:class:`RunOptions` is the one way to configure a trial — harness,
executor, trial cache and CLI all take it — and a trial's behaviour
comes only from its fields.  No trial reads the environment.

:func:`env_str` is the only reader of ``os.environ`` in the package, and
it serves only the bench plumbing: worker counts and file locations
(``REPRO_BENCH_JOBS``, ``REPRO_BENCH_CACHE``, ``REPRO_BENCH_CACHE_DIR``,
``REPRO_BENCH_SWEEP_JSON`` and ``REPRO_RESULTS_DIR``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from ..errors import ConfigError
from ..units import KiB, MiB, USEC

__all__ = ["LWFSCosts", "PFSCosts", "RunOptions", "SimConfig", "env_str"]


def env_str(name: str, default: str = "") -> str:
    """The single gateway for environment reads (bench plumbing only)."""
    return os.environ.get(name, default)


@dataclass(frozen=True)
class LWFSCosts:
    """Host CPU times (seconds) for LWFS service operations."""

    # Authentication / authorization service.
    get_cred: float = 300 * USEC
    verify_cred: float = 60 * USEC
    create_container: float = 120 * USEC
    get_caps: float = 150 * USEC
    verify_cap: float = 100 * USEC
    revoke_update: float = 60 * USEC

    # Storage service.
    create_obj_cpu: float = 80 * USEC  # + device meta_op
    remove_obj_cpu: float = 80 * USEC
    request_cpu: float = 50 * USEC  # per data request (header, matching)
    getattr_cpu: float = 40 * USEC
    setattr_cpu: float = 60 * USEC
    txn_op_cpu: float = 70 * USEC

    # Active storage (remote filtering, §6): server-side scan rate.
    filter_scan_rate: float = 1.2e9  # bytes/s on a 2006-era Opteron core

    # Naming service.
    name_op_cpu: float = 120 * USEC

    # Lock service.
    lock_op_cpu: float = 50 * USEC


@dataclass(frozen=True)
class PFSCosts:
    """Host CPU times (seconds) for the Lustre-like baseline.

    The MDS create includes the serialized journal commit that makes
    file creation the scaling bottleneck of Fig. 10.
    """

    mds_lookup: float = 150 * USEC
    mds_create_cpu: float = 450 * USEC
    mds_journal: float = 800 * USEC  # charged on the MDS node's disk
    mds_open_cpu: float = 150 * USEC
    mds_close_cpu: float = 100 * USEC
    ost_request_cpu: float = 80 * USEC  # per bulk RPC at the OST
    client_vfs_cpu: float = 120 * USEC  # kernel VFS path per call


@dataclass(frozen=True)
class SimConfig:
    """Knobs shared by the simulated deployments."""

    chunk_bytes: int = 4 * MiB  # bulk transfer granularity (Lustre-era RPC)
    pipeline_depth: int = 2  # client-side outstanding bulk requests
    server_threads: int = 4  # concurrent I/O contexts per storage server
    buffer_pool_bytes: int = 64 * MiB  # pinned buffers per server (Fig. 6)
    request_bytes: int = 256  # wire size of control RPCs
    cap_bytes: int = 192  # wire size of a capability/credential
    rpc_timeout: float = 30.0  # failure detection for 2PC
    seed: int = 1234
    cost_jitter: float = 0.03  # relative sigma on service times
    #: Opt-in flow-level data path (repro.network.flow): the steady-state
    #: middle of a bulk write rides a fluid fair-share stream instead of
    #: per-chunk RPCs.  :class:`~repro.sim.cluster.SimCluster` sets it
    #: from ``RunOptions.flow``.
    flow: bool = False
    lwfs: LWFSCosts = field(default_factory=LWFSCosts)
    pfs: PFSCosts = field(default_factory=PFSCosts)

    def __post_init__(self) -> None:
        if self.chunk_bytes < 64 * KiB:
            raise ValueError("chunk_bytes unrealistically small")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")


@dataclass(frozen=True)
class RunOptions:
    """Typed run configuration: every knob a trial accepts, in one place.

    Fields hold concrete values; the defaults are the shipping
    configuration.  :meth:`resolved` loads the specs given as JSON paths.
    """

    collapse: bool = False
    flow: bool = False
    trace: bool = False
    #: Time-series metrics sampling (:mod:`repro.metrics`): install the
    #: standard instrument pack and a simulated-time sampler, attach the
    #: exported document to the trial result.
    metrics: bool = False
    #: Tenant-class collapsing in the open-loop workload engine
    #: (:mod:`repro.workload`): simulate one representative per tenant
    #: block with a multiplicity weight.  ``False`` runs the uncollapsed
    #: reference population (bit-identical when every multiplicity is
    #: already 1).
    tenant_collapse: bool = True
    #: Explicit sampling period in simulated seconds; ``None`` derives a
    #: deterministic period from the analytic horizon
    #: (:func:`repro.metrics.sampler.default_period`).  Stays ``None``
    #: after :meth:`resolved` when unset — "auto" is a real state.  A
    #: period that is not a positive, finite number makes
    #: :meth:`resolved` raise :class:`ConfigError`.
    metrics_period: Optional[float] = None
    #: A :class:`repro.faults.FaultPlan` (or a JSON path, or ``None`` for
    #: a clean run).  A string resolves through ``FaultPlan.load``, and
    #: :meth:`describe` folds the plan's content signature into the
    #: trial-cache key.
    faults: Optional[object] = None
    #: A :class:`repro.storage.buffer.TierSpec` (or a JSON path, or
    #: ``None`` for the direct-to-OST path).  Follows the ``faults``
    #: pattern through ``TierSpec.load``.
    tiers: Optional[object] = None

    def resolved(self) -> "RunOptions":
        """Specs loaded from their JSON paths.

        Raises :class:`~repro.errors.ConfigError` for a ``metrics_period``
        that is not a positive, finite number.
        """
        period = self.metrics_period
        if period is not None and not 0 < period < math.inf:
            raise ConfigError(
                "metrics_period must be a positive, finite number of "
                f"simulated seconds, got {period!r}"
            )
        faults, tiers = self.faults, self.tiers
        if isinstance(faults, str):
            from ..faults.plan import FaultPlan

            faults = FaultPlan.load(faults)
        if isinstance(tiers, str):
            from ..storage.buffer.tier import TierSpec

            tiers = TierSpec.load(tiers)
        return replace(self, faults=faults, tiers=tiers)

    def describe(self) -> dict:
        """A JSON-stable identity of the *resolved* options.

        Part of the bench trial-cache key: includes the specs' content
        hashes, so a cached fault-free outcome can never answer for a
        fault-injected spec.
        """
        opts = self.resolved()
        doc = {}
        for f in fields(opts):
            value = getattr(opts, f.name)
            if f.name in ("faults", "tiers"):
                value = value.signature() if value is not None else ""
            doc[f.name] = value
        return doc
