"""Experiment harness: build a cluster, run a checkpoint, measure.

Each trial constructs a fresh dev-cluster simulation (fresh seed →
jittered service times → the error bars of the paper's plots), runs the
chosen checkpoint implementation at (n_clients, n_servers), and reports
the figure-of-merit the paper uses:

* dump phase (Fig. 9): aggregate MB/s = n_clients * size / max-rank time,
* create phase (Fig. 10): aggregate creates/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from ..iolib.checkpoint import CheckpointError, LWFSCheckpointer, PFSCheckpointer
from ..machine.presets import dev_cluster
from ..machine.spec import MachineSpec
from ..parallel.app import ParallelApp
from ..pfs.deployment import PFSDeployment
from ..sim.cluster import SimCluster
from ..sim.config import RunOptions, SimConfig
from ..sim.deployment import LWFSDeployment
from ..storage.data import SyntheticData
from ..units import MiB

__all__ = [
    "IMPLEMENTATIONS",
    "IMPL_BUILDERS",
    "TrialResult",
    "SweepPoint",
    "run_checkpoint_trial",
    "run_create_trial",
    "checkpoint_main",
    "create_main",
    "measure_point",
    "measure_create_point",
]

#: The three implementations compared in §4.
IMPLEMENTATIONS = ("lwfs", "lustre-fpp", "lustre-shared")

#: Paper workload: every client writes 512 MB.  Experiments may scale it
#: down; throughput in MB/s is size-invariant once transfers amortize.
PAPER_STATE_BYTES = 512 * MiB

#: Application-level checkpoint attempts under fault injection: an
#: aborted dump (2PC rollback) is re-driven up to this many times.
CKPT_ATTEMPTS = 3


@dataclass
class TrialResult:
    """One simulated run at one (impl, clients, servers) point."""

    impl: str
    n_clients: int
    n_servers: int
    state_bytes: int
    max_elapsed: float
    mean_elapsed: float
    throughput_mb_s: float
    create_max_elapsed: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Completed spans when the trial ran with ``trace=True`` (else None).
    #: A plain span list — not the Tracer — so results cross the sweep
    #: executor's process-pool boundary.
    trace: Optional[list] = None
    #: Chronological fault-injection log when the trial ran with a
    #: :class:`~repro.faults.FaultPlan` (else None).  Deterministic: two
    #: runs of the same spec produce identical logs.
    fault_log: Optional[list] = None
    #: Exported metrics document (see :mod:`repro.metrics.export`) when
    #: the trial ran with ``RunOptions(metrics=True)`` (else None).
    #: Plain JSON-ready dict, so it crosses the sweep executor's
    #: process-pool boundary and lands in the trial cache.
    metrics: Optional[dict] = None


@dataclass
class SweepPoint:
    """Aggregated statistics over trials at one sweep point."""

    impl: str
    n_clients: int
    n_servers: int
    mean: float
    stdev: float
    unit: str
    trials: List[float] = field(default_factory=list)


def _build_lwfs(cluster, n_servers: int, **deploy_kwargs):
    deployment = LWFSDeployment(cluster, n_storage_servers=n_servers, **deploy_kwargs)
    return deployment, LWFSCheckpointer(deployment)


def _build_lustre_fpp(cluster, n_servers: int, **deploy_kwargs):
    deployment = PFSDeployment(cluster, n_osts=n_servers, **deploy_kwargs)
    return deployment, PFSCheckpointer(deployment, mode="file-per-process")


def _build_lustre_shared(cluster, n_servers: int, **deploy_kwargs):
    deployment = PFSDeployment(cluster, n_osts=n_servers, **deploy_kwargs)
    return deployment, PFSCheckpointer(deployment, mode="shared")


#: Implementation registry: each builder returns ``(deployment,
#: checkpointer)`` where the checkpointer implements the
#: :class:`~repro.iolib.api.Checkpointer` interface — everything
#: downstream (harness, sweeps, gates) dispatches on that interface,
#: never on the concrete class.
IMPL_BUILDERS: Dict[str, Callable] = {
    "lwfs": _build_lwfs,
    "lustre-fpp": _build_lustre_fpp,
    "lustre-shared": _build_lustre_shared,
}


def _attach_tier(cluster, deployment, opts: RunOptions, impl: str, n_clients: int):
    """Interpose the burst-buffer tier between checkpointer and servers.

    Returns the replacement checkpointer, or ``None`` for the direct
    path (``tiers`` unset or ``mode: passthrough`` — the kill switch,
    bit-identical to the pre-tier event sequence).  Must run before the
    fault injector is created (so ``buf{i}`` targets resolve) and before
    the collapse plan is computed (so the buffered collapse key is
    used).
    """
    tier = opts.tiers
    if tier is None or not tier.enabled:
        return None
    if impl != "lwfs":
        raise ValueError(
            f"the burst-buffer tier fronts LWFS storage servers; impl {impl!r} "
            "does not support tiers (use mode: passthrough or impl='lwfs')"
        )
    from ..iolib.buffered import BufferedLWFSCheckpointer, HostLogLWFSCheckpointer
    from ..storage.buffer import BufferTierRuntime

    runtime = BufferTierRuntime(cluster, deployment, tier, n_ranks=n_clients)
    cls = HostLogLWFSCheckpointer if tier.mode == "hostlog" else BufferedLWFSCheckpointer
    deployment.buffers = runtime.buffers
    deployment.buffer_tier = runtime
    return cls(deployment, runtime)


def _build(
    impl: str,
    n_clients: int,
    n_servers: int,
    seed: int,
    spec: Optional[MachineSpec] = None,
    config: Optional[SimConfig] = None,
    opts: Optional[RunOptions] = None,
    collapse_state_bytes: int = 0,
    **deploy_kwargs,
):
    opts = opts if opts is not None else RunOptions().resolved()
    spec = spec or dev_cluster()
    config = config or SimConfig()
    config = replace(config, seed=seed)
    if opts.flow:
        config = replace(config, flow=True)
    cluster = SimCluster(
        spec,
        config,
        compute_nodes=min(spec.compute_nodes, max(1, n_clients)),
        io_nodes=spec.io_nodes,
        service_nodes=1,
        options=opts,
    )
    try:
        builder = IMPL_BUILDERS[impl]
    except KeyError:
        raise ValueError(
            f"unknown implementation {impl!r}; expected one of {IMPLEMENTATIONS}"
        ) from None
    deployment, checkpointer = builder(cluster, n_servers, **deploy_kwargs)
    buffered = _attach_tier(cluster, deployment, opts, impl, n_clients)
    if buffered is not None:
        checkpointer = buffered
    injector = None
    if opts.faults is not None:
        from ..faults import FaultInjector

        injector = FaultInjector(cluster, deployment, opts.faults).install()
    plan = None
    if opts.collapse:
        from ..sim.collapse import collapse_plan

        plan = collapse_plan(
            n_clients, lambda r: checkpointer.collapse_key(r, collapse_state_bytes)
        )
    app = ParallelApp(
        cluster.env, cluster.fabric, cluster.compute_nodes, n_ranks=n_clients, collapse=plan
    )
    return cluster, deployment, checkpointer, app, injector


def run_checkpoint_trial(
    impl: str,
    n_clients: int,
    n_servers: int,
    state_bytes: int = PAPER_STATE_BYTES,
    seed: int = 0,
    spec: Optional[MachineSpec] = None,
    config: Optional[SimConfig] = None,
    options: Optional[RunOptions] = None,
    **deploy_kwargs,
) -> TrialResult:
    """One full checkpoint (setup once + one dump), Figure 9 workload.

    Run configuration comes in only through ``options=RunOptions(...)``;
    see :class:`~repro.sim.config.RunOptions` for the knobs and the
    explicit value > ``REPRO_*`` env > default resolution order.

    With ``RunOptions(trace=True)`` a :class:`~repro.trace.Tracer` is
    installed before the run and the completed spans land on
    ``TrialResult.trace`` — tracing never schedules events, so simulated
    timings are bit-identical either way.  ``collapse=True`` simulates
    one representative per symmetric client class
    (:mod:`repro.sim.collapse`); ``flow=True`` rides the fluid flow
    engine (:mod:`repro.network.flow`).  ``faults=FaultPlan(...)``
    installs the fault injector (:mod:`repro.faults`): the fault log
    lands on ``TrialResult.fault_log`` and the recovery counters
    (``retries``, ``recovered_ops``, ``goodput_degraded``, ...) in
    ``TrialResult.extra``.  ``tiers=TierSpec(...)`` (or a JSON path)
    interposes the burst-buffer tier (:mod:`repro.storage.buffer`): the
    dump lands at absorb speed and drains asynchronously; the drain
    tail, goodput, and backpressure land in ``TrialResult.extra``.
    """
    opts = (options or RunOptions()).resolved()
    cluster, deployment, checkpointer, app, injector = _build(
        impl, n_clients, n_servers, seed, spec, config,
        opts=opts, collapse_state_bytes=state_bytes, **deploy_kwargs
    )
    tracer = _maybe_trace(cluster, opts.trace)
    sampler = _maybe_metrics(
        cluster, deployment, opts, "checkpoint", impl, n_clients, n_servers,
        state_bytes=state_bytes,
    )

    # Under fault injection a checkpoint can abort wholesale (2PC presumed
    # abort wipes the uncommitted creates at a rebooted server); real
    # checkpoint libraries re-drive the dump, so the harness does too.
    attempts = CKPT_ATTEMPTS if injector is not None else 1
    main = checkpoint_main(checkpointer, state_bytes, attempts, injector)
    results = app.run(main)
    max_elapsed = max(r.elapsed for r in results)
    mean_elapsed = sum(r.elapsed for r in results) / len(results)
    # The workload's measured window ends here; the buffer tier keeps
    # draining in the background, so run the drain barrier (and charge
    # its tail) before the injector/sampler close their windows.
    extra = _drain_tier(deployment)
    extra.update(_kernel_stats(cluster))
    extra.update(_collapse_stats(app))
    if injector is not None:
        injector.finish()
        extra.update(injector.stats())
    fault_log = injector.log if injector is not None else None
    metrics_doc = _finish_metrics(sampler, fault_log)
    if sampler is not None:
        extra.update(sampler.stats())
    return TrialResult(
        impl=impl,
        n_clients=n_clients,
        n_servers=n_servers,
        state_bytes=state_bytes,
        max_elapsed=max_elapsed,
        mean_elapsed=mean_elapsed,
        throughput_mb_s=(n_clients * state_bytes / MiB) / max_elapsed,
        create_max_elapsed=max(r.create_elapsed for r in results),
        extra=extra,
        trace=tracer.spans if tracer is not None else None,
        fault_log=fault_log,
        metrics=metrics_doc,
    )


def run_create_trial(
    impl: str,
    n_clients: int,
    n_servers: int,
    creates_per_client: int = 32,
    seed: int = 0,
    spec: Optional[MachineSpec] = None,
    config: Optional[SimConfig] = None,
    options: Optional[RunOptions] = None,
    **deploy_kwargs,
) -> TrialResult:
    """Create-only phase (Figure 10 workload): empty objects/files.

    Accepts the same ``options=RunOptions(...)`` configuration as
    :func:`run_checkpoint_trial`.
    """
    opts = (options or RunOptions()).resolved()
    cluster, deployment, checkpointer, app, injector = _build(
        impl, n_clients, n_servers, seed, spec, config, opts=opts, **deploy_kwargs
    )
    tracer = _maybe_trace(cluster, opts.trace)
    sampler = _maybe_metrics(
        cluster, deployment, opts, "create", impl, n_clients, n_servers,
        creates_per_client=creates_per_client,
    )
    main = create_main(checkpointer, creates_per_client)
    results = app.run(main)
    max_elapsed = max(r.elapsed for r in results)
    total_creates = n_clients * creates_per_client
    extra = _drain_tier(deployment)
    extra.update(_kernel_stats(cluster))
    extra.update(_collapse_stats(app))
    extra["creates_per_s"] = total_creates / max_elapsed
    if injector is not None:
        injector.finish()
        extra.update(injector.stats())
    fault_log = injector.log if injector is not None else None
    metrics_doc = _finish_metrics(sampler, fault_log)
    if sampler is not None:
        extra.update(sampler.stats())
    return TrialResult(
        impl=impl,
        n_clients=n_clients,
        n_servers=n_servers,
        state_bytes=0,
        max_elapsed=max_elapsed,
        mean_elapsed=sum(r.elapsed for r in results) / len(results),
        throughput_mb_s=0.0,
        extra=extra,
        trace=tracer.spans if tracer is not None else None,
        fault_log=fault_log,
        metrics=metrics_doc,
    )


def checkpoint_main(checkpointer, state_bytes: int, attempts: int = 1, injector=None):
    """The per-rank checkpoint program (Figure 9 workload).

    Under fault injection a checkpoint can abort wholesale (2PC presumed
    abort wipes the uncommitted creates at a rebooted server); real
    checkpoint libraries re-drive the dump, so the harness does too.
    All ranks observe the collective outcome, so the retry loop stays
    aligned without extra synchronization.
    """

    def main(ctx):
        yield from checkpointer.setup(ctx)
        yield from ctx.barrier()
        for attempt in range(1, attempts + 1):
            try:
                result = yield from checkpointer.checkpoint(
                    ctx, SyntheticData(state_bytes, seed=ctx.rank)
                )
                return result
            except CheckpointError:
                if attempt == attempts:
                    raise
                if ctx.rank == 0:
                    injector.note_ckpt_restart()
                # A revocation storm fails writes closed; re-acquiring
                # capabilities (fresh serials) is part of the re-drive.
                refresh = getattr(checkpointer, "refresh_caps", None)
                if refresh is not None:
                    yield from refresh(ctx)

    return main


def create_main(checkpointer, creates_per_client: int):
    """The per-rank create-phase program (Figure 10 workload)."""

    def main(ctx):
        yield from checkpointer.setup(ctx)
        yield from ctx.barrier()
        result = yield from checkpointer.create_objects(ctx, creates_per_client)
        return result

    return main


def _maybe_trace(cluster, trace: bool):
    if not trace:
        return None
    from ..trace import Tracer

    return Tracer.install(cluster.env)


def _maybe_metrics(
    cluster,
    deployment,
    opts: RunOptions,
    kind: str,
    impl: str,
    n_clients: int,
    n_servers: int,
    state_bytes: int = 0,
    creates_per_client: int = 1,
):
    """Install the metrics registry + sampler when the trial opts in.

    The sampling period is ``opts.metrics_period`` when explicit, else
    derived from the analytic horizon — a model quantity, so serial and
    process-pool executions of one spec land on the same grid.  Must run after :func:`_build` (the injector is already on
    ``env.faults``, so the fault-pressure gauges see it) and before the
    workload launches (``t0`` anchors the grid at setup time).
    """
    if not opts.metrics:
        return None
    from ..metrics import (
        MetricsRegistry,
        Sampler,
        default_period,
        install_standard_instruments,
    )
    from .analytic import analytic_horizon

    period = opts.metrics_period
    if period is None:
        horizon = analytic_horizon(
            kind, impl, n_clients, n_servers, cluster.spec, cluster.config,
            state_bytes, creates_per_client,
        )
        period = default_period(horizon)
    registry = MetricsRegistry.install(cluster.env)
    install_standard_instruments(registry, cluster, deployment)
    return Sampler(registry, period).start()


def _finish_metrics(sampler, fault_log: Optional[list]) -> Optional[dict]:
    """Close the sampler and export the trial's metrics document."""
    if sampler is None:
        return None
    from ..metrics import build_doc, evaluate_health

    sampler.finish()
    doc = build_doc(sampler.registry, sampler)
    doc["health"] = evaluate_health(doc, fault_log=fault_log).to_dict()
    return doc


def _drain_tier(deployment) -> Dict[str, float]:
    """Run the buffer tier's drain barrier and collect its stats.

    No-op (empty dict) on the direct path; the dict shape matches
    ``TrialResult.extra`` (plain floats, process-pool safe).
    """
    runtime = getattr(deployment, "buffer_tier", None)
    if runtime is None:
        return {}
    return runtime.finish()


def _kernel_stats(cluster) -> Dict[str, float]:
    """Deterministic event-loop stats for one finished trial."""
    from ..trace.stats import kernel_stats

    return {k: float(v) for k, v in kernel_stats(cluster.env).items()}


def _collapse_stats(app) -> Dict[str, float]:
    """Collapse-plan summary for the trial record (empty when exact)."""
    if not app.collapse:
        return {}
    mults = [ctx.multiplicity for ctx in app.contexts]
    return {
        "ranks_simulated": float(len(mults)),
        "max_multiplicity": float(max(mults)),
    }


def _aggregate(impl, n_clients, n_servers, values: List[float], unit: str) -> SweepPoint:
    if not values:
        raise ValueError(
            f"cannot aggregate an empty trials list for "
            f"({impl}, clients={n_clients}, servers={n_servers})"
        )
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1) if len(values) > 1 else 0.0
    return SweepPoint(
        impl=impl,
        n_clients=n_clients,
        n_servers=n_servers,
        mean=mean,
        stdev=math.sqrt(var),
        unit=unit,
        trials=values,
    )


def measure_point(
    impl: str,
    n_clients: int,
    n_servers: int,
    trials: int = 3,
    state_bytes: int = PAPER_STATE_BYTES,
    base_seed: int = 100,
    jobs: Optional[int] = 1,
    **kwargs,
) -> SweepPoint:
    """Dump-phase throughput (MB/s) averaged over *trials* runs.

    ``jobs`` fans the trials out over worker processes (see
    :mod:`repro.bench.executor`); the default of 1 keeps a single point
    in-process.  Results are bit-identical either way.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    from .executor import checkpoint_spec, run_trials

    specs = [
        checkpoint_spec(
            impl, n_clients, n_servers, seed=base_seed + t, state_bytes=state_bytes, **kwargs
        )
        for t in range(trials)
    ]
    values = [o.value for o in run_trials(specs, jobs=jobs)]
    return _aggregate(impl, n_clients, n_servers, values, "MB/s")


def measure_create_point(
    impl: str,
    n_clients: int,
    n_servers: int,
    trials: int = 3,
    creates_per_client: int = 32,
    base_seed: int = 200,
    jobs: Optional[int] = 1,
    **kwargs,
) -> SweepPoint:
    """Create-phase throughput (ops/s) averaged over *trials* runs."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    from .executor import create_spec, run_trials

    specs = [
        create_spec(
            impl,
            n_clients,
            n_servers,
            seed=base_seed + t,
            creates_per_client=creates_per_client,
            **kwargs,
        )
        for t in range(trials)
    ]
    values = [o.value for o in run_trials(specs, jobs=jobs)]
    return _aggregate(impl, n_clients, n_servers, values, "ops/s")
