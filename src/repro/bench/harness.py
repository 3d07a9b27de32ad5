"""Experiment harness: build a cluster, run a trial, measure.

Every trial kind — the checkpoint dump (Fig. 9), the create phase
(Fig. 10) and the open-loop multi-tenant workload — runs through one
lifecycle (:func:`_lifecycle`) and returns one record
(:class:`TrialResult`).  Each trial constructs a fresh simulation
(fresh seed → jittered service times → the error bars of the paper's
plots) and reports the figure of merit the paper uses:

* dump phase (Fig. 9): aggregate MB/s = n_clients * size / max-rank time,
* create phase (Fig. 10): aggregate creates/s,
* workload: completed operations/s over the measured window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..errors import ConfigError
from ..iolib.checkpoint import CheckpointError, LWFSCheckpointer, PFSCheckpointer
from ..machine.presets import dev_cluster
from ..machine.spec import MachineSpec
from ..parallel.app import ParallelApp
from ..pfs.deployment import PFSDeployment
from ..sim.cluster import SimCluster
from ..sim.config import RunOptions, SimConfig
from ..sim.deployment import LWFSDeployment
from ..storage.data import SyntheticData
from ..trace.stats import kernel_stats
from ..units import MiB
from .analytic import analytic_horizon

if TYPE_CHECKING:
    from .executor import TrialSpec

__all__ = [
    "IMPLEMENTATIONS",
    "IMPL_BUILDERS",
    "TrialResult",
    "SweepPoint",
    "run_checkpoint_trial",
    "run_create_trial",
    "run_workload_trial",
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

#: Fault-recovery counters summarized for recorded sweep rows.
_FAULT_KEYS = (
    "faults_injected", "retries", "recovered_ops", "rpc_dropped",
    "rpc_duplicated", "degraded_seconds", "goodput_degraded",
)


@dataclass
class TrialResult:
    """One simulated trial: the only trial record.

    The harness fills the simulation outputs; the sweep executor sets
    ``spec``, ``wall_clock_s`` and ``cached``; the trial cache stores the
    record without those three, ``trace`` and ``fault_log``
    (:mod:`repro.bench.cache`).  Every field is plain data, so records
    cross the executor's process-pool boundary.
    """

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
    #: The figure of merit: MB/s for a checkpoint, ops/s (creates or
    #: completed operations) for the create and workload kinds.
    value: float = 0.0
    unit: str = ""
    #: The executor's spec for this trial (None when called directly).
    spec: Optional["TrialSpec"] = None
    #: Host seconds the trial took, or the cache lookup when ``cached``;
    #: kept out of every aggregate that must be reproducible.
    wall_clock_s: float = 0.0
    #: ``True`` when the record came from the persistent trial cache.
    cached: bool = False

    @property
    def events_processed(self) -> int:
        return int(self.extra.get("events_processed", 0))

    @property
    def peak_event_queue(self) -> int:
        return int(self.extra.get("peak_event_queue", 0))

    @property
    def sim_seconds(self) -> float:
        return float(self.extra.get("sim_seconds", 0.0))

    @property
    def events_fast_forwarded(self) -> int:
        """Flow arrivals and completions the flow engine resolved in
        closed form (0 on a trial that opened no flow)."""
        return int(self.extra.get("events_fast_forwarded", 0))

    @property
    def tenants_simulated(self) -> int:
        """Tenants an open-loop workload trial stood for (0 otherwise)."""
        return int(self.extra.get("tenants_simulated", 0))

    @property
    def max_class_multiplicity(self) -> int:
        """Most tenants one workload session carried (0 otherwise)."""
        return int(self.extra.get("max_class_multiplicity", 0))

    @property
    def fault_summary(self) -> Optional[Dict[str, float]]:
        """Recovery counters and log length of a fault-injected trial."""
        if self.fault_log is None:
            return None
        summary = {k: self.extra[k] for k in _FAULT_KEYS if k in self.extra}
        summary["fault_log_entries"] = len(self.fault_log)
        return summary

    @property
    def buffer_summary(self) -> Optional[Dict[str, float]]:
        """The ``buffer_*`` drain stats of a buffered trial (else None)."""
        return {k: v for k, v in self.extra.items() if k.startswith("buffer_")} or None

    @property
    def trace_summary(self) -> Optional[Dict[str, Any]]:
        """Compact per-kind summary of the trace, sized for a sweep row."""
        if self.trace is None:
            return None
        from ..trace import summarize

        return summarize(self.trace)

    @property
    def metrics_summary(self) -> Optional[Dict[str, Any]]:
        """Compact series summary + SLO verdict, sized for a sweep row."""
        if self.metrics is None:
            return None
        from ..metrics import metrics_summary

        return metrics_summary(self.metrics)


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
    path (``tiers`` unset).  Must run before the fault injector is
    created (so ``buf{i}`` targets resolve) and before the collapse plan
    is computed (so the buffered collapse key is used).
    """
    tier = opts.tiers
    if tier is None:
        return None
    if impl != "lwfs":
        raise ValueError(
            f"the burst-buffer tier fronts LWFS storage servers; impl {impl!r} "
            "does not support tiers (use tiers=None or impl='lwfs')"
        )
    from ..iolib.buffered import BufferedLWFSCheckpointer, HostLogLWFSCheckpointer
    from ..storage.buffer import BufferTierRuntime

    runtime = BufferTierRuntime(cluster, deployment, tier, n_ranks=n_clients)
    cls = HostLogLWFSCheckpointer if tier.mode == "hostlog" else BufferedLWFSCheckpointer
    deployment.buffers = runtime.buffers
    deployment.buffer_tier = runtime
    return cls(deployment, runtime)


def _deploy(
    impl: str,
    n_clients: int,
    n_servers: int,
    seed: int,
    spec: Optional[MachineSpec],
    config: Optional[SimConfig],
    opts: RunOptions,
    **deploy_kwargs,
):
    """Cluster, deployment, burst-buffer tier and fault injector.

    Returns ``(cluster, deployment, checkpointer, injector)``; the
    checkpointer is the buffered one when the tier interposes, and the
    injector is None on a fault-free trial.
    """
    spec = spec or dev_cluster()
    config = replace(config or SimConfig(), seed=seed)
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
    return cluster, deployment, checkpointer, injector


def _rank_app(cluster, checkpointer, opts: RunOptions, n_clients: int, state_bytes: int):
    """The ranks' :class:`ParallelApp`; with ``collapse`` one
    representative per symmetric client class (:mod:`repro.sim.collapse`)."""
    plan = None
    if opts.collapse:
        from ..sim.collapse import collapse_plan

        plan = collapse_plan(n_clients, lambda r: checkpointer.collapse_key(r, state_bytes))
    return ParallelApp(
        cluster.env, cluster.fabric, cluster.compute_nodes, n_ranks=n_clients, collapse=plan
    )


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
    """A rank-program trial's machine without the lifecycle around it.

    Returns ``(cluster, deployment, checkpointer, app, injector)`` for
    callers that drive their own rank program.
    """
    opts = opts if opts is not None else RunOptions().resolved()
    cluster, deployment, checkpointer, injector = _deploy(
        impl, n_clients, n_servers, seed, spec, config, opts, **deploy_kwargs
    )
    app = _rank_app(cluster, checkpointer, opts, n_clients, collapse_state_bytes)
    return cluster, deployment, checkpointer, app, injector


def _lifecycle(
    impl: str,
    n_clients: int,
    n_servers: int,
    seed: int,
    spec: Optional[MachineSpec],
    config: Optional[SimConfig],
    opts: RunOptions,
    horizon: Callable[[SimCluster], float],
    drive: Callable[..., TrialResult],
    **deploy_kwargs,
) -> TrialResult:
    """The one lifecycle every trial kind runs through.

    Builds the cluster from the resolved *opts* (:func:`_deploy`: tier,
    then fault injector), installs the tracer and the metrics sampler,
    and calls the kind's ``drive(cluster, deployment, checkpointer,
    injector)``, which runs the trial and returns the record with the
    kind's own ``extra`` entries.  Then it drains the tier and collects the
    kernel, fault and metrics stats.  ``extra`` keys land in that order:
    tier, kernel, kind, fault, metrics.  The Chrome-trace metadata is
    built from ``extra``, so the order is part of the exported file.

    The sampling period is ``opts.metrics_period`` when explicit, else
    derived from ``horizon(cluster)``, the analytic makespan — a model
    quantity, so serial and process-pool executions of one spec land on
    the same grid.  The sampler starts after the injector (so the
    fault-pressure gauges see it) and before ``drive`` launches the
    workload (so ``t0`` anchors the grid at setup time).
    """
    cluster, deployment, checkpointer, injector = _deploy(
        impl, n_clients, n_servers, seed, spec, config, opts, **deploy_kwargs
    )
    tracer = None
    if opts.trace:
        from ..trace import Tracer

        tracer = Tracer.install(cluster.env)
    sampler = None
    if opts.metrics:
        from ..metrics import (
            MetricsRegistry,
            Sampler,
            default_period,
            install_standard_instruments,
        )

        period = opts.metrics_period
        if period is None:
            period = default_period(horizon(cluster))
        registry = MetricsRegistry.install(cluster.env)
        install_standard_instruments(registry, cluster, deployment)
        sampler = Sampler(registry, period).start()

    result = drive(cluster, deployment, checkpointer, injector)

    # The measured window ends when ``drive`` returns; the buffer tier keeps
    # draining in the background, so run the drain barrier (and charge
    # its tail) before the injector/sampler close their windows.
    runtime = getattr(deployment, "buffer_tier", None)
    extra = runtime.finish() if runtime is not None else {}
    extra.update({k: float(v) for k, v in kernel_stats(cluster.env).items()})
    extra.update(result.extra)
    if injector is not None:
        injector.finish()
        extra.update(injector.stats())
        result.fault_log = injector.log
    if sampler is not None:
        from ..metrics import build_doc, evaluate_health

        sampler.finish()
        doc = build_doc(sampler.registry, sampler)
        doc["health"] = evaluate_health(doc, fault_log=result.fault_log).to_dict()
        result.metrics = doc
        extra.update(sampler.stats())
    result.extra = extra
    if tracer is not None:
        result.trace = tracer.spans
    return result


def _collapse_stats(app) -> Dict[str, float]:
    """Collapse-plan summary for the trial record (empty when exact)."""
    if not app.collapse:
        return {}
    mults = [ctx.multiplicity for ctx in app.contexts]
    return {
        "ranks_simulated": float(len(mults)),
        "max_multiplicity": float(max(mults)),
    }


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
    see :class:`~repro.sim.config.RunOptions` for the knobs and their
    defaults.

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

    def drive(cluster, deployment, checkpointer, injector):
        app = _rank_app(cluster, checkpointer, opts, n_clients, state_bytes)
        # Under fault injection a checkpoint can abort wholesale (2PC
        # presumed abort wipes the uncommitted creates at a rebooted
        # server); real checkpoint libraries re-drive the dump, so the
        # harness does too.
        attempts = CKPT_ATTEMPTS if injector is not None else 1
        results = app.run(checkpoint_main(checkpointer, state_bytes, attempts, injector))
        max_elapsed = max(r.elapsed for r in results)
        throughput = (n_clients * state_bytes / MiB) / max_elapsed
        return TrialResult(
            impl=impl,
            n_clients=n_clients,
            n_servers=n_servers,
            state_bytes=state_bytes,
            max_elapsed=max_elapsed,
            mean_elapsed=sum(r.elapsed for r in results) / len(results),
            throughput_mb_s=throughput,
            create_max_elapsed=max(r.create_elapsed for r in results),
            extra=_collapse_stats(app),
            value=throughput,
            unit="MB/s",
        )

    return _lifecycle(
        impl, n_clients, n_servers, seed, spec, config, opts,
        lambda c: analytic_horizon(
            "checkpoint", impl, n_clients, n_servers, c.spec, c.config, state_bytes
        ),
        drive, **deploy_kwargs,
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

    def drive(cluster, deployment, checkpointer, injector):
        app = _rank_app(cluster, checkpointer, opts, n_clients, 0)
        results = app.run(create_main(checkpointer, creates_per_client))
        max_elapsed = max(r.elapsed for r in results)
        extra = _collapse_stats(app)
        extra["creates_per_s"] = n_clients * creates_per_client / max_elapsed
        return TrialResult(
            impl=impl,
            n_clients=n_clients,
            n_servers=n_servers,
            state_bytes=0,
            max_elapsed=max_elapsed,
            mean_elapsed=sum(r.elapsed for r in results) / len(results),
            throughput_mb_s=0.0,
            extra=extra,
            value=extra["creates_per_s"],
            unit="ops/s",
        )

    return _lifecycle(
        impl, n_clients, n_servers, seed, spec, config, opts,
        lambda c: analytic_horizon(
            "create", impl, n_clients, n_servers, c.spec, c.config, 0, creates_per_client
        ),
        drive, **deploy_kwargs,
    )


def run_workload_trial(
    workload,
    n_servers: int = 4,
    seed: int = 0,
    spec: Optional[MachineSpec] = None,
    config: Optional[SimConfig] = None,
    options: Optional[RunOptions] = None,
) -> TrialResult:
    """One open-loop traffic trial (:mod:`repro.workload`, ``impl="lwfs"``).

    ``workload`` is a :class:`~repro.workload.WorkloadSpec`, a JSON path,
    or a plain spec document (dict).  ``options.tenant_collapse``
    selects the collapsed or the uncollapsed reference population; the
    figure of merit is completed operations/second over the measured
    window.  The other options behave as in :func:`run_checkpoint_trial`,
    except two that raise :class:`~repro.errors.ConfigError` before
    anything is built: ``collapse`` (workload trials collapse tenants
    through ``tenant_collapse``) and a ``tiers`` spec (the buffer tier
    fronts checkpoint dumps).
    """
    # Imported here: repro.workload re-exports this function from this module.
    from ..workload.engine import WorkloadEngine, auto_representatives
    from ..workload.spec import as_workload

    opts = (options if options is not None else RunOptions()).resolved()
    if opts.collapse:
        raise ConfigError(
            "RunOptions.collapse does not apply to workload trials; "
            "tenants collapse through RunOptions.tenant_collapse"
        )
    if opts.tiers is not None:
        raise ConfigError(
            "RunOptions.tiers: the burst-buffer tier fronts checkpoint dumps, "
            "not workload trials (use tiers=None)"
        )
    workload = as_workload(workload)
    collapse = bool(opts.tenant_collapse)
    n_sessions = sum(
        (auto_representatives(c, workload) if collapse else c.tenants)
        for c in workload.classes
    )

    def drive(cluster, deployment, checkpointer, injector):
        engine = WorkloadEngine(cluster, deployment, workload, collapse=collapse)
        engine.run()
        extra = {
            "tenants_simulated": float(workload.total_tenants),
            "sessions_simulated": float(n_sessions),
            "max_class_multiplicity": float(engine.max_class_multiplicity()),
        }
        total_ops = 0.0
        total_bytes = 0.0
        for name, row in engine.class_rows().items():
            total_ops += row["ops"]
            total_bytes += row["bytes"]
            for field_name, value in row.items():
                extra[f"wl.{name}.{field_name}"] = value
        span = engine.span
        extra["ops_per_s"] = total_ops / span
        return TrialResult(
            impl="lwfs",
            n_clients=workload.total_tenants,
            n_servers=n_servers,
            state_bytes=0,
            max_elapsed=span,
            mean_elapsed=span,
            throughput_mb_s=total_bytes / span / MiB,
            extra=extra,
            value=extra["ops_per_s"],
            unit="ops/s",
        )

    return _lifecycle(
        "lwfs", n_sessions, n_servers, seed, spec, config, opts,
        lambda cluster: workload.horizon, drive,
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
