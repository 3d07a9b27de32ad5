"""The standard instrument pack wired over a built cluster + deployment.

One function, :func:`install_standard_instruments`, attaches every
time-resolved signal the paper's analysis reads — simkernel load, fabric
and fluid-flow byte movement, per-server disk/RPC/cache/journal
activity, fault pressure — to a freshly installed
:class:`~repro.metrics.registry.MetricsRegistry`.  Everything here is a
pull probe over counters the subsystems already keep, so installing the
pack adds zero per-event cost; the only push-style instruments (RPC
retries/timeouts, per-tenant checkpoint bytes) live at their hot sites
behind the usual ``env.metrics is not None`` guard.

Per-server series are capped at :data:`PER_SERVER_CAP` servers (the
aggregate series always cover all of them) so a 32-OST Red Storm slice
does not export hundreds of near-identical columns.
"""

from __future__ import annotations

from .registry import MetricsRegistry

__all__ = ["PER_SERVER_CAP", "install_standard_instruments", "tenant_group"]

#: Individually-instrumented server limit (aggregates are uncapped).
PER_SERVER_CAP = 8

#: Client-group ("tenant") buckets for per-group goodput: rank blocks
#: stand in for the multi-tenant traffic classes of ROADMAP item 1.
TENANT_GROUPS = 8


def tenant_group(rank: int, n_ranks: int) -> int:
    """The tenant bucket of *rank*: contiguous blocks, at most
    :data:`TENANT_GROUPS` of them, degenerating to one per rank on small
    runs.  Deterministic in (rank, n_ranks) only, so collapsed
    representatives land in the same bucket as the class they stand for."""
    groups = min(max(1, n_ranks), TENANT_GROUPS)
    block = -(-n_ranks // groups)  # ceil
    return rank // block


def install_standard_instruments(registry: MetricsRegistry, cluster, deployment) -> None:
    env = cluster.env

    # -- simkernel (machinery: differs across engines by design) ------------
    # The run loop keeps events_processed in a local and writes it back
    # only when the loop exits, so a mid-run probe of that attribute
    # reads a stale zero; the schedule sequence counter is the live
    # monotone proxy for kernel activity.
    registry.gauge(
        "kernel.events", lambda: float(env._seq),
        unit="events", scope="kernel",
    )
    registry.gauge(
        "kernel.queue_depth",
        lambda: float(env._live),
        unit="events", scope="kernel",
    )

    # -- fabric + fluid flows (physical byte movement) ----------------------
    fabric = cluster.fabric
    registry.gauge("fabric.bytes", lambda: float(fabric.counters["bytes"]), unit="B")
    registry.gauge(
        "fabric.messages", lambda: float(fabric.counters["messages"]), unit="msgs"
    )

    def _flow_bytes():
        net = getattr(env, "_flow_network", None)
        return (0.0, 0.0) if net is None else net.bytes_moved()

    # The one linear probe: fluid flows drain continuously, so this is
    # what the sampler reconstructs in closed form across fast-forwarded
    # epochs (value, slope) — see repro.metrics.sampler.
    registry.linear("flow.bytes", _flow_bytes, unit="B")

    def _flows_active():
        net = getattr(env, "_flow_network", None)
        return 0.0 if net is None else float(net.flows_active)

    registry.gauge("flow.active", _flows_active, unit="flows", scope="kernel")

    # -- storage servers ----------------------------------------------------
    servers = list(getattr(deployment, "storage", ()) or getattr(deployment, "osts", ()))
    for server in servers[:PER_SERVER_CAP]:
        name = server.service_name
        device = server.device
        registry.gauge(
            f"server.{name}.disk_busy", lambda d=device: float(d.busy_time), unit="s"
        )
        registry.gauge(
            f"server.{name}.disk_bytes", lambda d=device: float(d.used_bytes), unit="B"
        )
        registry.gauge(
            f"server.{name}.disk_queue",
            lambda d=device: float(d.queue_len),
            unit="ops", scope="kernel",
        )
        registry.gauge(
            f"server.{name}.requests",
            lambda s=server: float(s.rpc.requests_served),
            unit="reqs",
        )
        cache = getattr(getattr(server, "svc", None), "cache", None)
        if cache is not None:
            registry.gauge(
                f"server.{name}.cache_hits", lambda c=cache: float(c.hits), unit="hits"
            )
            registry.gauge(
                f"server.{name}.cache_misses",
                lambda c=cache: float(c.misses),
                unit="misses",
            )
        journal = getattr(server, "journal", None)
        if journal is not None:
            registry.gauge(
                f"server.{name}.journal_records",
                lambda j=journal: float(j.records_written),
                unit="records",
            )

    def _sum(attr_of):
        return lambda: float(sum(attr_of(s) for s in servers))

    registry.gauge("storage.requests", _sum(lambda s: s.rpc.requests_served), unit="reqs")
    registry.gauge("storage.disk_busy", _sum(lambda s: s.device.busy_time), unit="s")
    registry.gauge("storage.disk_bytes", _sum(lambda s: s.device.used_bytes), unit="B")
    journals = [s.journal for s in servers if getattr(s, "journal", None) is not None]
    if journals:
        registry.gauge(
            "journal.records",
            lambda: float(sum(j.records_written for j in journals)),
            unit="records",
        )

    # -- verify caches, aggregated where the policy is decided --------------
    caches = [
        s.svc.cache
        for s in servers
        if getattr(getattr(s, "svc", None), "cache", None) is not None
    ]
    if caches:
        registry.gauge(
            "authz.cache_hits", lambda: float(sum(c.hits for c in caches)), unit="hits"
        )
        registry.gauge(
            "authz.cache_misses",
            lambda: float(sum(c.misses for c in caches)),
            unit="misses",
        )
        registry.gauge(
            "authz.cache_invalidations",
            lambda: float(sum(c.invalidations for c in caches)),
            unit="invs",
        )

    # -- burst-buffer tier (only when a tier runtime is attached) -----------
    buffers = list(getattr(deployment, "buffers", ()))
    if buffers:
        registry.gauge(
            "buffer.occupancy",
            lambda: float(sum(b.occupancy_bytes for b in buffers)),
            unit="B", scope="kernel",
        )
        registry.gauge(
            "buffer.queue",
            lambda: float(sum(b.queue_len for b in buffers)),
            unit="extents", scope="kernel",
        )
        registry.gauge(
            "buffer.absorbed",
            lambda: float(sum(b.absorbed_bytes for b in buffers)),
            unit="B",
        )
        registry.gauge(
            "buffer.drained",
            lambda: float(sum(b.drained_bytes for b in buffers)),
            unit="B",
        )
        # The phase-attribution signal: a rising curve means absorbs are
        # waiting on pool space, i.e. the run is drain-limited.
        registry.gauge(
            "buffer.backpressure",
            lambda: float(sum(b.backpressure_s for b in buffers)),
            unit="s",
        )
        for buf in buffers[:PER_SERVER_CAP]:
            registry.gauge(
                f"buffer.{buf.name}.occupancy",
                lambda b=buf: float(b.occupancy_bytes),
                unit="B", scope="kernel",
            )

    # -- metadata / control-plane services ----------------------------------
    for attr in ("authz", "mds"):
        srv = getattr(deployment, attr, None)
        if srv is not None:
            registry.gauge(
                f"{attr}.requests",
                lambda s=srv: float(s.rpc.requests_served),
                unit="reqs",
            )

    # -- fault pressure (only meaningful when an injector is installed) -----
    injector = env.faults
    if injector is not None:
        registry.gauge(
            "fault.active", lambda i=injector: float(i._active), unit="faults"
        )
        registry.gauge(
            "fault.retries",
            lambda i=injector: float(i.counters["retries"]),
            unit="retries",
        )
        registry.gauge(
            "fault.recovered_ops",
            lambda i=injector: float(i.counters["recovered_ops"]),
            unit="ops",
        )
