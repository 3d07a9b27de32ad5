"""Open-loop multi-tenant traffic engine with tenant-class collapsing.

The engine drives a :class:`~repro.workload.spec.WorkloadSpec` against
one shared LWFS deployment.  Two ideas make 10^6 simulated tenants run
in minutes instead of days:

**Arrival-batch aggregation.**  Arrivals are drawn per (class, quantum)
from the class-aggregate process — one ``rng.poisson`` per quantum, not
one wake-up event per tenant — and quanta with zero arrivals are
skipped with a single timeout, so an idle diurnal trough costs nothing.

**Tenant-class collapsing.**  Tenants of one class are interchangeable
up to which storage server their objects live on, so the engine
simulates one *representative session* per contiguous tenant block and
issues each quantum's arrivals as weighted batched operations: a batch
of ``k`` arrivals for (block, op, server) is one RPC whose server-side
service defers the batch's residual work (``defer=True``) — the reply
returns after one arrival's service, matching the uncollapsed
population whose concurrent weight-1 ops ride separate CPU cores —
while the representative's capability carries the block's tenant
multiplicity (``cap_weight``) through the verify cache and revocation
blast radius.

**Common random numbers.**  Both modes draw the same per-quantum
arrival counts, tenant assignments, op picks, and sizes from the same
per-class substreams, and group arrivals by ``(tenant_id //
block_width, op, home_server)``.  With collapsing off the block width
is 1, so the grouping, the sessions, and every subsequent event are
*identical* — ``tenant_collapse=False`` is bit-for-bit, and the
collapse error at width > 1 is structural (measured at < 1% on goodput
and p99 by ``tests/workload/test_engine.py``), not statistical drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ReproError
from ..lwfs.capabilities import OpMask
from ..sim.cluster import SimCluster
from ..sim.collapse import class_block_width, tenant_class_plan
from ..sim.deployment import LWFSDeployment
from ..simkernel.monitor import Tally
from ..storage.data import SyntheticData
from ..units import MiB
from .spec import TenantClass, WorkloadSpec

__all__ = ["WorkloadEngine", "auto_representatives"]

#: Auto-sizing bounds for representatives per class (collapsed mode):
#: enough sessions to spread load across servers and keep batch weights
#: moderate, few enough that the event count stays scale-invariant.
MIN_REPRESENTATIVES = 4
MAX_REPRESENTATIVES = 64

#: Ops that move bytes (the others are metadata-only).
_DATA_OPS = frozenset(("read", "write"))

#: Ceiling on latency points recorded per merged batch: a weight-k
#: batch contributes at most this many (value, weight) segment means,
#: so the latency tally grows with *batches*, not arrivals.
_LAT_POINTS = 8


def auto_representatives(cls: TenantClass, spec: WorkloadSpec) -> int:
    """Session count for a collapsed class when the spec leaves it auto.

    Scales with the per-quantum arrival volume (so batch weights stay
    moderate) but never with the tenant count — that invariance is the
    whole point of collapsing.
    """
    if cls.representatives:
        return min(cls.representatives, cls.tenants)
    per_quantum = cls.rate * spec.quantum
    reps = int(math.ceil(per_quantum / 16.0))
    return max(MIN_REPRESENTATIVES, min(MAX_REPRESENTATIVES, reps, cls.tenants))


def _arrival_counts(cls: TenantClass, spec: WorkloadSpec, rng) -> np.ndarray:
    """Arrivals per quantum for the whole class, from its count substream."""
    n_quanta = int(math.ceil(spec.horizon / spec.quantum))
    mean = cls.rate * spec.quantum
    if cls.arrival == "poisson":
        return rng.poisson(mean, n_quanta)
    if cls.arrival == "diurnal":
        profile = np.asarray(cls.diurnal_profile, dtype=float)
        profile = profile / profile.mean()  # normalize: mean rate == cls.rate
        lam = mean * profile[np.arange(n_quanta) % len(profile)]
        return rng.poisson(lam)
    # Heavy-tailed: Lomax inter-arrival gaps with mean 1/rate.  Draw gap
    # batches until the horizon is covered, then histogram into quanta.
    scale = (cls.pareto_alpha - 1.0) / cls.rate
    horizon = n_quanta * spec.quantum
    times: List[np.ndarray] = []
    t = 0.0
    batch = max(256, int(cls.rate * horizon * 1.25))
    while t < horizon:
        gaps = rng.pareto(cls.pareto_alpha, batch) * scale
        arrivals = t + np.cumsum(gaps)
        times.append(arrivals)
        t = float(arrivals[-1])
    all_times = np.concatenate(times)
    all_times = all_times[all_times < horizon]
    return np.bincount(
        (all_times / spec.quantum).astype(np.int64), minlength=n_quanta
    )[:n_quanta]


@dataclass
class _Session:
    """One representative endpoint: a tenant block's shared identity."""

    block: int
    start: int
    mult: int  # how many real tenants this session stands for
    client: object = None
    cred: object = None
    cid: object = None
    cap: object = None
    oids: Dict[int, object] = field(default_factory=dict)


@dataclass
class _ClassState:
    """Per-class engine state: plan, substreams, sessions, statistics."""

    cls: TenantClass
    index: int
    width: int
    counts: np.ndarray
    assign_rng: object
    ops_rng: object
    sizes_rng: object
    offs_rng: object
    sessions: List[_Session]
    server_offset: int
    mix_ops: Tuple[str, ...]
    mix_cum: np.ndarray
    latency: Tally
    bytes_moved: float = 0.0
    ops_done: int = 0
    ops_failed: int = 0
    retries: int = 0


class WorkloadEngine:
    """Drive one :class:`WorkloadSpec` against a live LWFS deployment."""

    def __init__(
        self,
        cluster: SimCluster,
        deployment: LWFSDeployment,
        spec: WorkloadSpec,
        collapse: bool = True,
    ) -> None:
        self.cluster = cluster
        self.deployment = deployment
        self.spec = spec
        self.collapse = collapse
        self.env = cluster.env
        self.n_servers = deployment.n_servers
        self.t0 = 0.0
        self.t_end = 0.0
        self._outstanding = 0
        self._drained: Optional[object] = None
        self._first_error: Optional[BaseException] = None
        self.classes: List[_ClassState] = []

        rng = cluster.rng
        for index, cls in enumerate(spec.classes):
            if collapse:
                reps = auto_representatives(cls, spec)
            else:
                reps = cls.tenants
            width = class_block_width(cls.tenants, reps)
            plan = tenant_class_plan(cls.tenants, reps)
            mix = cls.mix()
            state = _ClassState(
                cls=cls,
                index=index,
                width=width,
                counts=_arrival_counts(cls, spec, rng.stream(f"wl.{cls.name}.counts")),
                assign_rng=rng.stream(f"wl.{cls.name}.assign"),
                ops_rng=rng.stream(f"wl.{cls.name}.ops"),
                sizes_rng=rng.stream(f"wl.{cls.name}.sizes"),
                offs_rng=rng.stream(f"wl.{cls.name}.offs"),
                sessions=[
                    _Session(block=b, start=start, mult=mult)
                    for b, (start, mult) in enumerate(plan)
                ],
                # Interleave classes across servers so class 0 does not
                # pin server 0's queue in every mix.
                server_offset=(index * 7) % max(1, self.n_servers),
                mix_ops=tuple(op for op, _ in mix),
                mix_cum=np.cumsum([share for _, share in mix]),
                latency=Tally(f"wl.{cls.name}.latency", keep_samples=True),
            )
            self.classes.append(state)

        metrics = self.env.metrics
        if metrics is not None:
            # Views of the tally and byte count class_rows() reads: the
            # sampler pulls them, the engine never writes a metric.
            for state in self.classes:
                name = state.cls.name
                metrics.histogram(f"tenant.{name}.latency", state.latency, unit="s")
                metrics.gauge(
                    f"tenant.{name}.bytes", lambda s=state: s.bytes_moved, unit="B"
                )

    # -- session lifecycle -----------------------------------------------------
    def _home_server(self, state: _ClassState, tid: int) -> int:
        return (state.server_offset + tid) % self.n_servers

    def _touched_servers(self, state: _ClassState, sess: _Session) -> List[int]:
        if sess.mult >= self.n_servers:
            return list(range(self.n_servers))
        return sorted(
            {self._home_server(state, t) for t in range(sess.start, sess.start + sess.mult)}
        )

    def _setup_session(self, state: _ClassState, sess: _Session):
        """Acquire identity + pre-create this block's objects.

        One credential, container, and capability per representative —
        distinct tenants hold distinct capabilities, which is what the
        weighted verify cache and the revocation blast radius account
        for via ``cap_weight``.  A warm-up ``getattr`` per touched
        server moves the verify-cache cold miss out of the measured
        window in *both* modes.
        """
        client = sess.client
        sess.cred = yield from client.get_cred("alice", "alice-password")
        sess.cid = yield from client.create_container(sess.cred)
        sess.cap = yield from client.get_caps(sess.cred, sess.cid, OpMask.ALL)
        seed_bytes = min(2 * state.cls.size_bytes, self.cluster.config.chunk_bytes)
        for server in self._touched_servers(state, sess):
            oid = yield from client.create_object(sess.cap, server)
            sess.oids[server] = oid
            if any(op in _DATA_OPS for op in state.mix_ops):
                # Reads need bytes on disk; seed a small extent once.
                yield from client.write(sess.cap, oid, SyntheticData(seed_bytes, seed=server))
            yield from client.get_attrs(sess.cap, oid)

    # -- arrival drivers -------------------------------------------------------
    def _draw_sizes(self, state: _ClassState, n: int) -> np.ndarray:
        cls = state.cls
        if cls.size_dist == "fixed":
            return np.full(n, float(cls.size_bytes))
        if cls.size_dist == "uniform":
            return state.sizes_rng.uniform(0.5 * cls.size_bytes, 1.5 * cls.size_bytes, n)
        # Lognormal with mean == size_bytes (sigma fixed at 0.5).
        sigma = 0.5
        mu = math.log(cls.size_bytes) - 0.5 * sigma * sigma
        return state.sizes_rng.lognormal(mu, sigma, n)

    def _class_driver(self, state: _ClassState):
        """Open-loop arrivals for one class: batch, group, fire, move on."""
        env = self.env
        quantum = self.spec.quantum
        n_ops = len(state.mix_ops)
        active = np.flatnonzero(state.counts)
        for q in active:
            target = self.t0 + float(q) * quantum
            if env.now < target:
                # Idle-gap skip: one timeout to the next active quantum.
                yield env.timeout(target - env.now)
            n = int(state.counts[q])
            tids = state.assign_rng.integers(0, state.cls.tenants, size=n)
            picks = state.ops_rng.random(n)
            sizes = self._draw_sizes(state, n)
            # Sub-quantum arrival offsets: without them every arrival of
            # the window would fire at the same instant, and the
            # uncollapsed reference would measure a synchronization
            # queueing spike that real open-loop traffic (and the
            # collapsed batch) never sees.
            offs = state.offs_rng.random(n) * quantum
            ops = np.searchsorted(state.mix_cum, picks, side="right")
            ops = np.minimum(ops, n_ops - 1)  # guard the ==1.0 edge draw
            blocks = tids // state.width
            servers = (state.server_offset + tids) % self.n_servers
            key = (blocks * n_ops + ops) * self.n_servers + servers
            order = np.argsort(key, kind="stable")
            uniq, starts, group_n = np.unique(
                key[order], return_index=True, return_counts=True
            )
            size_sums = np.add.reduceat(sizes[order], starts)
            offs_sorted = offs[order]
            delays = np.minimum.reduceat(offs_sorted, starts)
            for key_val, k, size_sum, delay, s0 in zip(
                uniq, group_n, size_sums, delays, starts
            ):
                server = int(key_val % self.n_servers)
                op = state.mix_ops[int((key_val // self.n_servers) % n_ops)]
                block = int(key_val // (self.n_servers * n_ops))
                sess = state.sessions[block]
                length = max(1, int(size_sum / k)) if op in _DATA_OPS else 0
                # Merged batches keep their arrivals' offsets so the
                # per-arrival latency reconstruction can replay them.
                goffs = np.sort(offs_sorted[s0:s0 + k]) if k > 1 else None
                self._outstanding += 1
                env.process(
                    self._issue(state, sess, op, server, int(k), length,
                                float(delay), goffs),
                    name=f"wl:{state.cls.name}:{block}:{op}",
                )

    def _issue(self, state: _ClassState, sess: _Session, op: str, server: int,
               weight: int, length: int, delay: float = 0.0, goffs=None):
        """One weighted batched operation, with revocation recovery.

        The batch fires at its group's earliest arrival offset within
        the quantum; the representative's latency is measured from that
        instant, and a merged batch's remaining arrivals get
        reconstructed latencies (:meth:`_batch_latencies`).
        """
        env = self.env
        if delay > 0.0:
            yield env.timeout(delay)
        start = env.now
        try:
            try:
                yield from self._op(sess, op, server, weight, length)
            except ReproError:
                # Fail-closed capability (revocation storm): re-acquire a
                # fresh serial and re-drive the batch once.
                state.retries += weight
                sess.cap = yield from sess.client.get_caps(
                    sess.cred, sess.cid, OpMask.ALL
                )
                yield from self._op(sess, op, server, weight, length)
        except BaseException as exc:  # noqa: BLE001 - recorded, not fatal mid-run
            state.ops_failed += weight
            if self._first_error is None and not isinstance(exc, ReproError):
                self._first_error = exc
            return
        finally:
            self._outstanding -= 1
            if self._outstanding == 0 and self._drained is not None:
                self._drained.succeed()
                self._drained = None
        elapsed = env.now - start
        state.ops_done += weight
        measured = start - self.t0 >= self.spec.warmup
        if weight == 1 or goffs is None:
            lat_points = ((elapsed, 1),) if weight == 1 else ((elapsed, weight),)
        else:
            lat_points = self._batch_latencies(op, server, length, elapsed, goffs)
        if measured:
            for value, w in lat_points:
                state.latency.observe(value, w)
            if length:
                state.bytes_moved += float(weight * length)

    def _op(self, sess: _Session, op: str, server: int, weight: int, length: int):
        client = sess.client
        cap_weight = sess.mult
        if op == "create":
            yield from client.create_object(
                sess.cap, server, weight=weight, defer=True, cap_weight=cap_weight
            )
        elif op == "getattr":
            yield from client.get_attrs(
                sess.cap, sess.oids[server], weight=weight, defer=True,
                cap_weight=cap_weight,
            )
        elif op == "read":
            yield from client.read(
                sess.cap, sess.oids[server], 0, length, weight=weight, defer=True,
                cap_weight=cap_weight,
            )
        elif op == "write":
            yield from client.write(
                sess.cap, sess.oids[server], SyntheticData(length, seed=sess.block),
                weight=weight, defer=True, cap_weight=cap_weight,
            )
        else:  # pragma: no cover - spec validation rejects unknown ops
            raise ValueError(f"unknown op {op!r}")

    def _svc_estimate(self, op: str, server: int, length: int) -> float:
        """Device service time of one op — the serial resource that
        staggers a merged batch's completions.  Metadata ops ride
        multi-core CPU and complete together, so they estimate 0."""
        if op not in _DATA_OPS or not length:
            return 0.0
        dev = self.deployment.storage[server].device.spec
        svc = length / dev.bandwidth
        if op == "read":
            svc += dev.seek_time
        return svc

    def _batch_latencies(self, op: str, server: int, length: int,
                         elapsed: float, goffs: np.ndarray):
        """Reconstruct a merged batch's per-arrival latencies.

        The representative RPC measured ``elapsed`` from the earliest
        arrival; the other k-1 real ops would have arrived at their own
        offsets, seen the same cross-traffic wait, and then queued
        behind their batch predecessors at the device (a Lindley
        recursion with service ``svc``): an op arriving after the queue
        drained costs ``elapsed`` again, a tight burst costs
        ``elapsed + (i-1)*svc``.  The k latencies are folded into at
        most :data:`_LAT_POINTS` (value, weight) segment means so tally
        size stays scale-invariant.
        """
        svc = self._svc_estimate(op, server, length)
        k = len(goffs)
        wait = max(elapsed - svc, 0.0)
        idx = np.arange(1, k + 1, dtype=float)
        dep = svc * (idx + 1.0) + np.maximum.accumulate(goffs + wait - idx * svc)
        dep[0] = goffs[0] + elapsed  # the representative's exact measurement
        lat = np.maximum.accumulate(dep) - goffs
        if k <= _LAT_POINTS:
            return tuple((float(v), 1) for v in lat)
        lat.sort()
        starts = (np.arange(_LAT_POINTS) * k) // _LAT_POINTS
        sizes = np.diff(np.append(starts, k))
        means = np.add.reduceat(lat, starts) / sizes
        return tuple((float(v), int(w)) for v, w in zip(means, sizes))

    # -- run -------------------------------------------------------------------
    def _main(self):
        nodes = self.cluster.compute_nodes
        index = 0
        setups = []
        for state in self.classes:
            for sess in state.sessions:
                sess.client = self.deployment.client(nodes[index % len(nodes)])
                index += 1
                setups.append(
                    self.env.process(
                        self._setup_session(state, sess),
                        name=f"wl-setup:{state.cls.name}:{sess.block}",
                    )
                )
        if setups:
            yield self.env.all_of(setups)
        for proc in setups:
            if isinstance(proc.value, BaseException):
                raise proc.value
        self.t0 = self.env.now
        drivers = [
            self.env.process(self._class_driver(state), name=f"wl-drive:{state.cls.name}")
            for state in self.classes
        ]
        yield self.env.all_of(drivers)
        if self._outstanding:
            self._drained = self.env.event()
            yield self._drained
        self.t_end = self.env.now
        if self._first_error is not None:
            raise self._first_error

    def run(self) -> None:
        done = self.env.process(self._main(), name="wl-main")
        self.env.run(done)

    # -- results ---------------------------------------------------------------
    @property
    def span(self) -> float:
        measured_from = self.t0 + self.spec.warmup
        return max(self.t_end - measured_from, 1e-12)

    def max_class_multiplicity(self) -> int:
        return max(
            (sess.mult for state in self.classes for sess in state.sessions), default=1
        )

    def class_rows(self) -> Dict[str, Dict[str, float]]:
        """Per-class statistics from the engine's own tallies (exact even
        when the metrics subsystem is disabled)."""
        rows: Dict[str, Dict[str, float]] = {}
        for state in self.classes:
            p50, p99 = state.latency.percentiles((0.50, 0.99))
            rows[state.cls.name] = {
                "ops": float(state.latency.count),
                "latency_p50": p50,
                "latency_p99": p99,
                "latency_mean": state.latency.mean,
                "bytes": state.bytes_moved,
                "goodput_mb_s": state.bytes_moved / self.span / MiB,
                "retries": float(state.retries),
                "failed": float(state.ops_failed),
            }
        return rows
