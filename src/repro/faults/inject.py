"""The fault injector: drives a :class:`~repro.faults.plan.FaultPlan`.

Installed on the environment as ``env.faults`` — the same
zero-overhead-when-disabled contract as the tracer: every hook in the
simulator is guarded by one attribute check, schedules nothing, and draws
nothing when no injector is installed, so fault-free timelines stay
bit-identical to a build without this module.

With a plan installed the injector:

* runs one process per scheduled :class:`FaultEvent` (crash/restart,
  disk stall, link degradation, partition, revocation storm),
* answers the stochastic per-RPC queries (drop? duplicate?) from RNG
  substreams salted with the plan seed,
* throws :class:`~repro.errors.ServerCrashed` into handler processes
  in flight on a crashed node, so held resources (disk controller,
  thread slots, pinned buffers) unwind instead of finishing work on a
  dead machine,
* keeps the per-trial fault log and the ``retries`` /
  ``recovered_ops`` / ``rpc_dropped`` / ``rpc_duplicated`` /
  ``degraded_seconds`` counters the harness reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ServerCrashed
from .plan import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Wires one :class:`FaultPlan` into a built cluster + deployment."""

    def __init__(self, cluster, deployment, plan: FaultPlan) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.deployment = deployment
        self.plan = plan
        self.retry = plan.retry
        self.log: List[dict] = []
        self.counters: Dict[str, int] = {
            "faults_injected": 0,
            "retries": 0,
            "recovered_ops": 0,
            "rpc_dropped": 0,
            "rpc_duplicated": 0,
            "ckpt_restarts": 0,
        }
        # Union of fault-active windows (any fault counts).
        self._active = 0
        self._degraded_since = 0.0
        self.degraded_time = 0.0
        # Fabric bytes moved inside fault windows -> degraded goodput.
        self._fabric = cluster.fabric
        self._bytes_at_begin = 0
        self.degraded_bytes = 0
        # Link state consulted by Fabric.transfer.
        self._degraded_nodes: Dict[int, float] = {}
        self._partition: Optional[frozenset] = None
        self._servers = self._server_map()
        self._rng_salt = f"faults/{plan.seed}"

    # -- installation --------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Attach to the environment and launch the scheduled events."""
        self.env.faults = self
        runners = {
            "server_crash": self._crash_proc,
            "disk_stall": self._stall_proc,
            "link_degrade": self._degrade_proc,
            "partition": self._partition_proc,
            "revoke_storm": self._revoke_proc,
        }
        for ev in self.plan.events:
            self.env.process(runners[ev.kind](ev), name=f"fault:{ev.kind}:{ev.target}")
        return self

    def _server_map(self) -> Dict[str, object]:
        """Client-visible server names -> server objects, for any deployment."""
        servers: Dict[str, object] = {}
        dep = self.deployment
        for attr, name in (("auth", "auth"), ("authz", "authz"),
                           ("naming", "naming"), ("locks", "locks"), ("mds", "mds")):
            srv = getattr(dep, attr, None)
            if srv is not None:
                servers[name] = srv
        for i, srv in enumerate(getattr(dep, "storage", ())):
            servers[f"stor{i}"] = srv
        for i, srv in enumerate(getattr(dep, "osts", ())):
            servers[f"ost{i}"] = srv
        for i, srv in enumerate(getattr(dep, "buffers", ())):
            servers[f"buf{i}"] = srv
        return servers

    def _resolve(self, target: str):
        try:
            return self._servers[target]
        except KeyError:
            raise ValueError(
                f"fault target {target!r} not in this deployment "
                f"(known: {sorted(self._servers)})"
            ) from None

    def _node_id_of(self, target: str) -> int:
        if target.startswith("node:"):
            return int(target[5:])
        return self._resolve(target).node.node_id

    # -- bookkeeping ---------------------------------------------------------
    def _record(self, kind: str, target: str, action: str, **detail) -> None:
        entry = {"t": self.env.now, "kind": kind, "target": target, "action": action}
        entry.update(detail)
        self.log.append(entry)
        if action == "inject":
            self.counters["faults_injected"] += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.record(f"fault:{kind}", start=self.env._now, kind="fault",
                          op=action, target=target)

    def _fault_begin(self) -> None:
        if self._active == 0:
            self._degraded_since = self.env.now
            self._bytes_at_begin = self._fabric.counters["bytes"]
        self._active += 1

    def _fault_end(self) -> None:
        self._active -= 1
        if self._active == 0:
            self.degraded_time += self.env.now - self._degraded_since
            self.degraded_bytes += self._fabric.counters["bytes"] - self._bytes_at_begin

    def finish(self) -> None:
        """Close any still-open fault window (end of trial)."""
        if self._active > 0:
            self.degraded_time += self.env.now - self._degraded_since
            self.degraded_bytes += self._fabric.counters["bytes"] - self._bytes_at_begin
            self._degraded_since = self.env.now
            self._bytes_at_begin = self._fabric.counters["bytes"]

    def stats(self) -> Dict[str, float]:
        """Per-trial fault counters, reported in ``TrialResult.extra``.

        ``goodput_degraded`` is the aggregate fabric goodput (MiB/s)
        achieved *inside* fault-active windows — compare it against the
        trial's overall throughput to see how hard the faults bit.
        """
        from ..units import MiB

        out = {k: float(v) for k, v in self.counters.items()}
        out["degraded_seconds"] = self.degraded_time
        out["goodput_degraded"] = (
            self.degraded_bytes / MiB / self.degraded_time if self.degraded_time > 0 else 0.0
        )
        return out

    # -- RNG -----------------------------------------------------------------
    def _chance(self, stream: str, rate: float) -> bool:
        return bool(self.cluster.rng.uniform(f"{self._rng_salt}/{stream}", 0.0, 1.0) < rate)

    def backoff_scale(self) -> float:
        """Jitter multiplier for one retry backoff wait."""
        j = self.retry.jitter if self.retry is not None else 0.0
        if j <= 0:
            return 1.0
        return float(self.cluster.rng.uniform(f"{self._rng_salt}/backoff", 1.0 - j, 1.0 + j))

    # -- per-RPC hooks (called from repro.network.rpc) -----------------------
    def drop_request(self, service: str, op: str) -> bool:
        if self.plan.rpc_drop_rate <= 0 or not self._chance("drop", self.plan.rpc_drop_rate):
            return False
        self.counters["rpc_dropped"] += 1
        self._record("rpc_drop", service, "inject", op=op)
        return True

    def duplicate_request(self, service: str, op: str) -> bool:
        if self.plan.rpc_dup_rate <= 0 or not self._chance("dup", self.plan.rpc_dup_rate):
            return False
        self.counters["rpc_duplicated"] += 1
        self._record("rpc_dup", service, "inject", op=op)
        return True

    def note_retry(self) -> None:
        self.counters["retries"] += 1

    def note_recovered(self) -> None:
        self.counters["recovered_ops"] += 1

    def note_ckpt_restart(self) -> None:
        """A whole checkpoint aborted (2PC rollback) and was re-driven."""
        self.counters["ckpt_restarts"] += 1

    # -- link state (called from Fabric.transfer) ----------------------------
    def link_factor(self, src: int, dst: int) -> float:
        d = self._degraded_nodes
        if not d:
            return 1.0
        return min(d.get(src, 1.0), d.get(dst, 1.0))

    def blocked(self, src: int, dst: int) -> bool:
        p = self._partition
        return p is not None and (src in p) != (dst in p)

    # -- scheduled fault processes -------------------------------------------
    def _crash_proc(self, ev):
        yield self.env.timeout(ev.at)
        node = self._resolve(ev.target).node
        # A node may host several servers (two OSTs per I/O node on the
        # dev cluster): the crash takes them all down, and the restart
        # must bring them all back.
        victims = [s for s in self._servers.values() if s.node is node]
        node.kill()
        self._record("server_crash", ev.target, "inject", node=node.node_id,
                     services=sorted(s.rpc.name for s in victims))
        self._fault_begin()
        for srv in victims:
            inflight = getattr(srv.rpc, "_inflight", None)
            if inflight:
                for proc in list(inflight):
                    if proc.is_alive:
                        proc.interrupt(ServerCrashed(
                            f"{srv.rpc.name} on node {node.node_id} crashed"
                        ))
                inflight.clear()
            # Volatile exactly-once state dies with the machine: a
            # post-reboot retransmission re-executes against the
            # journal-recovered durable state.
            for attr in ("_executing", "_replied"):
                state = getattr(srv.rpc, attr, None)
                if state is not None:
                    state.clear()
        if ev.duration > 0:
            yield self.env.timeout(ev.duration)
            for srv in victims:
                srv.reboot()
            self._record("server_crash", ev.target, "recover", node=node.node_id)
            self._fault_end()

    def _stall_proc(self, ev):
        yield self.env.timeout(ev.at)
        device = self._resolve(ev.target).device
        self._record("disk_stall", ev.target, "inject", duration=ev.duration)
        self._fault_begin()
        # Occupy the RAID controller: queued ops (and new stream
        # admissions) wait out the stall behind this FIFO hold.
        yield from device._controller.hold(ev.duration)
        self._record("disk_stall", ev.target, "recover")
        self._fault_end()

    def _degrade_proc(self, ev):
        yield self.env.timeout(ev.at)
        nid = self._node_id_of(ev.target)
        self._degraded_nodes[nid] = ev.factor
        self._record("link_degrade", ev.target, "inject", node=nid, factor=ev.factor)
        self._fault_begin()
        if ev.duration > 0:
            yield self.env.timeout(ev.duration)
            self._degraded_nodes.pop(nid, None)
            self._record("link_degrade", ev.target, "recover", node=nid)
            self._fault_end()

    def _partition_proc(self, ev):
        yield self.env.timeout(ev.at)
        group = frozenset(self._node_id_of(t) for t in ev.targets)
        self._partition = group
        self._record("partition", ",".join(ev.targets), "inject",
                      nodes=sorted(group))
        self._fault_begin()
        if ev.duration > 0:
            yield self.env.timeout(ev.duration)
            self._partition = None
            self._record("partition", ",".join(ev.targets), "recover")
            self._fault_end()

    def _revoke_proc(self, ev):
        yield self.env.timeout(ev.at)
        authz = getattr(self.deployment, "authz", None)
        if authz is None:
            self._record("revoke_storm", ev.target, "skip", reason="no authz service")
            return
        from ..lwfs.capabilities import OpMask

        svc = authz.svc
        cids = sorted(svc._policies) if hasattr(svc, "_policies") else []
        self._record("revoke_storm", ev.target, "inject", containers=len(cids))
        self._fault_begin()
        total_victims = 0
        for cid in cids:
            victims, _ = svc.revoke(cid, OpMask.WRITE)
            total_victims += len(victims)
        # The service queued invalidation fan-out RPCs; wait them out so
        # the storm's cache churn lands inside the fault window.
        yield from authz._drain_fanout()
        self._record("revoke_storm", ev.target, "recover", victims=total_victims)
        self._fault_end()
