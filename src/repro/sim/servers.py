"""Simulated LWFS servers: the functional services deployed onto nodes.

Each server wraps the corresponding functional service from
:mod:`repro.lwfs` with (a) an RPC dispatch surface and (b) resource
charging — host CPU per operation, RAID time for device operations,
pinned-buffer and thread limits, and server-directed bulk movement over
portals (Fig. 6): for writes the server *pulls* data from the client when
it has a thread, a buffer, and the disk; for reads it *pushes*.

That bulk movement lives in one place, :class:`_DataServer`, shared by
the LWFS storage server and the Lustre-like OST
(:class:`repro.pfs.ost.SimOST`): both stacks move data the same way
(PAPER §3.2) and differ only in the guard each handler runs first —
capability checks for LWFS, extent-lock ownership for the OST.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..errors import NetworkError, NodeFailure
from ..lwfs.authn import AuthenticationService, MockKerberos
from ..lwfs.authz import AuthorizationService
from ..lwfs.capabilities import OpMask
from ..lwfs.ids import ContainerID, IdFactory
from ..lwfs.locks import LockMode, LockService
from ..lwfs.naming import NamingService
from ..lwfs.storage_svc import StorageService
from ..machine.node import Node
from ..network.portals import MemoryDescriptor
from ..network.rpc import RpcService
from ..simkernel import Container, Event, Resource
from ..storage.data import piece_len
from .cluster import SimCluster

__all__ = [
    "DATA_PORTAL",
    "SimAuthServer",
    "SimAuthzServer",
    "SimStorageServer",
    "SimNamingServer",
    "SimLockServer",
]

#: Portal index where clients expose bulk-data match entries.
DATA_PORTAL = 2

#: Ceiling on how many device transfers a deferred batch residual is
#: split into: enough FIFO granularity that foreground ops interleave
#: the way the uncollapsed population would, few enough that event
#: count per batch stays O(1).
_RESIDUAL_CHUNKS = 8

_data_bits = itertools.count(0x1000)


def next_data_bits() -> int:
    """Globally-unique match bits for one bulk-data buffer."""
    return next(_data_bits)


class _SimServerBase:
    """Common wiring: an RpcService plus cost-charging helpers."""

    service_name = "base"

    def __init__(self, cluster: SimCluster, node: Node) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.node = node
        self.config = cluster.config
        self.rpc = RpcService(cluster.env, cluster.fabric, node, self.service_name)

    def reboot(self) -> None:
        """Restart after a crash: revive the node, and requests land again.

        Durable state (namespaces, policies, lock tables) is assumed
        journaled and recovered as part of the restart pause; servers
        with modeled recovery work override this
        (:meth:`SimStorageServer.reboot`).
        """
        self.node.revive()

    @property
    def node_id(self) -> int:
        return self.node.node_id

    def cpu(self, stream: str, mean: float):
        """Charge jittered CPU time on this server's node (generator)."""
        return self.node.compute(self.cluster.jitter(f"{self.node.name}.{stream}", mean))


class SimAuthServer(_SimServerBase):
    """The authentication server (interfaces to the external mechanism)."""

    service_name = "authn"

    def __init__(self, cluster: SimCluster, node: Node, kerberos: Optional[MockKerberos] = None) -> None:
        super().__init__(cluster, node)
        self.kerberos = kerberos or MockKerberos()
        self.svc = AuthenticationService(self.kerberos, clock=lambda: self.env.now)
        costs = self.config.lwfs
        reg = self.rpc.register

        def get_cred(ctx, principal, proof):
            yield from self.cpu("get_cred", costs.get_cred)
            return self.svc.get_cred(principal, proof)

        def verify_cred(ctx, cred):
            yield from self.cpu("verify_cred", costs.verify_cred)
            return self.svc.verify_cred(cred)

        def revoke_cred(ctx, cred):
            yield from self.cpu("revoke_cred", costs.verify_cred)
            self.svc.revoke_cred(cred)
            return True

        reg("get_cred", get_cred)
        reg("verify_cred", verify_cred)
        reg("revoke_cred", revoke_cred)


class SimAuthzServer(_SimServerBase):
    """The authorization server: policy decisions + revocation fan-out."""

    service_name = "authz"

    def __init__(
        self,
        cluster: SimCluster,
        node: Node,
        auth: SimAuthServer,
        ids: Optional[IdFactory] = None,
    ) -> None:
        super().__init__(cluster, node)
        # The authorization service trusts the authentication service
        # (Fig. 5); co-residency means verify_cred is a local call here,
        # which matches the paper's single metadata/authorization node.
        self.svc = AuthorizationService(auth.svc, clock=lambda: self.env.now, ids=ids)
        #: server_id -> storage-server node id, for invalidation fan-out.
        self._storage_nodes: Dict[int, int] = {}
        self._fanout: List[Event] = []
        from ..network.rpc import RpcClient

        self._client = RpcClient(cluster.env, cluster.fabric, node)
        costs = self.config.lwfs
        reg = self.rpc.register

        def create_container(ctx, cred, acl=None):
            yield from self.cpu("create_container", costs.create_container)
            return self.svc.create_container(cred, acl)

        def get_caps(ctx, cred, cid, ops):
            yield from self.cpu("get_caps", costs.get_caps)
            return self.svc.get_caps(cred, cid, ops)

        def get_cap_set(ctx, cred, cid, op_list):
            yield from self.cpu("get_cap_set", costs.get_caps * len(op_list))
            return self.svc.get_cap_set(cred, cid, op_list)

        def verify(ctx, cap, server_id, weight=1):
            # ``weight`` > 1: this verify stands for a collapsed tenant
            # block's worth of distinct capabilities.  The reply carries
            # the first tenant's answer after one verification; the
            # remaining block's CPU burns in the background, so a
            # revocation storm's re-verify blast radius loads this server
            # without serializing into every representative's latency.
            yield from self.cpu("verify", costs.verify_cap)
            if weight > 1:
                self.env.process(
                    self._verify_residual(weight - 1), name="verify-residual"
                )
            return self.svc.verify(cap, server_id)

        def set_acl(ctx, cred, cid, acl):
            yield from self.cpu("set_acl", costs.create_container)
            self.svc.set_acl(cred, cid, acl)
            yield from self._drain_fanout()
            return True

        def revoke(ctx, cid, ops):
            yield from self.cpu("revoke", costs.revoke_update)
            victims, notified = self.svc.revoke(cid, ops)
            yield from self._drain_fanout()
            return victims, notified

        reg("create_container", create_container)
        reg("get_caps", get_caps)
        reg("get_cap_set", get_cap_set)
        reg("verify", verify)
        reg("set_acl", set_acl)
        reg("revoke", revoke)

    def _verify_residual(self, weight: int):
        """Background CPU for the rest of a weighted verify batch."""
        yield from self.cpu("verify", weight * self.config.lwfs.verify_cap)

    # -- storage-server registration --------------------------------------------
    def connect_storage(self, server_id: int, node_id: int) -> None:
        """Wire the back-pointer path to a storage server's cache."""
        self._storage_nodes[server_id] = node_id

        def invalidate(cid: ContainerID, serials: List[int], _sid=server_id) -> None:
            self._fanout.append(
                self.env.process(self._invalidate_one(_sid, cid, serials), name="inval")
            )

        self.svc.register_server(server_id, invalidate)

    def _invalidate_one(self, server_id: int, cid, serials):
        node_id = self._storage_nodes[server_id]
        try:
            yield from self._client.call(
                node_id, f"stor{server_id}", "invalidate_caps", cid=cid, serials=serials
            )
        except (NodeFailure, NetworkError):
            pass  # dead server has no cache to stale-hit

    def _drain_fanout(self):
        """Wait for all pending invalidations: 'immediate' revocation."""
        pending, self._fanout = self._fanout, []
        if pending:
            yield self.env.all_of(pending)


class _DataServer(_SimServerBase):
    """A server that moves bulk data itself (Fig. 6): RAID, threads, buffers.

    A handler holds one of ``server_threads`` I/O threads (recording
    its wait with :meth:`_waited`), then runs one mover: :meth:`_pull`
    and :meth:`_pull_stream` reserve a pinned buffer, pull the client's
    bytes over portals and charge the RAID, returning the data for the
    handler to land; :meth:`_push` reserves a buffer, reads, charges the
    RAID and pushes into the client's posted buffer.  The movers start
    only after the thread grant, so a request queued for a thread keeps
    no mover frame alive.
    """

    def __init__(self, cluster: SimCluster, node: Node, raid_name: str,
                 raid_bandwidth: Optional[float] = None) -> None:
        super().__init__(cluster, node)
        self.device = cluster.make_raid(node, name=raid_name, bandwidth=raid_bandwidth)
        self.threads = Resource(cluster.env, capacity=self.config.server_threads)
        self.buffers = Container(
            cluster.env, capacity=self.config.buffer_pool_bytes, init=self.config.buffer_pool_bytes
        )

    def _waited(self, t_wait: float, resource: str) -> None:
        """Trace a ``wait:<resource>`` span if the grant came after *t_wait*."""
        tracer = self.env.tracer
        if tracer is not None and self.env._now > t_wait:
            tracer.record(
                f"wait:{resource}", start=t_wait, kind="wait",
                node=self.node_id, service=self.service_name, resource=resource,
            )

    def _pull(self, length: int, data_node: int, data_bits: int, weight: int):
        """Pull one chunk from the client's match entry, then write it to
        the RAID; returns the data.  ``weight`` > 1: the pull and the disk
        carry the whole collapsed class's bytes, while the buffer stays
        per-chunk (real clients' pulls recycle it back to back)."""
        t_wait = self.env._now
        yield self.buffers.get(length)
        self._waited(t_wait, "buffers")
        try:
            data = yield from self.node.portals.get(
                MemoryDescriptor(length=length), data_node, DATA_PORTAL, data_bits,
                wire_weight=weight,
            )
            yield from self.device.write(weight * length)
        finally:
            self.buffers.put(length)
        return data

    def _pull_stream(self, length: int, n_chunks: int, data_node: int, data_bits: int,
                     weight: int):
        """The steady-state middle of a bulk write as ONE fluid flow.

        One chunk-sized pinned buffer is recycled as the stream lands
        (the exact path's pulls did the same back to back), the disk
        grants a single batched admission (one controller queue entry),
        and the portals stream pull drains at the max-min fair share of
        the client's tx pipe, this node's rx pipe and the device.
        Returns the data."""
        reserve = min(length, self.config.chunk_bytes)
        t_wait = self.env._now
        yield self.buffers.get(reserve)
        self._waited(t_wait, "buffers")
        stream = None
        try:
            stream = yield from self.device.begin_stream(
                weight * length, ops=weight * n_chunks
            )
            data = yield from self.node.portals.get_stream(
                MemoryDescriptor(length=length), data_node, DATA_PORTAL, data_bits,
                wire_weight=weight,
                extra_shares=((self.device.fluid, weight * stream.scale),),
                n_msgs=n_chunks,
            )
        finally:
            if stream is not None:
                stream.close()
            self.buffers.put(reserve)
        return data

    def _push(self, length: int, data_node: int, data_bits: int, weight: int, read, *where):
        """Serve one read chunk: ``read(*where)`` once a buffer is
        reserved, charge the RAID, push into the client's posted buffer.
        ``weight`` > 1: seeks, disk bytes and the push all scale."""
        t_wait = self.env._now
        yield self.buffers.get(length)
        self._waited(t_wait, "buffers")
        try:
            data = read(*where)
            yield from self.device.read(weight * (piece_len(data) or length), ops=weight)
            yield from self.node.portals.put(
                MemoryDescriptor(length=length, payload=data), data_node, DATA_PORTAL,
                data_bits, wire_weight=weight,
            )
        finally:
            self.buffers.put(length)


class SimStorageServer(_DataServer):
    """A storage server: OBD + RAID + server-directed data movement."""

    def __init__(
        self,
        cluster: SimCluster,
        node: Node,
        server_id: int,
        authz: SimAuthzServer,
        cache_enabled: bool = True,
        server_directed: bool = True,
        raid_bandwidth: Optional[float] = None,
        verify_mode: str = "cache",
    ) -> None:
        if verify_mode not in ("cache", "shared-key"):
            raise ValueError("verify_mode must be 'cache' or 'shared-key'")
        self.server_id = server_id
        self.service_name = f"stor{server_id}"
        super().__init__(cluster, node, f"raid{server_id}", raid_bandwidth)
        self.authz = authz
        self.server_directed = server_directed
        self.verify_mode = verify_mode
        self.svc = StorageService(
            server_id=server_id,
            verifier=None,
            cache_enabled=cache_enabled,
            clock=lambda: cluster.env.now,
        )
        if verify_mode == "shared-key":
            # NASD/T10 mode: hold the signing key, verify locally (§3.1.2).
            def _rotate(key, epoch, _svc=self.svc):
                _svc.shared_secret = key
                _svc.epoch_hint = epoch

            self.svc.shared_secret = authz.svc.export_shared_key(
                server_id, on_rotate=_rotate
            )
            self.svc.epoch_hint = authz.svc.epoch
        # The transaction journal is itself "a persistent object on the
        # storage system" (§3.4); reboot recovery replays it.
        from ..lwfs.journal import Journal

        self.journal = Journal(
            self.svc.store, oid=f"__journal{server_id}", cid=ContainerID(0)
        )
        from ..network.rpc import RpcClient

        self._client = RpcClient(cluster.env, cluster.fabric, node)
        authz.connect_storage(server_id, node.node_id)
        self.verify_rpcs = 0
        self.rejected_requests = 0
        self._verify_inflight: Dict[int, Event] = {}
        self._register_ops()

    def reboot(self) -> None:
        """Bring a killed server back with presumed-abort recovery (§3.4).

        Objects survive (they live on the RAID), and so does the journal;
        recovery scans it and resolves what the crash left behind:
        committed transactions stay, everything unresolved — including
        prepared-but-undecided ones, whose coordinator has by now timed out
        and aborted the survivors — is rolled back (presumed abort).  The
        capability cache starts cold (it was volatile memory): every
        capability re-verifies on first use, which also re-registers the
        back pointers.
        """
        outcome = self.journal.recover()
        committed = set(outcome.committed)
        for txnid in list(self.svc._txns):
            if txnid.value not in committed:
                self.svc.txn_abort(txnid)
                self.journal.append(txnid, "abort")
        self.svc.cache.invalidate(list(self.svc.cache._entries))
        self.svc._preauthorized.clear()
        self.node.revive()

    # -- enforcement -----------------------------------------------------------
    def _authorize(self, cap, needed: OpMask, cid=None, weight=1, cap_weight=None):
        """Cache check; on a miss, a verify RPC to the authorization server
        (Fig. 4b), then local enforcement.  A generator.

        Verifies are single-flighted: when a burst of requests arrives with
        the same not-yet-cached capability (every rank's first chunk), only
        one verify RPC goes to the wire and the rest wait on its result —
        keeping verify traffic at one message per (capability, server).

        Weighted tenants (open-loop collapsing): ``weight`` is how many
        client operations this request batches (scales hit/miss counters),
        ``cap_weight`` how many real tenants' capabilities the presented
        cap stands for — a miss then verifies the whole block (weighted
        verify RPC, weighted cache entry), so revocation invalidations
        and re-verify storms keep their full blast radius.  Both default
        to the historical single-op, single-cap behavior.
        """
        if cap_weight is None:
            # Closed-loop collapsing (one job, one real shared cap): a
            # weight-n op still presents exactly one capability and one
            # logical lookup, so the historical unweighted accounting is
            # the truthful one.  Open-loop callers pass cap_weight (their
            # cap genuinely stands for cap_weight distinct tenants).
            weight = 1
            cap_weight = 1
        tracer = self.env.tracer
        span = prev = None
        if tracer is not None:
            span, prev = tracer.push(
                "verify", kind="verify", node=self.node_id,
                service=self.service_name, op="verify",
            )
        if cap is None:
            outcome = "none"
        elif self.svc.shared_secret is not None:
            outcome = "local"  # shared-key mode: no cache, no RPC
        else:
            outcome = "hit"
        try:
            while (
                cap is not None
                and self.svc.shared_secret is None
                and self.svc.cache.lookup(cap, self.env.now, weight) is None
            ):
                pending = self._verify_inflight.get(cap.serial)
                if pending is not None:
                    outcome = "wait"  # piggybacking on an in-flight verify
                    yield pending
                    continue  # re-check the cache (the verify may have failed)
                outcome = "miss"
                event = self.env.event()
                self._verify_inflight[cap.serial] = event
                try:
                    self.verify_rpcs += cap_weight
                    verified = yield from self._client.call(
                        self.authz.node_id, "authz", "verify",
                        cap=cap, server_id=self.server_id, weight=cap_weight,
                    )
                    self.svc.cache.insert(verified, cap_weight)
                    # With caching disabled we re-verify on every request; this
                    # only carries the fresh wire result into enforcement.
                    self.svc._preauthorized.add(cap.serial)
                finally:
                    del self._verify_inflight[cap.serial]
                    event.succeed()
                break
            self.svc.authorize(cap, needed, cid)
        finally:
            if tracer is not None:
                tracer.pop(span, prev, outcome=outcome)

    def _cid_of(self, oid) -> ContainerID:
        return self.svc.store.container_of(oid)

    # -- deferred open-loop batch residuals -------------------------------------
    # A weight-n open-loop op replies after one arrival's service; these
    # background processes burn the other n-1 arrivals' resources so
    # utilization stays exact while representative latency matches the
    # uncollapsed population's (whose concurrent weight-1 ops ride
    # separate cores / queue slots).

    def _create_residual(self, weight: int):
        costs = self.config.lwfs
        yield from self.cpu("create", weight * costs.create_obj_cpu)
        yield from self.device.meta_op(ops=weight)

    def _getattr_residual(self, weight: int):
        yield from self.cpu("getattr", weight * self.config.lwfs.getattr_cpu)

    def _data_residual(self, kind: str, weight: int, length: int):
        """Drain a deferred batch's n-1 data transfers.

        The uncollapsed population's n-1 ops occupy service threads
        concurrently and interleave with foreground requests in the
        device FIFO, so the residual is split into up to
        ``_RESIDUAL_CHUNKS`` *concurrent* thread+device requests — one
        monolithic sequential hold would drain bursts slower than the
        real population and inflate foreground tails.
        """
        costs = self.config.lwfs
        cpu_stream = "read_req" if kind == "read" else "write_req"
        yield from self.cpu(cpu_stream, weight * costs.request_cpu)
        chunks = min(weight, _RESIDUAL_CHUNKS)
        per, extra = divmod(weight, chunks)
        done = []
        for i in range(chunks):
            w = per + (1 if i < extra else 0)
            done.append(self.env.process(
                self._residual_chunk(kind, w, length),
                name=f"{kind}-residual-chunk",
            ))
        yield self.env.all_of(done)

    def _residual_chunk(self, kind: str, weight: int, length: int):
        t_wait = self.env._now
        with self.threads.request() as thread:
            yield thread
            self._waited(t_wait, "threads")
            if kind == "read":
                yield from self.device.read(weight * length, ops=weight)
            else:
                yield from self.device.write(weight * length)

    # -- op handlers ---------------------------------------------------------------
    def _register_ops(self) -> None:
        costs = self.config.lwfs
        reg = self.rpc.register

        def create(ctx, cap, attrs=None, txnid=None, weight=1, defer=False, cap_weight=None):
            # ``weight`` > 1: this create stands for a whole collapsed
            # equivalence class — charge CPU and journal ops for all of
            # them, materialize one object (the representative's).
            # ``defer`` (open-loop batches): the batch's arrivals are
            # *independent* tenants, not a barrier-synchronized job, so
            # the reply returns after one create's service — matching the
            # uncollapsed population, whose concurrent weight-1 creates
            # ride separate CPU cores — while the rest of the batch burns
            # through in the background.
            yield from self._authorize(cap, OpMask.CREATE, weight=weight, cap_weight=cap_weight)
            if defer and weight > 1:
                yield from self.cpu("create", costs.create_obj_cpu)
                yield from self.device.meta_op(ops=1)
                self.env.process(
                    self._create_residual(weight - 1), name="create-residual"
                )
            else:
                yield from self.cpu("create", weight * costs.create_obj_cpu)
                yield from self.device.meta_op(ops=weight)
            return self.svc.create_object(cap, attrs=attrs, txnid=txnid)

        def remove(ctx, cap, oid, txnid=None):
            yield from self._authorize(cap, OpMask.REMOVE, self._cid_of(oid))
            yield from self.cpu("remove", costs.remove_obj_cpu)
            yield from self.device.meta_op()
            self.svc.remove_object(cap, oid, txnid=txnid)
            return True

        def write(ctx, cap, oid, offset, length, data_node=None, data_bits=None, data=None,
                  txnid=None, weight=1, defer=False, cap_weight=None, n_chunks=1):
            """One bulk write.  Server-directed: ``data`` is None and the
            server pulls from the client's (data_node, data_bits) match
            entry when resources allow.  Client-push ablation: ``data``
            rode along with the request.

            ``n_chunks`` > 1 (flow-level data path): the request carries
            the steady-state middle of a bulk write, *n_chunks* chunks'
            worth; request CPU is charged for every chunk up front, one
            thread covers them all and the pull is ONE fluid flow
            (:meth:`_DataServer._pull_stream`).

            ``weight`` > 1 (collapsing): the request stands for *weight*
            clients' identical chunks — the pull serializes weight*length
            on the wire and the disk streams weight*length bytes, but the
            buffer reservation stays per-chunk (real clients' pulls
            recycle the same pinned buffer back to back).

            ``defer`` (open-loop batches): serve one arrival's write in
            full and reply; the remaining batch's CPU and disk charge in
            the background.  The residual pulls skip the wire — the real
            pulls would come from *weight - 1* different client NICs,
            none of which bottlenecks this server's small-write stream."""
            yield from self._authorize(
                cap, OpMask.WRITE, self._cid_of(oid), weight=weight, cap_weight=cap_weight
            )
            if defer and weight > 1:
                self.env.process(
                    self._data_residual("write", weight - 1, length), name="write-residual"
                )
                weight = 1
            yield from self.cpu("write_req", weight * n_chunks * costs.request_cpu)

            if data is None and not self.server_directed:
                raise NetworkError("push-mode server got no inline data")

            t_wait = self.env._now
            with self.threads.request() as thread:
                yield thread
                self._waited(t_wait, "threads")
                if self.server_directed:
                    data = yield from (
                        self._pull(length, data_node, data_bits, weight) if n_chunks == 1
                        else self._pull_stream(length, n_chunks, data_node, data_bits, weight)
                    )
                else:
                    # Push mode: the data already burned wire + buffer space.
                    if not _try_reserve(self.buffers, length):
                        # Buffer exhaustion: reject; client must resend.
                        self.rejected_requests += 1
                        return {"status": "again"}
                    yield from self.device.write(weight * length)
                    self.buffers.put(length)
                self.svc.write(cap, oid, offset, data, txnid=txnid)
            return {"status": "ok", "written": length}

        def read(ctx, cap, oid, offset, length, data_node, data_bits, weight=1,
                 defer=False, cap_weight=None):
            """``weight`` > 1 (collapsing): this read stands for *weight*
            clients' identical chunks — seeks, disk bytes, CPU, and the
            reply wire all scale; the push serializes weight*length.

            ``defer`` (open-loop batches): serve one arrival's read in
            full (CPU, disk, wire push) and reply; the rest of the batch's
            CPU and disk charge in the background.  The residual pushes
            skip the wire — the real pushes would land on *weight - 1*
            different client NICs, none of which is this stream's
            bottleneck for the small reads open-loop tenants issue."""
            yield from self._authorize(
                cap, OpMask.READ, self._cid_of(oid), weight=weight, cap_weight=cap_weight
            )
            if defer and weight > 1:
                self.env.process(
                    self._data_residual("read", weight - 1, length), name="read-residual"
                )
                weight = 1
            yield from self.cpu("read_req", weight * costs.request_cpu)
            t_wait = self.env._now
            with self.threads.request() as thread:
                yield thread
                self._waited(t_wait, "threads")
                # Push to the client's posted buffer (Fig. 6 reads).
                yield from self._push(
                    length, data_node, data_bits, weight,
                    self.svc.read, cap, oid, offset, length,
                )
            return {"status": "ok", "length": length}

        def sync(ctx, weight=1):
            yield from self.device.sync(ops=weight)
            return True

        def filter_object(ctx, cap, oid, offset, length, name, args=None):
            """Active storage (§6): run a registered reduction next to the
            data and return the small digest — the bulk bytes never cross
            the network."""
            from ..iolib.active import run_filter  # deferred: avoids cycle
            from ..storage.data import piece_bytes

            yield from self._authorize(cap, OpMask.READ, self._cid_of(oid))
            yield from self.cpu("filter_req", costs.request_cpu)
            with self.threads.request() as thread:
                yield thread
                data = self.svc.read(cap, oid, offset, length)
                actual = piece_len(data) or length
                yield from self.device.read(actual)
                # Server-side scan of the bytes just read.
                yield from self.node.compute(actual / costs.filter_scan_rate)
                return run_filter(name, piece_bytes(data), args or {})

        def getattr_(ctx, cap, oid, weight=1, defer=False, cap_weight=None):
            yield from self._authorize(
                cap, OpMask.GETATTR, self._cid_of(oid), weight=weight, cap_weight=cap_weight
            )
            if defer and weight > 1:
                self.env.process(
                    self._getattr_residual(weight - 1), name="getattr-residual"
                )
                weight = 1
            yield from self.cpu("getattr", weight * costs.getattr_cpu)
            return self.svc.get_attrs(cap, oid)

        def setattr_(ctx, cap, oid, key, value, txnid=None):
            yield from self._authorize(cap, OpMask.SETATTR, self._cid_of(oid))
            yield from self.cpu("setattr", costs.setattr_cpu)
            yield from self.device.meta_op()
            self.svc.set_attr(cap, oid, key, value, txnid=txnid)
            return True

        def list_objects(ctx, cap, cid=None):
            yield from self._authorize(cap, OpMask.LIST, cid)
            yield from self.cpu("list", costs.getattr_cpu)
            return self.svc.list_objects(cap, cid)

        def invalidate_caps(ctx, cid, serials):
            yield from self.cpu("invalidate", costs.revoke_update)
            return self.svc.invalidate_cached(cid, serials)

        def txn_begin(ctx, txnid):
            yield from self.cpu("txn", costs.txn_op_cpu)
            yield from self.device.meta_op()
            self.svc.txn_begin(txnid)
            self.journal.append(txnid, "begin")
            return True

        def txn_prepare(ctx, txnid):
            yield from self.cpu("txn", costs.txn_op_cpu)
            yield from self.device.meta_op()  # journal the prepare record
            vote = self.svc.txn_prepare(txnid)
            self.journal.append(txnid, "prepare")
            return vote

        def txn_commit(ctx, txnid):
            yield from self.cpu("txn", costs.txn_op_cpu)
            yield from self.device.meta_op()
            self.svc.txn_commit(txnid)
            self.journal.append(txnid, "commit")
            return True

        def txn_abort(ctx, txnid):
            yield from self.cpu("txn", costs.txn_op_cpu)
            yield from self.device.meta_op()
            self.svc.txn_abort(txnid)
            self.journal.append(txnid, "abort")
            return True

        reg("create", create)
        reg("remove", remove)
        reg("write", write)
        reg("read", read)
        reg("sync", sync)
        reg("filter", filter_object)
        reg("getattr", getattr_)
        reg("setattr", setattr_)
        reg("list", list_objects)
        reg("invalidate_caps", invalidate_caps)
        reg("txn_begin", txn_begin)
        reg("txn_prepare", txn_prepare)
        reg("txn_commit", txn_commit)
        reg("txn_abort", txn_abort)


def _try_reserve(container: Container, amount: float) -> bool:
    """Non-blocking Container.get."""
    if container.level >= amount:
        event = container.get(amount)
        return event.triggered
    return False


class SimNamingServer(_SimServerBase):
    """The naming service, deployed as a client service (Fig. 3)."""

    service_name = "naming"

    def __init__(self, cluster: SimCluster, node: Node) -> None:
        super().__init__(cluster, node)
        self.svc = NamingService()
        costs = self.config.lwfs
        reg = self.rpc.register

        def create_name(ctx, path, target, txnid=None, attrs=None):
            yield from self.cpu("name", costs.name_op_cpu)
            self.svc.create_name(path, target, txnid=txnid, attrs=attrs)
            return True

        def lookup(ctx, path):
            yield from self.cpu("name", costs.name_op_cpu)
            return self.svc.lookup(path)

        def txn_begin(ctx, txnid):
            yield from self.cpu("txn", costs.txn_op_cpu)
            self.svc.txn_begin(txnid)
            return True

        def txn_prepare(ctx, txnid):
            yield from self.cpu("txn", costs.txn_op_cpu)
            return self.svc.txn_prepare(txnid)

        def txn_commit(ctx, txnid):
            yield from self.cpu("txn", costs.txn_op_cpu)
            self.svc.txn_commit(txnid)
            return True

        def txn_abort(ctx, txnid):
            yield from self.cpu("txn", costs.txn_op_cpu)
            self.svc.txn_abort(txnid)
            return True

        reg("create_name", create_name)
        reg("lookup", lookup)
        reg("txn_begin", txn_begin)
        reg("txn_prepare", txn_prepare)
        reg("txn_commit", txn_commit)
        reg("txn_abort", txn_abort)


class SimLockServer(_SimServerBase):
    """The (optional) lock service, for client-coordinated consistency."""

    service_name = "locks"

    def __init__(self, cluster: SimCluster, node: Node) -> None:
        super().__init__(cluster, node)
        self.svc = LockService()
        costs = self.config.lwfs
        reg = self.rpc.register

        def acquire(ctx, resource, mode, owner, byte_range=None):
            yield from self.cpu("lock", costs.lock_op_cpu)
            mode = LockMode(mode) if not isinstance(mode, LockMode) else mode
            granted_event = self.env.event()

            def wake(lock):
                granted_event.succeed(lock)

            lock, granted = self.svc.acquire(
                resource, mode, owner, byte_range=byte_range, wait=True, wake=wake
            )
            if not granted:
                lock = yield granted_event
            return lock

        def release(ctx, lock):
            yield from self.cpu("lock", costs.lock_op_cpu)
            self.svc.release(lock)
            return True

        reg("acquire", acquire)
        reg("release", release)
