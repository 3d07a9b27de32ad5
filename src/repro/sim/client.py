"""The simulated LWFS client: what runs on a compute node.

All methods are generators (simulation processes ``yield from`` them).
Bulk writes follow the server-directed discipline: the client exposes each
chunk through a portals match entry and sends a *small* request; the
server pulls when ready.  A configurable pipeline depth keeps a couple of
chunks in flight so network and disk overlap; :func:`pipelined` runs that
window for this client and for the Lustre-like client
(:class:`repro.pfs.client.SimPFSClient`) alike, and both post every bulk
buffer through :func:`posted`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TransactionAborted
from ..lwfs.capabilities import Capability, OpMask
from ..lwfs.ids import ContainerID, ObjectID, TxnID
from ..machine.node import Node
from ..network.portals import MemoryDescriptor, install_portals
from ..network.rpc import RpcClient
from ..simkernel import Resource
from ..storage.data import Piece, concat_pieces, piece_len, piece_slice
from .cluster import SimCluster
from .servers import DATA_PORTAL, next_data_bits

__all__ = ["SimLWFSClient", "pipelined", "posted"]


def pipelined(env, depth: int, jobs):
    """Run the generators *jobs* with at most *depth* in flight.

    A generator: ``values = yield from pipelined(env, depth, jobs)``.
    Each job starts as its own process once a window slot frees, in input
    order.  A failing job does not stop the others: every job runs to
    completion and frees its slot, then the first failure in input order
    is raised.  Otherwise the jobs' values come back in input order.
    """
    window = Resource(env, capacity=depth)
    procs = []
    for job in jobs:
        req = window.request()
        yield req
        procs.append(env.process(_windowed(job, window, req)))
    if procs:
        yield env.all_of(procs)
    values = []
    for proc in procs:
        if isinstance(proc.value, BaseException):
            raise proc.value
        values.append(proc.value)
    return values


def posted(portals, md, call, *args, **kwargs):
    """Make the RPC ``call(*args, **kwargs)`` with *md* posted (Fig. 6).

    A generator: ``payload = yield from posted(portals, md, call, ...)``.
    The buffer is attached on the bulk-data portal under fresh match
    bits, the call carries its address as ``data_node``/``data_bits``
    so the server can pull from it (writes) or push into it (reads),
    and it is detached when the call returns or fails.  Without a fault
    plan the entry is use-once; under one it stays matchable until the
    call ends, so a retransmitted request can move the data again.
    Returns ``md.payload``: for a read, what the server pushed.
    """
    bits = next_data_bits()
    rpc = call(*args, data_node=portals.node.node_id, data_bits=bits, **kwargs)
    # Every chunk in flight holds one of these frames (thousands at once
    # on a collapsed restart), so it keeps only what it needs to detach.
    del call, args, kwargs
    me = portals.attach(DATA_PORTAL, bits, md, use_once=portals.env.faults is None)
    try:
        yield from rpc
    finally:
        portals.detach(DATA_PORTAL, me)
    return md.payload


def _windowed(job, window, req):
    """One :func:`pipelined` job: trap its failure (so a burst of failing
    jobs cannot crash the event loop) and free its window slot."""
    try:
        return (yield from job)
    except BaseException as exc:  # noqa: BLE001 - raised by pipelined
        return exc
    finally:
        window.release(req)


class SimLWFSClient:
    """Per-rank client endpoint for the simulated LWFS deployment."""

    def __init__(self, cluster: SimCluster, node: Node, deployment) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.node = node
        self.deployment = deployment
        self.config = cluster.config
        self.rpc = RpcClient(cluster.env, cluster.fabric, node)
        self.portals = install_portals(cluster.env, cluster.fabric, node)
        self._txn_participants: Dict[TxnID, List[Tuple[int, str]]] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.resend_count = 0

    # -- small-RPC helpers ----------------------------------------------------
    def _call(self, node_id: int, service: str, op: str, **args):
        return self.rpc.call(node_id, service, op, timeout=self.config.rpc_timeout, **args)

    def _storage(self, server_id: int) -> Tuple[int, str]:
        node_id = self.deployment.storage_node_id(server_id)
        return node_id, f"stor{server_id}"

    # -- security --------------------------------------------------------------
    def get_cred(self, principal: str, proof: str):
        return self._call(self.deployment.auth_node_id, "authn", "get_cred",
                          principal=principal, proof=proof)

    def create_container(self, cred, acl=None):
        return self._call(self.deployment.authz_node_id, "authz", "create_container",
                          cred=cred, acl=acl)

    def get_caps(self, cred, cid: ContainerID, ops: OpMask):
        return self._call(self.deployment.authz_node_id, "authz", "get_caps",
                          cred=cred, cid=cid, ops=ops)

    def get_cap_set(self, cred, cid: ContainerID, op_list: Sequence[OpMask]):
        return self._call(self.deployment.authz_node_id, "authz", "get_cap_set",
                          cred=cred, cid=cid, op_list=list(op_list))

    def set_acl(self, cred, cid: ContainerID, acl):
        return self._call(self.deployment.authz_node_id, "authz", "set_acl",
                          cred=cred, cid=cid, acl=acl)

    def revoke(self, cid: ContainerID, ops: OpMask):
        return self._call(self.deployment.authz_node_id, "authz", "revoke", cid=cid, ops=ops)

    # -- objects ----------------------------------------------------------------
    def create_object(
        self,
        cap: Capability,
        server_id: int,
        attrs=None,
        txnid: Optional[TxnID] = None,
        weight: int = 1,
        defer: bool = False,
        cap_weight: Optional[int] = None,
    ):
        """``weight`` > 1 (symmetric-client collapsing) makes this create
        stand in for a whole equivalence class: the server charges CPU and
        journal ops for *weight* creates but materializes one object.
        ``defer``/``cap_weight`` are the open-loop tenant-collapsing
        variant (independent arrivals, weighted capability): see
        :meth:`SimStorageServer._authorize` and the ``create`` handler."""
        node_id, svc = self._storage(server_id)
        oid = yield from self._call(
            node_id, svc, "create", cap=cap, attrs=attrs, txnid=txnid,
            weight=weight, defer=defer, cap_weight=cap_weight,
        )
        return oid

    def remove_object(self, cap: Capability, oid: ObjectID, txnid: Optional[TxnID] = None):
        node_id, svc = self._storage(oid.server_hint)
        return (yield from self._call(node_id, svc, "remove", cap=cap, oid=oid, txnid=txnid))

    def get_attrs(
        self,
        cap: Capability,
        oid: ObjectID,
        weight: int = 1,
        defer: bool = False,
        cap_weight: Optional[int] = None,
    ):
        node_id, svc = self._storage(oid.server_hint)
        return (
            yield from self._call(
                node_id, svc, "getattr", cap=cap, oid=oid,
                weight=weight, defer=defer, cap_weight=cap_weight,
            )
        )

    def list_objects(self, cap: Capability, server_id: int, cid: Optional[ContainerID] = None):
        node_id, svc = self._storage(server_id)
        return (yield from self._call(node_id, svc, "list", cap=cap, cid=cid))

    def sync(self, server_id: int, weight: int = 1):
        node_id, svc = self._storage(server_id)
        return (yield from self._call(node_id, svc, "sync", weight=weight))

    def filter(self, cap: Capability, oid: ObjectID, offset: int, length: int,
               name: str, args: Optional[dict] = None):
        """Active storage (§6): remote reduction; only the digest returns."""
        node_id, svc = self._storage(oid.server_hint)
        return (
            yield from self._call(
                node_id, svc, "filter",
                cap=cap, oid=oid, offset=offset, length=length, name=name, args=args,
            )
        )

    # -- bulk data (server-directed, Fig. 6) -----------------------------------------
    def write(
        self,
        cap: Capability,
        oid: ObjectID,
        data: Piece,
        offset: int = 0,
        txnid: Optional[TxnID] = None,
        weight: int = 1,
        defer: bool = False,
        cap_weight: Optional[int] = None,
    ):
        """Chunked, pipelined write of *data* to *oid* at *offset*.

        ``weight`` > 1 (symmetric-client collapsing): each chunk request
        stands for *weight* clients' identical chunks — the server charges
        the wire, disk, and CPU for all of them while this client posts
        one buffer.  ``defer``/``cap_weight`` (open-loop tenant
        collapsing): reply after one arrival's service with the rest of
        the batch in the background; ``cap_weight`` is how many distinct
        tenants' capabilities the presented cap stands for.
        """
        total = piece_len(data)
        chunk = self.config.chunk_bytes
        if (
            self.config.flow
            and self.deployment.server_directed
            and total > 2 * chunk
        ):
            # Flow-level path: the first chunk exact (RPC round, capability
            # verify, portals pull, per-chunk disk write), then every other
            # chunk in ONE write whose pull rides a fluid flow at the
            # server.  Syncs/commits stay exact.
            yield from self._write_chunk(
                cap, oid, offset, piece_slice(data, 0, chunk), txnid, weight,
                cap_weight=cap_weight,
            )
            yield from self._write_chunk(
                cap, oid, offset + chunk, piece_slice(data, chunk, total), txnid, weight,
                cap_weight=cap_weight, n_chunks=(total - 1) // chunk,
            )
        else:
            # A representative keeps the whole class's chunks in flight: the
            # class collectively had weight * depth outstanding requests.
            yield from pipelined(
                self.env, weight * self.config.pipeline_depth,
                (
                    self._write_chunk(
                        cap, oid, offset + pos, piece_slice(data, pos, min(pos + chunk, total)),
                        txnid, weight, defer, cap_weight,
                    )
                    for pos in range(0, total, chunk)
                ),
            )
        self.bytes_written += total
        return total

    def _write_chunk(self, cap, oid, offset, piece, txnid, weight=1, defer=False,
                     cap_weight=None, n_chunks=1):
        node_id, svc = self._storage(oid.server_hint)
        length = piece_len(piece)
        if self.deployment.server_directed:
            yield from posted(
                self.portals, MemoryDescriptor(length=length, payload=piece),
                self._call, node_id, svc, "write",
                cap=cap, oid=oid, offset=offset, length=length, txnid=txnid,
                weight=weight, defer=defer, cap_weight=cap_weight, n_chunks=n_chunks,
            )
            return
        # Client-push ablation: ship data with the request; on buffer
        # exhaustion the server rejects and we must resend the bytes.
        backoff = 0.002
        while True:
            result = yield from self.rpc.call(
                node_id, svc, "write",
                timeout=self.config.rpc_timeout,
                request_size=self.config.request_bytes + length,
                cap=cap, oid=oid, offset=offset, length=length,
                data=piece, txnid=txnid,
            )
            if result["status"] == "ok":
                return result
            self.resend_count += 1
            yield self.env.timeout(self.cluster.rng.uniform("backoff", backoff / 2, backoff))
            backoff = min(backoff * 2, 0.1)

    def read(self, cap: Capability, oid: ObjectID, offset: int, length: int, weight: int = 1,
             defer: bool = False, cap_weight: Optional[int] = None):
        """Chunked, pipelined read; the server pushes into posted buffers.

        ``weight`` > 1 (symmetric-client collapsing): each chunk request
        stands for *weight* clients' identical reads — the server charges
        seeks, disk bytes, and the wire for all of them.
        ``defer``/``cap_weight`` are the open-loop tenant-collapsing
        variant (see the server's ``read`` handler).
        """
        chunk = self.config.chunk_bytes
        pieces = yield from pipelined(
            self.env, weight * self.config.pipeline_depth,
            (
                self._read_chunk(
                    cap, oid, offset + pos, min(chunk, length - pos), weight, defer, cap_weight
                )
                for pos in range(0, length, chunk)
            ),
        )
        self.bytes_read += length
        return concat_pieces(pieces)

    def _read_chunk(self, cap, oid, offset, n, weight=1, defer=False, cap_weight=None):
        """One chunk read: the :func:`posted` generator itself, so a chunk
        in flight costs no frame of its own."""
        node_id, svc = self._storage(oid.server_hint)
        return posted(
            self.portals, MemoryDescriptor(length=n), self._call, node_id, svc, "read",
            cap=cap, oid=oid, offset=offset, length=n,
            weight=weight, defer=defer, cap_weight=cap_weight,
        )

    # -- naming -----------------------------------------------------------------------
    def bind(self, path: str, oid: ObjectID, txnid: Optional[TxnID] = None):
        if txnid is not None:
            yield from self._txn_join(txnid, self.deployment.naming_node_id, "naming")
        return (
            yield from self._call(
                self.deployment.naming_node_id, "naming", "create_name",
                path=path, target=(oid, oid.server_hint), txnid=txnid,
            )
        )

    def lookup(self, path: str):
        target = yield from self._call(self.deployment.naming_node_id, "naming", "lookup", path=path)
        return target[0]

    # -- transactions (client-driven 2PC over RPC, §3.4) -------------------------------
    def begin_txn(self):
        """Allocate a txn id locally — no wire traffic until ops happen."""
        txnid = self.deployment.ids.txn()
        self._txn_participants[txnid] = []
        if False:  # pragma: no cover - keeps this a generator
            yield None
        return txnid

    def txn_join_storage(self, txnid: TxnID, server_id: int):
        node_id, svc = self._storage(server_id)
        yield from self._txn_join(txnid, node_id, svc)

    def _txn_join(self, txnid: TxnID, node_id: int, service: str):
        key = (node_id, service)
        participants = self._txn_participants.setdefault(txnid, [])
        if key not in participants:
            # Reserve before yielding: two ranks sharing this client (two
            # processes on one compute node) must not double-register the
            # participant while the begin RPC is in flight.
            participants.append(key)
            try:
                yield from self._call(node_id, service, "txn_begin", txnid=txnid)
            except BaseException:
                try:
                    participants.remove(key)
                except ValueError:
                    pass
                raise

    def end_txn(self, txnid: TxnID):
        """Two-phase commit across every participant.

        The coordinator drives prepare and commit *serially* over the
        participants, so the chain length scales with the number of
        storage servers in the transaction.
        """
        participants = self._txn_participants.pop(txnid, [])
        votes = []
        veto_reasons = []
        for node_id, service in participants:
            try:
                vote = yield from self._call(node_id, service, "txn_prepare", txnid=txnid)
            except Exception as exc:  # noqa: BLE001 - a dead/broken vote
                vote = False
                veto_reasons.append(f"{service}@{node_id}: {type(exc).__name__}: {exc}")
            votes.append(vote)
        if not all(votes):
            yield from self._abort(txnid, participants)
            detail = "; ".join(veto_reasons) or "participant voted no"
            raise TransactionAborted(f"{txnid}: prepare failed ({detail})")
        for node_id, service in participants:
            yield from self._call(node_id, service, "txn_commit", txnid=txnid)
        return True

    def abort_txn(self, txnid: TxnID):
        participants = self._txn_participants.pop(txnid, [])
        yield from self._abort(txnid, participants)

    def _abort(self, txnid: TxnID, participants):
        for node_id, service in participants:
            try:
                yield from self._call(node_id, service, "txn_abort", txnid=txnid)
            except Exception:  # noqa: BLE001 - best-effort rollback
                pass
