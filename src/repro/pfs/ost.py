"""Object storage targets (OSTs) with extent-lock consistency.

Data movement is LWFS's: an OST is a :class:`~repro.sim.servers._DataServer`
and runs the same server-directed movers as the LWFS storage server (it
pulls bulk data over portals — Lustre really is built on Portals too,
§3.2).  So the *difference* between the stacks is exactly what the paper
says it is: the consistency machinery, here the guard each handler runs
before it moves data.

Each OST object has an extent-lock owner.  While one client streams to an
object, writes take the fast path (pull + stream, fully pipelined).  When
a *different* client touches the same object — the shared-file checkpoint
pattern — the lock must change hands: the previous owner's dirty pages are
flushed (sync), the new writer's data lands with a repositioning seek, and
interleaved partial-stripe extents cost the RAID a read-modify-write
factor.  File-per-process files have one writer per object and never pay
any of this.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from ..errors import NetworkError
from ..lwfs.ids import ContainerID
from ..machine.node import Node
from ..network.portals import MemoryDescriptor
from ..simkernel import Resource
from ..storage.obd import ObjectStore
from ..sim.servers import DATA_PORTAL, _DataServer

__all__ = ["SimOST"]

#: Extra media time for interleaved partial-stripe writes (RAID
#: read-modify-write).  Together with the flush+seek at each ownership
#: switch this reproduces the paper's "roughly half" shared-file result.
RMW_FACTOR = 1.15

#: Wire+handshake latency of one lock revocation callback (client round
#: trip through the lock server).
REVOKE_LATENCY = 0.5e-3


class SimOST(_DataServer):
    """One object storage target of the Lustre-like file system."""

    def __init__(self, cluster, node: Node, ost_id: int, raid_bandwidth: Optional[float] = None) -> None:
        self.ost_id = ost_id
        self.service_name = f"ost{ost_id}"
        super().__init__(cluster, node, f"ost{ost_id}-raid", raid_bandwidth)
        self.store = ObjectStore(name=f"ost{ost_id}")
        #: per-object extent-lock owner (client node id).
        self._owners: Dict[Hashable, int] = {}
        #: distinct writers ever seen per object: once an object has two,
        #: its extents stay fragmented and every write pays the contended
        #: path (lock ping-pong does not heal while writers remain).
        self._writers: Dict[Hashable, set] = {}
        #: per-object serialization during contended (slow-path) writes.
        self._object_locks: Dict[Hashable, Resource] = {}
        self.lock_switches = 0
        self._cid = ContainerID(0)  # all PFS objects share one "container"
        self._register_ops()

    def _object_lock(self, key: Hashable) -> Resource:
        lock = self._object_locks.get(key)
        if lock is None:
            lock = Resource(self.env, capacity=1)
            self._object_locks[key] = lock
        return lock

    def _ensure_object(self, key: Hashable) -> None:
        if not self.store.exists(key):
            self.store.create(key, self._cid)

    def _sole_writer(self, key: Hashable, client_id: int) -> bool:
        """The extent-lock guard: record *client_id* as a writer of *key*
        and say whether it is the object's only writer and owns (or can
        take) its lock without a switch."""
        self._ensure_object(key)
        owner = self._owners.get(key)
        writers = self._writers.setdefault(key, set())
        writers.add(client_id)
        return len(writers) == 1 and (owner is None or owner == client_id)

    def _register_ops(self) -> None:
        costs = self.config.pfs
        reg = self.rpc.register

        def write(ctx, ino, stripe_index, offset, length, data_node, data_bits, client_id,
                  weight=1, shared=False, n_chunks=1):
            """``weight`` > 1 (symmetric-client collapsing): this request
            stands for *weight* clients' equivalent fragments.  ``shared``
            says whether those clients write the *same* object (shared
            file: the class members contend on the extent lock among
            themselves, so the write is forced onto the contended path
            with *weight* ownership switches) or each their own object
            (file-per-process: sole-writer streaming, scaled bytes).

            ``n_chunks`` > 1 (flow-level data path): the request carries
            the steady-state middle of a sole-writer write, *n_chunks*
            fragments' worth, pulled as ONE fluid flow.  The PFS client
            sends one only for unshared single-OST layouts, so a contended
            object here means the gating broke; fail loudly rather than
            mis-model it."""
            yield from self.cpu("req", weight * n_chunks * costs.ost_request_cpu)
            key = (ino, stripe_index)
            sole = self._sole_writer(key, client_id)
            if n_chunks > 1 and not sole:
                raise NetworkError(
                    f"{n_chunks}-chunk write on contended object {key} "
                    f"(owner {self._owners.get(key)})"
                )
            if sole and not (shared and weight > 1):
                # Sole-writer fast path: the LWFS discipline.
                self._owners[key] = client_id
                t_wait = self.env._now
                with self.threads.request() as thread:
                    yield thread
                    self._waited(t_wait, "threads")
                    data = yield from (
                        self._pull(length, data_node, data_bits, weight) if n_chunks == 1
                        else self._pull_stream(length, n_chunks, data_node, data_bits, weight)
                    )
                    self.store.write(key, offset, data)
                return {"status": "ok", "written": length}

            # Contended path: extent-lock ownership must change hands.
            # A collapsed class writing back to back switches once per
            # member — except the member that finds the object unowned
            # (``sole``): it streams on the fast path before contention
            # starts, exactly as the first writer does in an exact run.
            switches = weight - 1 if sole else weight
            self.lock_switches += switches
            t_wait = self.env._now
            with self._object_lock(key).request() as obj_lock:
                yield obj_lock
                # Revocation callback to the previous owner + their flush.
                yield self.env.timeout(switches * REVOKE_LATENCY)
                # Queueing for the extent lock plus the revocation round
                # trip — the serialization the shared-file figure shows.
                self._waited(t_wait, "extent-lock")
                yield from self.device.sync(ops=switches)
                self._owners[key] = client_id
                yield self.buffers.get(length)
                md = MemoryDescriptor(length=length)
                try:
                    data = yield from self.node.portals.get(
                        md, data_node, DATA_PORTAL, data_bits, wire_weight=weight
                    )
                    if sole:
                        # The class's first writer: sequential stream, no RMW.
                        yield from self.device.write(length)
                    # Interleaved partial-stripe extents: seek + RMW on media.
                    yield from self.device.write(
                        int(switches * length * RMW_FACTOR), seek=True, ops=switches
                    )
                finally:
                    self.buffers.put(length)
                self.store.write(key, offset, data)
            return {"status": "ok", "written": length}

        def read(ctx, ino, stripe_index, offset, length, data_node, data_bits, weight=1):
            """``weight`` > 1 (collapsing): the read stands for *weight*
            clients' identical fragments — seeks, disk bytes, CPU, and
            the reply wire all scale accordingly."""
            yield from self.cpu("req", weight * costs.ost_request_cpu)
            key = (ino, stripe_index)
            self._ensure_object(key)
            t_wait = self.env._now
            with self.threads.request() as thread:
                yield thread
                self._waited(t_wait, "threads")
                yield from self._push(
                    length, data_node, data_bits, weight, self.store.read, key, offset, length
                )
            return {"status": "ok"}

        def sync(ctx, ino=None, weight=1):
            yield from self.device.sync(ops=weight)
            return True

        def destroy(ctx, ino, stripe_index):
            yield from self.cpu("req", costs.ost_request_cpu)
            key = (ino, stripe_index)
            if self.store.exists(key):
                yield from self.device.meta_op()
                released = self.store.remove(key)
                self.device.release_bytes(released)
                self._owners.pop(key, None)
            return True

        reg("write", write)
        reg("read", read)
        reg("sync", sync)
        reg("destroy", destroy)
