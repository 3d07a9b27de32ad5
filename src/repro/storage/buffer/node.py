"""The absorb-then-drain burst-buffer tier (ROADMAP item 2).

A :class:`BufferNode` soaks checkpoint bursts at NVRAM speed into a
bounded pool (absorbs block once the pool is full — backpressure), while
background drain workers asynchronously flush absorbed extents to the
backing LWFS objects over the ordinary client write path, so drain
traffic contends at the OSTs, rides the flow engine, and fast-forwards
exactly like foreground writes.  ``hostlog`` mode models an append-only
host-side log (iFast/ParaLog): absorbs are pure sequential appends and
the drainer pays a reorder pass per extent before flushing.

Buffer nodes speak the fault injector's server protocol (``.node``,
``.rpc._inflight``, ``.device``, ``.reboot()``), so a ``server_crash``
aimed at ``buf0`` — or at a storage server co-located on the same I/O
node — kills in-flight drain workers and, per mode, loses or re-drives
the un-drained extents.

:class:`BufferTierRuntime` owns the per-trial buffer fleet: placement
(node-local vs shared), the rank→buffer map, collapse keys that carry
multiplicity through the tier, and the end-of-trial drain barrier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set

from ...errors import ServerCrashed
from ...machine.spec import StorageSpec
from ...network.fabric import Message
from ...simkernel import EmptySchedule, InterruptException
from ...simkernel.resources import Container
from ...units import KiB, MiB
from ..data import Piece, concat_pieces, piece_len, piece_slice
from ..device import RaidDevice
from .tier import TierSpec

__all__ = ["BufferNode", "BufferTierRuntime", "Extent"]

#: Coalescing cap for one drain batch: contiguous same-object extents
#: merge into a single backing write up to this many bytes, so drains
#: exceed the flow engine's 2-chunk threshold and ride the fluid path.
DRAIN_COALESCE_BYTES = 64 * MiB

#: Host-side-log reorder cost per physical extent (index lookup + seek in
#: the append-only log) charged during the drain read-out.
HOSTLOG_REORDER_OP = 200e-6

#: A drain batch whose backing write keeps failing is retried with this
#: (jittered) delay; after ``MAX_DRAIN_RETRIES`` the extents are dropped
#: as lost rather than spinning the event loop forever against a
#: permanently dead server.
DRAIN_RETRY_DELAY = 0.05
MAX_DRAIN_RETRIES = 8


@dataclass(eq=False)
class Extent:
    """One absorbed chunk awaiting drain (identity semantics: the same
    byte range can legitimately be absorbed twice across retries).

    ``length``/``offset`` are unweighted (one rank's coordinates);
    ``reserve`` is the bytes held in this buffer for the extent —
    ``length`` for node-local placement (every class member has its own
    buffer) and ``length * weight`` for shared placement (one appliance
    absorbs the whole class).  ``weight`` rides into the backing write so
    a collapsed representative's drain charges the OSTs for its class.
    """

    oid: object  # ObjectID
    cap: object  # Capability
    sid: int
    offset: int
    length: int
    weight: int
    reserve: int
    data: Piece
    retries: int = 0


class _BufRpc:
    """Minimal server-shim so :class:`~repro.faults.FaultInjector` can
    address a buffer node like any other server: a name for the fault
    log and an ``_inflight`` set of interruptible processes (the drain
    workers)."""

    __slots__ = ("name", "_inflight")

    def __init__(self, name: str) -> None:
        self.name = name
        self._inflight: Set[object] = set()


class BufferNode:
    """One absorb-then-drain buffer (NVRAM pool or host-side log)."""

    def __init__(self, cluster, deployment, node, name: str, tier: TierSpec) -> None:
        self.cluster = cluster
        self.deployment = deployment
        self.env = cluster.env
        self.node = node
        self.name = name
        self.tier = tier
        self.mode = tier.mode
        self.shared = tier.placement == "shared"
        # NVRAM/log media: no rotational positioning, instant flush.  The
        # device gives absorbs the same controller/jitter discipline as
        # every other volume in the simulation.
        spec = StorageSpec(
            bandwidth=tier.absorb_bandwidth,
            seek_time=20e-6,
            sync_time=10e-6,
            meta_op_time=5e-6,
            capacity=tier.capacity_bytes,
        )
        self.device = RaidDevice(
            self.env, spec, name=name, rng=cluster.rng,
            jitter=cluster.config.cost_jitter, node_id=node.node_id,
        )
        self.free = Container(self.env, capacity=tier.capacity_bytes, init=tier.capacity_bytes)
        self.rpc = _BufRpc(name)
        self.queue: Deque[Extent] = deque()
        self._waiters: Deque[object] = deque()  # idle drain workers
        self._idle_waiters: List[object] = []  # drain_remaining() barriers
        self._active = 0  # batches currently being drained
        self._draining: List[Extent] = []  # extents inside an active batch
        self._crash_pending: List[Extent] = []
        self._pending_oid: Dict[int, int] = {}  # oid value -> un-drained bytes
        self.lost_oids: Set[int] = set()
        # Byte counters are class-weighted (``length * weight``) so
        # collapsed and exact runs report the same totals; occupancy and
        # the free pool track physical reserves instead.
        self.absorbed_bytes = 0
        self.drained_bytes = 0
        self.bytes_lost = 0
        self.extents_drained = 0
        self.extents_lost = 0
        self.extents_redriven = 0
        self.drain_retries = 0
        self.backpressure_s = 0.0
        self.drain_busy_s = 0.0
        self.first_enqueue_t: Optional[float] = None
        self.last_drain_t: Optional[float] = None
        self._spawn_workers()

    # -- state -------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        return not self.node.alive

    @property
    def occupancy_bytes(self) -> int:
        return int(self.tier.capacity_bytes - self.free.level)

    @property
    def queue_len(self) -> int:
        return len(self.queue)

    def pending_bytes(self, oid_value: int) -> int:
        """Un-drained (unweighted) bytes of one object still in the pool."""
        return self._pending_oid.get(oid_value, 0)

    # -- absorb (called from rank programs) --------------------------------
    def absorb(self, oid, cap, sid: int, data: Piece, weight: int = 1, src_node=None):
        """Absorb one rank's state; each landed chunk becomes a drain extent.

        Node-local placement charges unweighted bytes (every class member
        owns an identical buffer); shared placement charges the whole
        class through this one appliance (``reserve = step * weight``)
        and pays the compute→buffer fabric hop.  Blocks on the free pool
        once the buffer is full — that wait is the backpressure the
        drain-limited regime is made of.
        """
        env = self.env
        nbytes = piece_len(data)
        chunk = self.cluster.config.chunk_bytes
        if self.shared:
            if weight > self.tier.capacity_bytes // (64 * KiB):
                raise ValueError(
                    f"{self.name}: collapsed class of {weight} cannot fit a 64 KiB "
                    f"stride each in {self.tier.capacity_bytes} B; raise capacity_bytes"
                )
            step = max(64 * KiB, chunk // weight)
            step = min(step, max(1, self.tier.capacity_bytes // weight))
        else:
            step = min(chunk, self.tier.capacity_bytes)
        ops = weight if self.shared else 1
        pos = 0
        while pos < nbytes:
            n = min(step, nbytes - pos)
            reserve = n * weight if self.shared else n
            if self.crashed:
                raise ServerCrashed(f"{self.name} crashed during absorb")
            t0 = env.now
            yield self.free.get(reserve)
            self.backpressure_s += env.now - t0
            if self.crashed:
                self.free.put(reserve)
                raise ServerCrashed(f"{self.name} crashed during absorb")
            try:
                if src_node is not None and src_node is not self.node:
                    yield from self.cluster.fabric.transfer(Message(
                        src=src_node.node_id, dst=self.node.node_id,
                        size=reserve, tag="absorb",
                    ))
                yield from self.device.write(reserve, seek=False, ops=ops)
            except BaseException:
                self.free.put(reserve)
                raise
            if self.crashed:
                self.free.put(reserve)
                self.device.release_bytes(reserve)
                raise ServerCrashed(f"{self.name} crashed during absorb")
            self.absorbed_bytes += n * weight
            self._enqueue(Extent(
                oid=oid, cap=cap, sid=sid, offset=pos, length=n,
                weight=weight, reserve=reserve,
                data=piece_slice(data, pos, pos + n),
            ))
            pos += n

    def read_back(self, oid, nbytes: int, weight: int = 1, dst_node=None):
        """Restart path: serve *nbytes* of un-drained data from the pool."""
        charge = nbytes * weight if self.shared else nbytes
        ops = weight if self.shared else 1
        yield from self.device.read(charge, seek=False, ops=ops)
        if dst_node is not None and dst_node is not self.node:
            yield from self.cluster.fabric.transfer(Message(
                src=self.node.node_id, dst=dst_node.node_id,
                size=charge, tag="absorb-read",
            ))

    def pending_extents(self, oid_value: int) -> List[Extent]:
        """Un-drained extents of one object, in offset order (restart path).

        Covers all three places an un-drained extent can live: the drain
        queue, an active drain batch (``_draining`` — popped from the
        queue but not yet written to the backing object), and the
        crash-pending set.  Everything *not* here has completed its
        backing write.
        """
        exts = [e for e in list(self.queue) + self._draining + self._crash_pending
                if e.oid.value == oid_value]
        return sorted(exts, key=lambda e: e.offset)

    # -- drain -------------------------------------------------------------
    def _enqueue(self, ext: Extent) -> None:
        if self.first_enqueue_t is None:
            self.first_enqueue_t = self.env.now
        self.queue.append(ext)
        self._pending_oid[ext.oid.value] = (
            self._pending_oid.get(ext.oid.value, 0) + ext.length
        )
        while self._waiters:
            ev = self._waiters.popleft()
            if not ev.triggered:
                ev.succeed()
                break

    def _spawn_workers(self) -> None:
        for i in range(self.tier.drain_concurrency):
            proc = self.env.process(self._worker_proc(), name=f"{self.name}.drain{i}")
            self.rpc._inflight.add(proc)

    def _worker_proc(self):
        env = self.env
        batch: List[Extent] = []
        try:
            while True:
                while not self.queue:
                    if self._active == 0:
                        self._notify_idle()
                    ev = env.event()
                    self._waiters.append(ev)
                    yield ev
                batch = self._next_batch()
                self._active += 1
                self._draining.extend(batch)
                try:
                    yield from self._drain_batch(batch)
                finally:
                    self._active -= 1
                batch = []
                if not self.queue and self._active == 0:
                    self._notify_idle()
        except InterruptException:
            # Buffer-node crash: the worker dies here; whatever part of
            # its batch was still in flight joins the crash-pending set
            # and reboot() decides its fate (lost for `buffer` mode,
            # re-driven for the durable hostlog).  Extents the batch
            # already re-queued (retry backoff) stay in the queue.
            stranded = [e for e in batch if e in self._draining]
            for e in stranded:
                self._draining.remove(e)
            self._crash_pending.extend(stranded)

    def _next_batch(self) -> List[Extent]:
        batch = [self.queue.popleft()]
        total = batch[0].length
        while self.queue and len(batch) < 64:
            nxt = self.queue[0]
            last = batch[-1]
            if (
                nxt.oid.value == last.oid.value
                and nxt.offset == last.offset + last.length
                and total + nxt.length <= DRAIN_COALESCE_BYTES
            ):
                batch.append(self.queue.popleft())
                total += nxt.length
            else:
                break
        return batch

    def _drain_batch(self, batch: List[Extent]):
        env = self.env
        first = batch[0]
        reserve = sum(e.reserve for e in batch)
        # Read-out at the drain port.  NVRAM is dual-ported: draining does
        # not steal absorb bandwidth (the pool contends on *capacity*, not
        # on the ingest controller).  The host-side log pays a reorder op
        # per physical extent before it can flush sequentially.
        dur = reserve / self.tier.drain_bandwidth
        if self.mode == "hostlog":
            dur += len(batch) * (first.weight if self.shared else 1) * HOSTLOG_REORDER_OP
        dur = self.cluster.jitter(f"{self.name}.drain", dur)
        yield env.timeout(dur)
        self.drain_busy_s += dur
        # The backing write rides the normal client path from this node —
        # OST contention, flow engine, fast-forward and all.  It runs in a
        # child process that traps failure, so a crash landing on this
        # worker never leaves an unhandled failure in the event queue.
        data = concat_pieces([e.data for e in batch])
        wproc = env.process(
            self._backing_write(first, data), name=f"{self.name}.flush:{first.oid.value}"
        )
        outcome = yield wproc
        if outcome is None:
            for e in batch:
                self._draining.remove(e)
                self.free.put(e.reserve)
                self.device.release_bytes(e.reserve)
                self.drained_bytes += e.length * e.weight
                self.extents_drained += 1
                self._forget_pending(e)
            self.last_drain_t = env.now
            return
        # Backing write failed (crashed/rebooting server): re-queue and
        # back off, dropping the batch as lost once retries are exhausted.
        self.drain_retries += 1
        if all(e.retries + 1 < MAX_DRAIN_RETRIES for e in batch):
            for e in reversed(batch):
                e.retries += 1
                self._draining.remove(e)
                self.queue.appendleft(e)
            yield env.timeout(self.cluster.jitter(f"{self.name}.drain_retry", DRAIN_RETRY_DELAY))
        else:
            for e in batch:
                self._draining.remove(e)
                self._drop_lost(e)

    def _backing_write(self, ext: Extent, data: Piece):
        client = self.deployment.client(self.node)
        try:
            yield from client.write(ext.cap, ext.oid, data, offset=ext.offset, weight=ext.weight)
            yield from client.sync(ext.sid, weight=ext.weight)
            return None
        except Exception as exc:  # noqa: BLE001 - reported to the worker
            return exc

    def _forget_pending(self, ext: Extent) -> None:
        left = self._pending_oid.get(ext.oid.value, 0) - ext.length
        if left > 0:
            self._pending_oid[ext.oid.value] = left
        else:
            self._pending_oid.pop(ext.oid.value, None)

    def _drop_lost(self, ext: Extent) -> None:
        self.extents_lost += 1
        self.bytes_lost += ext.length * ext.weight
        self.lost_oids.add(ext.oid.value)
        self._forget_pending(ext)
        self.free.put(ext.reserve)
        self.device.release_bytes(ext.reserve)

    def _notify_idle(self) -> None:
        waiters, self._idle_waiters = self._idle_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def wait_idle(self):
        """Block until every absorbed extent has drained (or been lost)."""
        while self.queue or self._active > 0 or self._crash_pending:
            ev = self.env.event()
            self._idle_waiters.append(ev)
            yield ev

    # -- crash / reboot (fault injector protocol) ---------------------------
    def reboot(self) -> None:
        """Restart after a ``server_crash``.

        The injector has already interrupted the drain workers (they left
        their in-flight batches in ``_crash_pending``).  ``buffer`` mode
        loses every un-drained extent — volatile NVRAM contents die with
        the node and the freed space is reclaimed.  ``hostlog`` mode
        re-drives everything: the append-only log is durable on local
        storage, so a reboot replays it from the last drain cursor.
        """
        self.node.revive()
        # The injector interrupts the drain workers in set order, so
        # _crash_pending arrives in an address-dependent order; sort it
        # into canonical (object, offset) order so the replay — and with
        # it the drain timeline — is bit-identical across runs.
        pending = sorted(
            self._crash_pending, key=lambda e: (e.oid.value, e.offset)
        ) + list(self.queue)
        self._crash_pending = []
        self.queue.clear()
        self._waiters.clear()  # the old workers died with the node
        if self.mode == "hostlog":
            self.extents_redriven += len(pending)
            self.queue.extend(pending)
        else:
            for ext in pending:
                self._drop_lost(ext)
        self._spawn_workers()
        if not self.queue and self._active == 0:
            self._notify_idle()

    # -- reporting ----------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        return {
            "absorbed_bytes": float(self.absorbed_bytes),
            "drained_bytes": float(self.drained_bytes),
            "bytes_lost": float(self.bytes_lost),
            "extents_drained": float(self.extents_drained),
            "extents_lost": float(self.extents_lost),
            "extents_redriven": float(self.extents_redriven),
            "drain_retries": float(self.drain_retries),
            "backpressure_s": self.backpressure_s,
            "drain_busy_s": self.drain_busy_s,
        }


class BufferTierRuntime:
    """Per-trial buffer fleet: placement, rank→buffer map, drain barrier."""

    def __init__(self, cluster, deployment, tier: TierSpec, n_ranks: int) -> None:
        self.cluster = cluster
        self.deployment = deployment
        self.tier = tier
        self.mode = tier.mode
        self.n_ranks = n_ranks
        self.buffers: List[BufferNode] = []
        if tier.placement == "shared":
            # Shared appliances sit on the I/O nodes in server order, so
            # buf0 is co-located with stor0 and one storage_crash.json
            # exercises buffer and server recovery together.
            nodes = cluster.io_nodes or cluster.service_nodes
            for i in range(tier.buffer_nodes):
                self.buffers.append(
                    BufferNode(cluster, deployment, nodes[i % len(nodes)], f"buf{i}", tier)
                )
        else:
            n = max(1, min(n_ranks, len(cluster.compute_nodes)))
            for i in range(n):
                self.buffers.append(
                    BufferNode(cluster, deployment, cluster.compute_nodes[i], f"buf{i}", tier)
                )
        self._by_node = {b.node.node_id: b for b in self.buffers}
        self._n_compute = max(1, len(cluster.compute_nodes))

    # -- rank mapping --------------------------------------------------------
    def buffer_for(self, ctx) -> BufferNode:
        if self.tier.placement == "shared":
            return self.buffers[ctx.rank % len(self.buffers)]
        return self._by_node[ctx.node.node_id]

    def collapse_key(self, rank: int, inner: tuple) -> tuple:
        """Extend a checkpointer's collapse key with the tier dimension.

        Shared placement: ranks are interchangeable only within one
        appliance's population.  Node-local placement: a rank's buffer is
        shared with its node's co-resident ranks, so the resident count
        (capacity pressure) joins the key; the buffers themselves are
        identical across nodes.
        """
        if self.tier.placement == "shared":
            return ("buf", rank % len(self.buffers)) + tuple(inner)
        c = self._n_compute
        residents = (self.n_ranks - 1 - (rank % c)) // c + 1
        return ("bufl", residents) + tuple(inner)

    # -- data plane ----------------------------------------------------------
    def absorb(self, ctx, cap, oid, sid: int, data: Piece):
        buf = self.buffer_for(ctx)
        src = ctx.node if self.tier.placement == "shared" else None
        yield from buf.absorb(oid, cap, sid, data, weight=ctx.multiplicity, src_node=src)

    def lost(self, oid) -> bool:
        return any(oid.value in b.lost_oids for b in self.buffers)

    def pending_bytes(self, oid) -> int:
        return sum(b.pending_bytes(oid.value) for b in self.buffers)

    def pending_extents(self, oid) -> List[Extent]:
        out: List[Extent] = []
        for b in self.buffers:
            out.extend(b.pending_extents(oid.value))
        return sorted(out, key=lambda e: e.offset)

    # -- drain barrier --------------------------------------------------------
    def drain_remaining(self):
        """Generator: block until every buffer's queue has fully drained."""
        for buf in self.buffers:
            yield from buf.wait_idle()

    def finish(self) -> Dict[str, float]:
        """End-of-trial: drain the tail, return the tier's stat block.

        The measurement window (``max_elapsed``) closed when the rank
        programs finished — the drain tail runs *after* it, which is the
        whole point of absorb-then-drain.  A permanently-crashed buffer
        (fault with ``duration: 0``) can never drain; the resulting empty
        event queue is reported as ``buffer_drain_incomplete`` instead of
        hanging the trial.
        """
        env = self.cluster.env
        t_workload_end = env.now
        incomplete = 0.0
        try:
            env.run(env.process(self.drain_remaining(), name="buffer.drain_barrier"))
        except EmptySchedule:
            incomplete = 1.0
        totals: Dict[str, float] = {}
        for buf in self.buffers:
            for key, val in buf.counters().items():
                totals[key] = totals.get(key, 0.0) + val
        first_t = min(
            (b.first_enqueue_t for b in self.buffers if b.first_enqueue_t is not None),
            default=None,
        )
        last_t = max(
            (b.last_drain_t for b in self.buffers if b.last_drain_t is not None),
            default=None,
        )
        drain_span = (last_t - first_t) if (first_t is not None and last_t is not None) else 0.0
        out = {
            "buffer_nodes": float(len(self.buffers)),
            "buffer_absorbed_mb": totals["absorbed_bytes"] / MiB,
            "buffer_drained_mb": totals["drained_bytes"] / MiB,
            "buffer_lost_mb": totals["bytes_lost"] / MiB,
            "buffer_extents_drained": totals["extents_drained"],
            "buffer_extents_lost": totals["extents_lost"],
            "buffer_extents_redriven": totals["extents_redriven"],
            "buffer_drain_retries": totals["drain_retries"],
            "buffer_backpressure_s": totals["backpressure_s"],
            "buffer_drain_tail_s": env.now - t_workload_end,
            "buffer_drain_goodput_mb_s": (
                totals["drained_bytes"] / MiB / drain_span if drain_span > 0 else 0.0
            ),
            "buffer_drain_incomplete": incomplete,
            # Phase attribution: absorb-limited runs never waited on the
            # pool; any backpressure means the drain set the pace.
            "buffer_drain_limited": 1.0 if totals["backpressure_s"] > 0 else 0.0,
        }
        return out
