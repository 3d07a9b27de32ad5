"""Timing model of a node-attached RAID volume.

All durations come from the node's :class:`~repro.machine.spec.StorageSpec`.
The device serializes requests (one controller), charges a seek for
non-sequential access, streams at the sustained bandwidth, and models
``fsync`` as a fixed flush cost.  Optional jitter makes repeated trials
vary the way the paper's error bars do.
"""

from __future__ import annotations

from typing import Optional

from ..errors import OutOfSpace
from ..machine.spec import StorageSpec
from ..simkernel import Environment, RandomStreams, Resource

__all__ = ["RaidDevice", "DiskStream"]


class RaidDevice:
    """A simulated RAID volume attached to an I/O node."""

    def __init__(
        self,
        env: Environment,
        spec: StorageSpec,
        name: str = "raid",
        rng: Optional[RandomStreams] = None,
        jitter: float = 0.03,
        node_id: Optional[int] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.name = name
        self.rng = rng
        self.jitter = jitter
        self.node_id = node_id  # hosting node, for trace attribution
        self._controller = Resource(env, capacity=1)
        # Metadata ops (object create/remove, journal records) commit
        # through the controller's NVRAM journal, not the data path, so
        # they do not queue behind multi-millisecond bulk writes.
        self._meta_lane = Resource(env, capacity=1)
        self.used_bytes = 0
        self.busy_time = 0.0
        # Flow-level stream state (batched admission): all concurrent
        # streams share ONE controller hold; see begin_stream.
        self._fluid = None
        self._stream_count = 0
        self._stream_req = None
        self._stream_grant = None

    # -- internal -----------------------------------------------------------
    def _cost(self, base: float, stream: str) -> float:
        if self.rng is None or self.jitter <= 0:
            return base
        return self.rng.jitter(f"{self.name}.{stream}", base, self.jitter)

    def _busy(self, duration: float, op: str = "io", nbytes: int = 0,
              lane: Optional[Resource] = None):
        """Hold *lane* (the controller by default) for *duration*."""
        tracer = self.env.tracer
        t_request = self.env._now if tracer is not None else 0.0
        start = yield from (lane or self._controller).hold(duration)
        self.busy_time += self.env.now - start
        if tracer is not None:
            # One span per device op, split into its queueing and
            # service components — the raw material for the
            # PhaseReport's disk-queue vs disk-service attribution.
            tracer.record(
                f"disk:{self.name}", start=t_request, kind="disk",
                node=self.node_id, op=op,
                queue=start - t_request, service=self.env.now - start,
                bytes=nbytes,
            )

    # -- operations (generators) -------------------------------------------------
    def write(self, nbytes: int, seek: bool = False, ops: int = 1):
        """Stream *nbytes* to the device: ``yield from device.write(n)``.

        ``seek=True`` charges a positioning cost first.  Streaming
        checkpoint writes leave it ``False`` — the RAID's write-back cache
        and elevator absorb positioning for bulk sequential-per-object
        traffic; consistency-forced flushes (lock ping-pong in the
        shared-file baseline) pass ``True`` explicitly.

        ``ops`` is the number of logical operations this call stands for
        (symmetric-client collapsing): the caller pre-scales *nbytes* by
        the class size, and ``ops`` scales the per-op seek count to match.
        At ``ops=1`` this is exactly the unweighted path.
        """
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        if self.used_bytes + nbytes > self.spec.capacity:
            raise OutOfSpace(
                f"{self.name}: {nbytes}B write exceeds capacity "
                f"({self.used_bytes}/{self.spec.capacity} used)"
            )
        duration = nbytes / self.spec.bandwidth
        if seek:
            duration += ops * self._cost(self.spec.seek_time, "seek")
        if nbytes:
            duration = self._cost(duration, "write")
        yield from self._busy(duration, op="write", nbytes=nbytes)
        self.used_bytes += nbytes

    def read(self, nbytes: int, seek: bool = True, ops: int = 1):
        """Stream *nbytes* from the device (reads pay a seek by default).

        ``ops`` mirrors :meth:`write`: under symmetric-client collapsing
        one call stands for a whole equivalence class, the caller
        pre-scales *nbytes*, and ``ops`` scales the seek count so the
        restart/read workload is not silently under-charged.
        """
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        duration = nbytes / self.spec.bandwidth
        if seek:
            duration += ops * self._cost(self.spec.seek_time, "seek")
        yield from self._busy(duration, op="read", nbytes=nbytes)

    def sync(self, ops: int = 1):
        """Flush the write-back cache (fsync).

        ``ops`` flushes back to back (collapsed equivalence class); one
        jittered cost is drawn and scaled, so ``ops=1`` is the exact path.
        """
        yield from self._busy(ops * self._cost(self.spec.sync_time, "sync"), op="sync")

    def meta_op(self, ops: int = 1):
        """A metadata-touching device operation (create/remove/setattr).

        Serialized against other metadata ops (one journal), but not
        against bulk data transfers.  ``ops`` scales the cost for
        collapsed equivalence classes, like :meth:`sync`.
        """
        yield from self._busy(
            ops * self._cost(self.spec.meta_op_time, "meta"), op="meta", lane=self._meta_lane
        )

    # -- flow-level stream path (batched disk admission) ---------------------
    @property
    def fluid(self):
        """Fluid view of the sustained bandwidth, for flow-level streams
        (:mod:`repro.network.flow`); created on first use."""
        if self._fluid is None:
            from ..network.flow import FluidResource

            self._fluid = FluidResource(self.spec.bandwidth, name=f"{self.name}.fluid")
        return self._fluid

    def stream_scale(self, ops: int = 1) -> float:
        """Jittered rate multiplier covering a whole ``ops``-chunk stream.

        The exact path draws one jitter per chunk write from the device's
        ``.write`` substream; a stream stands for ``ops`` such chunks, so
        it consumes ``ops`` draws from the *same* substream and averages
        them.  The realized total service then tracks what the exact run
        would have summed chunk by chunk — the same draws, just consumed
        in one gulp — keeping flow-mode disk totals within the per-chunk
        path's own trial-to-trial spread.
        """
        if self.rng is None or self.jitter <= 0:
            return 1.0
        total = 0.0
        for _ in range(max(1, ops)):
            total += self.rng.jitter(f"{self.name}.write", 1.0, self.jitter)
        return total / max(1, ops)

    def begin_stream(self, nbytes: int, ops: int = 1):
        """Admit a bulk write stream: ``handle = yield from begin_stream(n)``.

        Batched admission: consecutive streams coalesce into a *single*
        controller hold.  The first stream queues one FIFO request (so it
        still waits behind in-flight discrete ops — other clients'
        first-chunk writes, syncs), later streams join the existing hold
        synchronously, and the last one out releases the controller.  One
        queue entry and one trace span per stream, however many chunks it
        stands for.  The stream's duration is governed by the fluid flow
        holding :attr:`fluid`; call ``handle.close()`` when that flow
        completes.  Discrete ops queue behind the shared hold, matching
        the exact path where syncs drain after the bulk writes.
        """
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        if self.used_bytes + nbytes > self.spec.capacity:
            raise OutOfSpace(
                f"{self.name}: {nbytes}B stream exceeds capacity "
                f"({self.used_bytes}/{self.spec.capacity} used)"
            )
        tracer = self.env.tracer
        t_request = self.env._now if tracer is not None else 0.0
        while True:
            if self._stream_count > 0:
                self._stream_count += 1
                break
            if self._stream_grant is None:
                grant = self._stream_grant = self.env.event()
                req = self._controller.request()
                try:
                    yield req
                except BaseException:
                    self._stream_grant = None
                    grant.succeed()
                    raise
                self._stream_req = req
                self._stream_count = 1
                self._stream_grant = None
                grant.succeed()
                break
            # Another stream is already queued for the controller: wait
            # for its grant, then re-check (it may have come and gone).
            yield self._stream_grant
        return DiskStream(self, nbytes, ops, t_request)

    def _release_stream(self) -> None:
        self._stream_count -= 1
        if self._stream_count == 0:
            req, self._stream_req = self._stream_req, None
            self._controller.release(req)

    def release_bytes(self, nbytes: int) -> None:
        """Account for object/file removal."""
        self.used_bytes = max(0, self.used_bytes - nbytes)

    @property
    def queue_len(self) -> int:
        return self._controller.queue_len

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class DiskStream:
    """An admitted bulk stream on a :class:`RaidDevice`.

    ``scale`` is the stream's jittered rate multiplier — multiply it into
    the disk share's coefficient when opening the fluid flow, so the
    stream drains at the same jittered effective bandwidth the exact
    per-chunk path would have averaged.
    """

    __slots__ = ("device", "nbytes", "ops", "scale", "_t_request", "_t_admit", "_closed")

    def __init__(self, device: RaidDevice, nbytes: int, ops: int, t_request: float) -> None:
        self.device = device
        self.nbytes = nbytes
        self.ops = ops
        self.scale = device.stream_scale(ops)
        self._t_request = t_request
        self._t_admit = device.env._now
        self._closed = False

    def close(self) -> None:
        """Account the stream and leave the shared controller hold.

        Call once the stream's fluid flow has completed; bytes and busy
        time are booked here (one bulk entry) instead of per chunk.
        """
        if self._closed:
            return
        self._closed = True
        dev = self.device
        service = self.scale * self.nbytes / dev.spec.bandwidth
        dev.busy_time += service
        dev.used_bytes += self.nbytes
        tracer = dev.env.tracer
        if tracer is not None:
            now = dev.env._now
            tracer.record(
                f"disk:{dev.name}", start=self._t_request, kind="disk",
                node=dev.node_id, op="write-stream",
                queue=self._t_admit - self._t_request,
                service=now - self._t_admit, bytes=self.nbytes,
            )
        dev._release_stream()
