"""Burst-buffered checkpointer front-ends (ROADMAP item 2).

Two :class:`~repro.iolib.api.Checkpointer` implementations that keep the
whole Figure 8 protocol (container/caps acquisition, per-rank creates,
rank-0 metadata + naming, optional 2PC) but dump state through the
absorb-then-drain tier (:mod:`repro.storage.buffer`) instead of straight
to the storage servers:

* :class:`BufferedLWFSCheckpointer` — NVRAM pool (``mode: buffer``,
  node-local or shared placement): the dump phase lands at absorb speed,
  the sync phase is free (NVRAM is durable on landing), and the backing
  write + sync happen per drain batch in the background.
* :class:`HostLogLWFSCheckpointer` — append-only host-side log
  (``mode: hostlog``): same absorb discipline, but the log survives a
  buffer-node crash, so un-drained extents are re-driven on reboot
  instead of lost.

Restart serves whatever has not drained yet straight from the buffer and
the already-drained prefix from the backing object — unless a crash
dropped un-drained extents (``buffer`` mode), in which case the restart
raises :class:`~repro.iolib.checkpoint.CheckpointError`, which is the
measured cost of crashing mid-drain.
"""

from __future__ import annotations

from ..parallel.app import RankContext
from ..storage.data import concat_pieces
from .checkpoint import CheckpointError, LWFSCheckpointer

__all__ = ["BufferedLWFSCheckpointer", "HostLogLWFSCheckpointer"]


class BufferedLWFSCheckpointer(LWFSCheckpointer):
    """LWFS checkpointing through the NVRAM absorb-then-drain tier.

    ``transactional`` defaults to ``False``: the absorb decouples the
    dump from the commit window, so the 2PC would cover only the creates
    and metadata while the data drains afterwards — the tier's durability
    story (NVRAM landing + per-batch backing sync) replaces it.
    """

    MODE = "buffer"

    def __init__(self, deployment, runtime, transactional: bool = False, **kwargs) -> None:
        if runtime.mode != self.MODE:
            raise ValueError(
                f"{type(self).__name__} needs a tier with mode={self.MODE!r}, "
                f"got {runtime.mode!r}"
            )
        super().__init__(deployment, transactional=transactional, **kwargs)
        self.runtime = runtime

    def collapse_key(self, rank: int, state_bytes: int = 0):
        inner = super().collapse_key(rank, state_bytes)
        return self.runtime.collapse_key(rank, inner)

    # -- tier hooks -----------------------------------------------------------
    def _write_state(self, ctx: RankContext, client, sid: int, oid, state, txnid, mult: int):
        yield from self.runtime.absorb(ctx, self.cap, oid, sid, state)

    def _sync_state(self, ctx: RankContext, client, sid: int, mult: int):
        # NVRAM is durable on landing; the backing-store sync is charged
        # per drain batch in the background drainer instead.
        if False:  # pragma: no cover - keeps this a generator
            yield None

    def _read_back(self, ctx: RankContext, client, oid, payload: dict,
                   read_retries: int, retry_delay: float):
        rt = self.runtime
        if rt.lost(oid):
            raise CheckpointError(
                f"checkpoint data for rank {ctx.rank} (object {oid.value}) was "
                "lost in a buffer-node crash before it drained"
            )
        # Snapshot before the first yield: everything NOT pending here has
        # completed its backing write.  Concurrent drain workers mean the
        # drained set need not be an offset prefix, so reconstruction goes
        # range-by-range: pending ranges from the buffer snapshot, the
        # gaps between them from the backing object.
        pend = [(e.offset, e.length, e.data) for e in rt.pending_extents(oid)]
        if not pend:
            # Fully drained: exactly the direct path's bulk read-back.
            state = yield from super()._read_back(
                ctx, client, oid, payload, read_retries, retry_delay
            )
            return state
        buf = rt.buffer_for(ctx)
        yield from buf.read_back(
            oid, sum(length for _, length, _d in pend),
            weight=ctx.multiplicity, dst_node=ctx.node,
        )
        pieces = []
        pos = 0
        for off, length, data in pend:
            if off > pos:
                piece = yield from self._read_range(
                    ctx, client, oid, pos, off - pos, read_retries, retry_delay
                )
                pieces.append(piece)
            pieces.append(data)
            pos = off + length
        if pos < payload["size"]:
            piece = yield from self._read_range(
                ctx, client, oid, pos, payload["size"] - pos, read_retries, retry_delay
            )
            pieces.append(piece)
        return concat_pieces(pieces)

    def _read_range(self, ctx: RankContext, client, oid, offset: int, length: int,
                    read_retries: int, retry_delay: float):
        attempt = 0
        while True:
            try:
                piece = yield from client.read(
                    self.cap, oid, offset, length, weight=ctx.multiplicity
                )
                return piece
            except Exception:
                attempt += 1
                if attempt > read_retries:
                    raise
                yield ctx.env.timeout(retry_delay)


class HostLogLWFSCheckpointer(BufferedLWFSCheckpointer):
    """Node-local host-side-logging variant (iFast/ParaLog lineage).

    Absorbs are append-only log writes; the drainer pays a reorder op per
    extent, and a crash re-drives the un-drained log tail instead of
    losing it (the log lives on local durable media).
    """

    MODE = "hostlog"
