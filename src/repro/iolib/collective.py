"""A minimal MPI-IO-flavored parallel-file layer over the LWFS-core.

The paper's future work (§6) proposes implementing "commonly used I/O
libraries like MPI-I/O, HDF-5, and PnetCDF directly on top of the LWFS
core", bypassing the general-purpose file system.  This module is that
idea in miniature: a *parallel file* is a set of LWFS objects (one per
storage server chosen by a distribution policy) plus a metadata object
describing the striping — created once, then accessed with
``write_at`` / ``read_at`` from any rank **without locks**, because the
library (not the file system) guarantees writers don't overlap.

All methods are generators for use inside simulation processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

from ..lwfs.capabilities import Capability
from ..lwfs.ids import ObjectID
from ..parallel.app import RankContext
from ..pfs.striping import StripeLayout
from ..sim.client import SimLWFSClient
from ..storage.data import Piece, concat_pieces, piece_bytes, piece_len, piece_slice
from .datamap import DistributionPolicy, RoundRobin

__all__ = ["ParallelFile", "LWFSCollectiveIO"]


@dataclass
class ParallelFile:
    """An open parallel file: layout + the objects backing each stripe."""

    path: str
    layout: StripeLayout  # osts field holds *storage server ids*
    objects: List[ObjectID]  # parallel to layout.osts
    cap: Capability
    size: int = 0


class LWFSCollectiveIO:
    """Collective create/open/write/read over a deployment's servers."""

    def __init__(self, deployment, stripe_size: int = 1 << 22, placement: Optional[DistributionPolicy] = None) -> None:
        self.deployment = deployment
        self.stripe_size = stripe_size
        self.placement = placement or RoundRobin()

    def _client(self, ctx: RankContext) -> SimLWFSClient:
        return self.deployment.client(ctx.node)

    # -- collective create ------------------------------------------------------
    def create_all(
        self,
        ctx: RankContext,
        cap: Capability,
        path: str,
        stripe_count: Optional[int] = None,
    ):
        """Collectively create *path*.  Rank 0 creates the per-server
        objects and the metadata object; everyone gets the handle."""
        client = self._client(ctx)
        n_servers = self.deployment.n_servers
        count = stripe_count or n_servers
        if ctx.rank == 0:
            servers = [self.placement.place(i, n_servers) for i in range(count)]
            objects = []
            for sid in servers:
                oid = yield from client.create_object(cap, sid, attrs={"pfile": path})
                objects.append(oid)
            layout = StripeLayout(stripe_size=self.stripe_size, osts=tuple(servers))
            meta = {
                "stripe_size": self.stripe_size,
                "servers": servers,
                "objects": [o.value for o in objects],
            }
            md_sid = self.placement.place(count, n_servers)
            mdobj = yield from client.create_object(cap, md_sid, attrs={"pfile-meta": path})
            yield from client.write(cap, mdobj, json.dumps(meta).encode())
            yield from client.bind(path, mdobj)
            handle = ParallelFile(path=path, layout=layout, objects=objects, cap=cap)
        else:
            handle = None
        handle = yield from ctx.bcast(handle, nbytes=64 + 24 * count)
        return handle

    def open_all(self, ctx: RankContext, cap: Capability, path: str):
        """Collectively open an existing parallel file by name."""
        client = self._client(ctx)
        if ctx.rank == 0:
            mdobj = yield from client.lookup(path)
            attrs = yield from client.get_attrs(cap, mdobj)
            raw = yield from client.read(cap, mdobj, 0, attrs["size"])
            meta = json.loads(piece_bytes(raw).decode())
            objects = [
                ObjectID(value, server_hint=sid)
                for value, sid in zip(meta["objects"], meta["servers"])
            ]
            layout = StripeLayout(stripe_size=meta["stripe_size"], osts=tuple(meta["servers"]))
            handle = ParallelFile(path=path, layout=layout, objects=objects, cap=cap)
        else:
            handle = None
        handle = yield from ctx.bcast(handle, nbytes=512)
        return handle

    # -- independent data access (no locks: the library partitions) ------------------
    def write_at(self, ctx: RankContext, pf: ParallelFile, offset: int, data: Piece):
        """Write *data* at file *offset*; caller guarantees disjointness."""
        client = self._client(ctx)
        total = piece_len(data)
        for frag in pf.layout.map_extent(offset, total):
            piece = piece_slice(
                data, frag.file_offset - offset, frag.file_offset - offset + frag.length
            )
            oid = pf.objects[frag.ost_index]
            yield from client.write(pf.cap, oid, piece, offset=frag.object_offset)
        if offset + total > pf.size:
            pf.size = offset + total
        return total

    def read_at(self, ctx: RankContext, pf: ParallelFile, offset: int, length: int):
        client = self._client(ctx)
        pieces: List[Piece] = []
        for frag in pf.layout.map_extent(offset, length):
            oid = pf.objects[frag.ost_index]
            piece = yield from client.read(pf.cap, oid, frag.object_offset, frag.length)
            pieces.append(piece)
        return concat_pieces(pieces)

    # -- collective data access --------------------------------------------------------
    def write_at_all(self, ctx: RankContext, pf: ParallelFile, offset: int, data: Piece):
        """Collective write: every rank writes its block, then syncs.

        The rank's region is ``offset + rank * len(data)`` — the common
        block-partitioned pattern.  A barrier plus per-server sync gives
        the durability point MPI_File_sync would.
        """
        my_offset = offset + ctx.rank * piece_len(data)
        written = yield from self.write_at(ctx, pf, my_offset, data)
        yield from ctx.barrier()
        # One rank per server issues the sync (avoid m*n sync storms).
        for idx, sid in enumerate(pf.layout.osts):
            if idx % ctx.size == ctx.rank:
                yield from self._client(ctx).sync(sid)
        yield from ctx.barrier()
        return written

    def read_at_all(self, ctx: RankContext, pf: ParallelFile, offset: int, length: int):
        """Collective read of block-partitioned data (rank r gets block r)."""
        my_offset = offset + ctx.rank * length
        data = yield from self.read_at(ctx, pf, my_offset, length)
        yield from ctx.barrier()
        return data
