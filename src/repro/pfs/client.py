"""POSIX-flavored client of the Lustre-like baseline.

Implements the two checkpoint access styles of §4:

* **file-per-process** — every rank creates its own 1-stripe file,
* **shared file** — one file striped over all OSTs; every rank writes its
  non-overlapping region, and the file system's consistency machinery
  (extent locks, §4's "the file system's consistency and synchronization
  semantics get in the way") extracts its toll at the OSTs.

Fragments move the way LWFS chunks do: through the LWFS client's
:func:`~repro.sim.client.pipelined` window, each buffer posted by
:func:`~repro.sim.client.posted`, with the OST pulling or pushing the
bytes itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..machine.node import Node
from ..network.portals import MemoryDescriptor, install_portals
from ..network.rpc import RpcClient
from ..storage.data import Piece, concat_pieces, piece_len, piece_slice
from ..sim.client import pipelined, posted
from ..sim.cluster import SimCluster
from .file import Inode, OpenFlags
from .striping import StripeLayout

__all__ = ["PFSFileHandle", "SimPFSClient"]


@dataclass
class PFSFileHandle:
    """An open file: inode + layout + the path it came from."""

    path: str
    inode: Inode
    flags: int
    #: Background MDS process draining a collapsed class's remaining
    #: create units (None outside symmetric-client collapsing).  Its
    #: value, once triggered, is the sim time the class's last create
    #: would have completed in an exact run.
    create_tail: Optional[object] = None

    @property
    def layout(self) -> StripeLayout:
        return self.inode.layout


class SimPFSClient:
    """Per-rank client endpoint for the baseline parallel file system."""

    def __init__(self, cluster: SimCluster, node: Node, deployment) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.node = node
        self.deployment = deployment
        self.config = cluster.config
        self.rpc = RpcClient(cluster.env, cluster.fabric, node)
        self.portals = install_portals(cluster.env, cluster.fabric, node)
        self.bytes_written = 0
        self.bytes_read = 0

    # -- helpers ---------------------------------------------------------------
    def _mds(self, op: str, **args):
        return self.rpc.call(
            self.deployment.mds_node_id, "mds", op, timeout=self.config.rpc_timeout, **args
        )

    def _ost(self, ost_id: int, op: str, **args):
        return self.rpc.call(
            self.deployment.ost_node_id(ost_id),
            f"ost{ost_id}",
            op,
            timeout=self.config.rpc_timeout,
            **args,
        )

    def _vfs(self):
        """Client-side kernel path cost per file-system call."""
        return self.node.compute(
            self.cluster.jitter(f"{self.node.name}.vfs", self.config.pfs.client_vfs_cpu)
        )

    # -- POSIX-ish surface (all generators) ------------------------------------------
    def create(self, path: str, stripe_count: int = 1, stripe_size: Optional[int] = None,
               weight: int = 1, ost_hint: Optional[int] = None):
        """creat(2): allocate the file at the MDS.

        ``weight`` > 1 (symmetric-client collapsing): this create stands
        for a class of *weight* identical file-per-process creates — the
        MDS charges CPU and journal commits for all of them but allocates
        one inode (the representative's).  ``ost_hint`` pins the layout's
        starting OST so weighted files tile the OSTs the way the class's
        individual files did in the exact run.
        """
        yield from self._vfs()
        inode = yield from self._mds(
            "create", path=path, stripe_count=stripe_count, stripe_size=stripe_size,
            weight=weight, ost_hint=ost_hint,
        )
        tail = getattr(inode, "create_tail", None)
        if tail is not None:
            del inode.create_tail
        return PFSFileHandle(
            path=path, inode=inode, flags=OpenFlags.WRONLY | OpenFlags.CREAT,
            create_tail=tail,
        )

    def open(self, path: str, flags: int = OpenFlags.RDONLY, weight: int = 1):
        yield from self._vfs()
        inode = yield from self._mds("open", path=path, flags=flags, weight=weight)
        return PFSFileHandle(path=path, inode=inode, flags=flags)

    def close(self, fh: PFSFileHandle, weight: int = 1):
        yield from self._vfs()
        yield from self._mds("close", ino=fh.inode.ino, size=fh.inode.size, weight=weight)
        return True

    def unlink(self, path: str):
        yield from self._vfs()
        inode = yield from self._mds("unlink", path=path)
        layout = inode.layout
        for idx, ost in enumerate(layout.osts):
            yield from self._ost(ost, "destroy", ino=inode.ino, stripe_index=idx)
        return True

    def write(self, fh: PFSFileHandle, offset: int, data: Piece,
              weight: int = 1, shared: bool = False):
        """pwrite(2): stripe-decompose and issue pipelined OST writes.

        ``weight`` > 1 (symmetric-client collapsing): each fragment stands
        for *weight* clients' equivalent fragments.  ``shared`` tells the
        OST whether those clients target the *same* object (shared-file
        pattern — they contend on its extent lock) or each their own
        (file-per-process — sole-writer fast path).
        """
        total = piece_len(data)
        frags = fh.layout.map_extent(offset, total)
        if (
            self.config.flow and not shared
            and len(frags) > 2 and len({f.ost_index for f in frags}) == 1
        ):
            # Flow-level path for sole-writer single-OST (file-per-process)
            # writes: the first fragment exact (VFS call, OST RPC,
            # extent-lock claim, per-fragment disk write), then every other
            # fragment in ONE writev-style write whose pull rides a fluid
            # flow at the OST.
            first = frags[0]
            yield from self._write_fragment(
                fh, first, piece_slice(data, 0, first.length), weight
            )
            yield from self._write_fragment(
                fh, replace(frags[1], length=total - first.length),
                piece_slice(data, first.length, total), weight, n_chunks=len(frags) - 1,
            )
        else:
            # A representative keeps the whole class's fragments in flight
            # (the class collectively had weight * depth outstanding), so
            # the OSTs its classmates would have kept busy stay busy.
            yield from pipelined(
                self.env, weight * self.config.pipeline_depth,
                (
                    self._write_fragment(
                        fh, frag,
                        piece_slice(data, frag.file_offset - offset,
                                    frag.file_offset - offset + frag.length),
                        weight, shared,
                    )
                    for frag in frags
                ),
            )
        end = offset + total
        if end > fh.inode.size:
            fh.inode.size = end
        self.bytes_written += total
        return total

    def _write_fragment(self, fh, frag, piece, weight=1, shared=False, n_chunks=1):
        yield from self._vfs()
        yield from posted(
            self.portals, MemoryDescriptor(length=frag.length, payload=piece),
            self._ost, fh.layout.osts[frag.ost_index], "write",
            ino=fh.inode.ino, stripe_index=frag.ost_index,
            offset=frag.object_offset, length=frag.length,
            client_id=self.node.node_id, weight=weight, shared=shared, n_chunks=n_chunks,
        )

    def read(self, fh: PFSFileHandle, offset: int, length: int, weight: int = 1):
        """pread(2): gather fragments from the OSTs, pipelined.

        ``weight`` > 1 (symmetric-client collapsing): each fragment read
        stands for *weight* clients' identical reads.
        """
        pieces = yield from pipelined(
            self.env, weight * self.config.pipeline_depth,
            (self._read_fragment(fh, frag, weight) for frag in fh.layout.map_extent(offset, length)),
        )
        self.bytes_read += length
        return concat_pieces(pieces)

    def _read_fragment(self, fh, frag, weight=1):
        yield from self._vfs()
        return (yield from posted(
            self.portals, MemoryDescriptor(length=frag.length),
            self._ost, fh.layout.osts[frag.ost_index], "read",
            ino=fh.inode.ino, stripe_index=frag.ost_index,
            offset=frag.object_offset, length=frag.length, weight=weight,
        ))

    def fsync(self, fh: PFSFileHandle, weight: int = 1):
        """fsync(2): flush every OST the file stripes over.

        One rank's fsync visits the OSTs serially; *weight* collapsed
        ranks' serial loops overlap each other across OSTs, so the
        representative fans the weighted syncs out concurrently — each
        OST still serializes its ``weight`` flushes on the device, but
        the wall time is the per-OST drain, not the sum over OSTs.
        """
        if weight > 1 and len(fh.layout.osts) > 1:
            procs = [
                self.env.process(
                    self._fsync_ost(ost, fh.inode.ino, weight),
                    name=f"pfsfsync:{fh.inode.ino}:{ost}",
                )
                for ost in fh.layout.osts
            ]
            yield self.env.all_of(procs)
            for proc in procs:
                if isinstance(proc.value, BaseException):
                    raise proc.value
        else:
            for idx, ost in enumerate(fh.layout.osts):
                yield from self._ost(ost, "sync", ino=fh.inode.ino, weight=weight)
        yield from self._mds("set_size", path=fh.path, size=fh.inode.size, weight=weight)
        return True

    def _fsync_ost(self, ost: int, ino: int, weight: int):
        try:
            yield from self._ost(ost, "sync", ino=ino, weight=weight)
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            return exc

    def stat(self, path: str):
        yield from self._vfs()
        return (yield from self._mds("stat", path=path))
