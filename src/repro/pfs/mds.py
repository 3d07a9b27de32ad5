"""The centralized metadata server of the Lustre-like baseline.

Every create, open, and close is an RPC to this one node; creates also
commit a journal record to the MDS disk.  This serialization is the
bottleneck the paper quantifies in Figure 10: "operations to a
centralized metadata server are inherently unscalable".
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import FileExists, PFSError
from ..machine.node import Node
from ..simkernel import Resource
from ..storage.device import RaidDevice
from .file import Inode, OpenFlags, PFSNamespace
from .striping import StripeLayout

__all__ = ["SimMDS"]

from ..sim.servers import _SimServerBase


class SimMDS(_SimServerBase):
    """Metadata server: namespace + open-state + journaled creates."""

    service_name = "mds"

    def __init__(self, cluster, node: Node, n_osts: int, default_stripe_size: int) -> None:
        super().__init__(cluster, node)
        self.namespace = PFSNamespace()
        self.n_osts = n_osts
        self.default_stripe_size = default_stripe_size
        self.device: RaidDevice = cluster.make_raid(node, name="mds-journal")
        #: metadata ops serialize through the MDS service threads; Lustre's
        #: MDS of this era effectively single-threaded updates per directory.
        self.md_threads = Resource(cluster.env, capacity=1)
        self._next_ost = 0
        self.open_count = 0
        costs = self.config.pfs
        reg = self.rpc.register

        def create(ctx, path, stripe_count=1, stripe_size=None, owner="", weight=1,
                   ost_hint=None):
            """Create + open: allocate the inode and its OST layout.

            ``weight`` > 1 (symmetric-client collapsing): this request
            stands for a class of *weight* file-per-process creates.  In
            the exact run those creates interleave with every other
            class's in the MDS queue, so the class's *first* create
            completes after roughly one queue pass and that member starts
            writing immediately.  We reproduce that: the representative
            pays for ONE create synchronously and returns, while the
            remaining ``weight - 1`` units drain through the MDS as a
            background process (FIFO puts them after every class's first
            unit — the same wave order as the exact run).  The tail
            process rides back on ``inode.create_tail`` so the caller can
            observe when the class's last create would have finished.

            ``ost_hint`` pins the layout's starting OST *without*
            consuming the arrival-order allocator: hinted class
            representatives tile the OSTs deterministically, which
            reproduces the exact run's files-per-OST balance, while
            unhinted creates still draw from the round-robin allocator
            exactly as before.
            """
            yield from self.cpu("lookup", costs.mds_lookup)
            with self.md_threads.request() as slot:
                yield slot
                yield from self.cpu("create", costs.mds_create_cpu)
                # Journal commit for the namespace update (ext3-style).
                yield from self.device.meta_op()
                layout = self._make_layout(stripe_count, stripe_size, ost_hint)
                inode = self.namespace.create(path, layout, owner=owner)
            self.open_count += weight
            if weight > 1:
                inode.create_tail = self.env.process(
                    self._create_tail(weight - 1), name=f"mds-create-tail:{path}"
                )
            return inode

        def open_(ctx, path, flags=OpenFlags.RDONLY, weight=1):
            yield from self.cpu("lookup", weight * costs.mds_lookup)
            with self.md_threads.request() as slot:
                yield slot
                yield from self.cpu("open", weight * costs.mds_open_cpu)
                inode = self.namespace.lookup(path)
            self.open_count += weight
            return inode

        def close(ctx, ino, size, weight=1):
            yield from self.cpu("close", weight * costs.mds_close_cpu)
            # Size update piggybacks on close (Lustre SOM-less behavior).
            return True

        def set_size(ctx, path, size, weight=1):
            yield from self.cpu("setattr", weight * costs.mds_open_cpu)
            inode = self.namespace.lookup(path)
            self.namespace.update_size(inode, size)
            return True

        def stat(ctx, path):
            yield from self.cpu("lookup", costs.mds_lookup)
            return self.namespace.lookup(path)

        def unlink(ctx, path):
            yield from self.cpu("lookup", costs.mds_lookup)
            with self.md_threads.request() as slot:
                yield slot
                yield from self.cpu("unlink", costs.mds_create_cpu)
                yield from self.device.meta_op()
                return self.namespace.unlink(path)

        reg("create", create)
        reg("open", open_)
        reg("close", close)
        reg("set_size", set_size)
        reg("stat", stat)
        reg("unlink", unlink)

    def _create_tail(self, n_units: int):
        """The rest of a collapsed class's creates, one MDS unit each."""
        costs = self.config.pfs
        for _ in range(n_units):
            yield from self.cpu("lookup", costs.mds_lookup)
            with self.md_threads.request() as slot:
                yield slot
                yield from self.cpu("create", costs.mds_create_cpu)
                yield from self.device.meta_op()
        return self.env.now

    def _make_layout(
        self, stripe_count: int, stripe_size: Optional[int], ost_hint: Optional[int] = None
    ) -> StripeLayout:
        if not 1 <= stripe_count <= self.n_osts:
            raise PFSError(f"stripe_count {stripe_count} outside 1..{self.n_osts}")
        size = stripe_size or self.default_stripe_size
        if ost_hint is not None:
            start = ost_hint % self.n_osts
        else:
            start = self._next_ost
            self._next_ost = (self._next_ost + stripe_count) % self.n_osts
        osts = tuple((start + i) % self.n_osts for i in range(stripe_count))
        return StripeLayout(stripe_size=size, osts=osts)
