"""Network interfaces: a duplex pair of bandwidth-serialized pipes."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..simkernel import Environment
from .link import Pipe

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.node import Node

__all__ = ["NIC"]


class NIC:
    """A node's network interface.

    ``tx`` serializes outbound traffic, ``rx`` inbound traffic.  Bulk
    transfers hold *both* endpoints' pipes for the serialization time, so
    the slower of the two rates governs — and a hot receiver (one storage
    server fed by dozens of clients) queues senders, which is precisely the
    congestion the server-directed transfer discipline (Fig. 6) avoids
    creating in the first place.

    Built on the node's first read of ``nic``, so nodes that never carry
    traffic hold no pipes.
    """

    def __init__(self, env: Environment, node: "Node") -> None:
        self.env = env
        self.node = node
        spec = node.spec.nic
        self.bandwidth = spec.bandwidth
        self.latency = spec.latency
        self.rdma = spec.rdma
        self.tx = Pipe(env, spec.bandwidth, name=f"{node.name}.tx")
        self.rx = Pipe(env, spec.bandwidth, name=f"{node.name}.rx")
        # Small control messages ride a separate virtual channel (Portals /
        # Myrinet-style), so an RPC never queues behind a multi-megabyte
        # bulk transfer.  Their bandwidth share is negligible (<1%).
        self.ctl_tx = Pipe(env, spec.bandwidth, name=f"{node.name}.ctl_tx")
        self.ctl_rx = Pipe(env, spec.bandwidth, name=f"{node.name}.ctl_rx")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NIC {self.node.name} bw={self.bandwidth:.3g}B/s>"
