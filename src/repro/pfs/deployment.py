"""Deploy the Lustre-like baseline onto a simulated cluster.

Placement mirrors the paper's setup: the MDS on the service node (the
same node LWFS uses for its metadata/authorization services) and OSTs
round-robin across the storage nodes, two per node when the OST count
exceeds the node count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..machine.node import Node
from ..sim.cluster import SimCluster
from .client import SimPFSClient
from .mds import SimMDS
from .ost import SimOST

__all__ = ["PFSDeployment"]


class PFSDeployment:
    """MDS + OSTs, wired and started, plus client factories."""

    def __init__(
        self,
        cluster: SimCluster,
        n_osts: Optional[int] = None,
        default_stripe_size: Optional[int] = None,
    ) -> None:
        self.cluster = cluster
        if not cluster.service_nodes:
            raise ValueError("cluster needs a service node for the MDS")
        if not cluster.io_nodes:
            raise ValueError("cluster needs I/O nodes for the OSTs")
        n = n_osts if n_osts is not None else len(cluster.io_nodes)
        stripe = default_stripe_size or cluster.config.chunk_bytes

        self.mds = SimMDS(cluster, cluster.service_nodes[0], n_osts=n, default_stripe_size=stripe)
        self.osts: List[SimOST] = []
        for ost_id in range(n):
            node = cluster.io_nodes[ost_id % len(cluster.io_nodes)]
            self.osts.append(SimOST(cluster, node, ost_id=ost_id))

        self._clients: Dict[int, SimPFSClient] = {}

    @property
    def mds_node_id(self) -> int:
        return self.mds.node_id

    @property
    def n_osts(self) -> int:
        return len(self.osts)

    def ost_node_id(self, ost_id: int) -> int:
        return self.osts[ost_id].node_id

    def client(self, node: Node) -> SimPFSClient:
        existing = self._clients.get(node.node_id)
        if existing is None:
            existing = SimPFSClient(self.cluster, node, self)
            self._clients[node.node_id] = existing
        return existing

    def lock_switches(self) -> int:
        return sum(ost.lock_switches for ost in self.osts)
