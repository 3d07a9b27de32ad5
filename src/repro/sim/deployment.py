"""Deploy a complete LWFS onto a simulated cluster (Figure 3).

Placement follows the paper's dev-cluster setup: one combined
authentication/authorization (+ naming, locks) service node, storage
servers spread round-robin across the I/O nodes (two per node when the
server count exceeds the node count, exactly like the two-OST-per-node
Lustre configuration), and application ranks on compute nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..lwfs.ids import IdFactory
from ..machine.node import Node
from .client import SimLWFSClient
from .cluster import SimCluster
from .servers import (
    SimAuthServer,
    SimAuthzServer,
    SimLockServer,
    SimNamingServer,
    SimStorageServer,
)

__all__ = ["LWFSDeployment"]


class LWFSDeployment:
    """All LWFS servers, wired and started, plus client factories."""

    def __init__(
        self,
        cluster: SimCluster,
        n_storage_servers: Optional[int] = None,
        users: Sequence[Tuple[str, str]] = (("alice", "alice-password"),),
        cache_enabled: bool = True,
        server_directed: bool = True,
        verify_mode: str = "cache",
    ) -> None:
        self.cluster = cluster
        self.server_directed = server_directed
        self.ids = IdFactory()
        if not cluster.service_nodes:
            raise ValueError("cluster needs at least one service node")
        service_node = cluster.service_nodes[0]

        self.auth = SimAuthServer(cluster, service_node)
        for name, password in users:
            self.auth.kerberos.add_principal(name, password)
        self.authz = SimAuthzServer(cluster, service_node, self.auth, ids=self.ids)
        self.naming = SimNamingServer(cluster, service_node)
        self.locks = SimLockServer(cluster, service_node)

        n_servers = n_storage_servers if n_storage_servers is not None else len(cluster.io_nodes)
        if not cluster.io_nodes:
            raise ValueError("cluster needs at least one I/O node")
        self.storage: List[SimStorageServer] = []
        for sid in range(n_servers):
            node = cluster.io_nodes[sid % len(cluster.io_nodes)]
            self.storage.append(
                SimStorageServer(
                    cluster,
                    node,
                    server_id=sid,
                    authz=self.authz,
                    cache_enabled=cache_enabled,
                    server_directed=server_directed,
                    verify_mode=verify_mode,
                )
            )

        self._clients: Dict[int, SimLWFSClient] = {}

    # -- addressing ------------------------------------------------------------
    @property
    def auth_node_id(self) -> int:
        return self.auth.node_id

    @property
    def authz_node_id(self) -> int:
        return self.authz.node_id

    @property
    def naming_node_id(self) -> int:
        return self.naming.node_id

    @property
    def locks_node_id(self) -> int:
        return self.locks.node_id

    @property
    def n_servers(self) -> int:
        return len(self.storage)

    def storage_node_id(self, server_id: int) -> int:
        return self.storage[server_id].node_id

    # -- clients -----------------------------------------------------------------
    def client(self, node: Node) -> SimLWFSClient:
        existing = self._clients.get(node.node_id)
        if existing is None:
            existing = SimLWFSClient(self.cluster, node, self)
            self._clients[node.node_id] = existing
        return existing

    # -- statistics ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        hits = sum(s.svc.cache.hits for s in self.storage)
        misses = sum(s.svc.cache.misses for s in self.storage)
        invalidations = sum(s.svc.cache.invalidations for s in self.storage)
        verifies = sum(s.verify_rpcs for s in self.storage)
        return {
            "hits": hits,
            "misses": misses,
            "invalidations": invalidations,
            "verify_rpcs": verifies,
        }
