"""Instantiate a simulated machine from a :class:`MachineSpec`.

A :class:`SimCluster` owns the environment, the fabric, and the node
objects, and hands out nodes by role.  Deployments (LWFS, the PFS
baseline) place their servers on I/O and service nodes and application
ranks on compute nodes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..machine.node import Node
from ..machine.spec import MachineSpec, NodeKind
from ..simkernel import Environment, RandomStreams
from ..network.fabric import Fabric
from ..storage.device import RaidDevice
from .config import RunOptions, SimConfig

__all__ = ["SimCluster"]


class SimCluster:
    """The simulated machine: environment + fabric + nodes.

    Node ids are assigned contiguously: service nodes first, then I/O
    nodes, then compute nodes (so small experiments keep small id spaces
    and mesh coordinates put service/I/O nodes in one corner, as Red
    Storm does).  ``options.flow`` turns on the config's flow-level data
    path.
    """

    def __init__(
        self,
        spec: MachineSpec,
        config: Optional[SimConfig] = None,
        compute_nodes: Optional[int] = None,
        io_nodes: Optional[int] = None,
        service_nodes: Optional[int] = None,
        options: Optional[RunOptions] = None,
    ) -> None:
        self.spec = spec
        self.config = config or SimConfig()
        if options is not None and options.flow:
            self.config = replace(self.config, flow=True)
        self.env = Environment()
        self.rng = RandomStreams(self.config.seed)

        n_service = service_nodes if service_nodes is not None else spec.service_nodes
        n_io = io_nodes if io_nodes is not None else spec.io_nodes
        n_compute = compute_nodes if compute_nodes is not None else spec.compute_nodes
        total = n_service + n_io + n_compute

        self.fabric = Fabric(
            self.env,
            topology=spec.topology,
            hop_latency=spec.hop_latency,
            n_nodes_hint=total,
        )

        self.service_nodes: List[Node] = []
        self.io_nodes: List[Node] = []
        self.compute_nodes: List[Node] = []
        self._by_id: Dict[int, Node] = {}

        nid = 0
        for _ in range(n_service):
            nid = self._add(nid, NodeKind.SERVICE)
        for _ in range(n_io):
            nid = self._add(nid, NodeKind.IO)
        for _ in range(n_compute):
            nid = self._add(nid, NodeKind.COMPUTE)

    def _add(self, nid: int, kind: NodeKind) -> int:
        node_spec = self.spec.spec_for(kind)
        node = Node(self.env, nid, node_spec)
        self.fabric.attach(node)
        self._by_id[nid] = node
        {
            NodeKind.SERVICE: self.service_nodes,
            NodeKind.IO: self.io_nodes,
            NodeKind.COMPUTE: self.compute_nodes,
        }[kind].append(node)
        return nid + 1

    # -- accessors ------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self._by_id[node_id]

    @property
    def n_nodes(self) -> int:
        return len(self._by_id)

    def make_raid(self, node: Node, name: str, bandwidth: Optional[float] = None) -> RaidDevice:
        """Attach a RAID volume to *node* using its kind's storage spec.

        Storage nodes may host several servers (the dev cluster ran two
        OSTs per node), each with its *own* volume, so this returns a new
        device per call rather than caching one per node.
        """
        storage_spec = node.spec.storage
        if storage_spec is None:
            raise ValueError(f"node {node.name} has no storage spec")
        if bandwidth is not None:
            from dataclasses import replace

            storage_spec = replace(storage_spec, bandwidth=bandwidth)
        return RaidDevice(
            self.env,
            storage_spec,
            name=name,
            rng=self.rng,
            jitter=self.config.cost_jitter,
            node_id=node.node_id,
        )

    def jitter(self, stream: str, mean: float) -> float:
        """Jittered service cost (deterministic per seed)."""
        return self.rng.jitter(stream, mean, self.config.cost_jitter)

    def run(self, until=None):
        return self.env.run(until)
