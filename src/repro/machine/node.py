"""Runtime node objects instantiated from a :class:`MachineSpec`."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import NodeFailure
from ..simkernel import Environment, Resource
from .spec import NodeKind, NodeSpec, OSKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.nic import NIC
    from ..storage.device import RaidDevice

__all__ = ["Node"]


class Node:
    """A single node of the simulated machine.

    A node owns a CPU (modeled as a multi-slot resource charged for
    protocol processing), a NIC, and optionally a storage device (I/O
    nodes).  Nodes can be *killed* for failure-injection experiments; a
    dead node's NIC drops traffic and its servers stop.

    The CPU and the NIC are built on first touch (:meth:`__getattr__`), so
    a machine of 10^4 nodes of which a few hundred carry traffic holds
    simulator state for those few hundred only.
    """

    #: Multi-slot resource charged for protocol processing.
    cpu: Resource
    #: The network interface (:class:`~repro.network.nic.NIC`).
    nic: "NIC"

    def __init__(self, env: Environment, node_id: int, spec: NodeSpec, name: str = "") -> None:
        self.env = env
        self.node_id = node_id
        self.spec = spec
        self.name = name or f"{spec.kind.value}{node_id}"
        self.alive = True
        self.storage: Optional["RaidDevice"] = None  # attached by deployment

    def __getattr__(self, name: str):
        # Reached only while ``cpu`` or ``nic`` is not yet an instance
        # attribute: build it once and store it, so every later read is a
        # plain attribute lookup.
        if name == "cpu":
            cpu = self.cpu = Resource(self.env, capacity=self.spec.cpu.cores)
            return cpu
        if name == "nic":
            from ..network.nic import NIC  # import cycle: network imports machine

            nic = self.nic = NIC(self.env, self)
            return nic
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    # -- convenience -------------------------------------------------------
    @property
    def kind(self) -> NodeKind:
        return self.spec.kind

    @property
    def is_lightweight(self) -> bool:
        return self.spec.os is OSKind.LIGHTWEIGHT

    def check_alive(self) -> None:
        if not self.alive:
            raise NodeFailure(f"node {self.name} is down")

    def kill(self) -> None:
        """Fail the node (failure injection): traffic drops immediately."""
        self.alive = False

    def revive(self) -> None:
        """Bring the node back (reboot).  In-memory runtime state is the
        caller's responsibility to recover (see SimStorageServer.reboot)."""
        self.alive = True

    def compute(self, duration: float):
        """Occupy one CPU core for *duration* seconds (a generator).

        Usage inside a process::

            yield from node.compute(cost)
        """
        if duration <= 0:
            return
        with self.cpu.request() as req:
            yield req
            yield self.env.timeout(duration)

    def msg_overhead_time(self) -> float:
        """Host CPU time to process one message send/receive."""
        return self.spec.cpu.msg_overhead

    def copy_overhead_time(self, nbytes: int) -> float:
        """Host CPU time for copying *nbytes* (zero on RDMA-capable NICs)."""
        if self.spec.nic.rdma:
            return 0.0
        return nbytes * self.spec.cpu.byte_overhead

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "up" if self.alive else "DOWN"
        return f"<Node {self.name} ({self.spec.kind.value}, {status})>"
