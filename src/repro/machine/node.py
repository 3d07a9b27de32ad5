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
    #: When ``alive`` last changed (see :meth:`alive_at`); a class default
    #: until the first change, so a never-failed node stores nothing.
    _changed_at = float("-inf")

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

    def alive_at(self, t: float) -> bool:
        """Whether the node was up at time *t*, not later than now.

        Exact when the node changed state at most once since *t*: the
        fabric asks about the start of a message's receive overhead,
        microseconds ago, and a crash or reboot lasts far longer.
        """
        return self.alive if self._changed_at <= t else not self.alive

    def kill(self) -> None:
        """Fail the node (failure injection): traffic drops immediately."""
        if self.alive:
            self.alive = False
            self._changed_at = self.env.now

    def revive(self) -> None:
        """Bring the node back (reboot).  In-memory runtime state is the
        caller's responsibility to recover (see SimStorageServer.reboot)."""
        if not self.alive:
            self.alive = True
            self._changed_at = self.env.now

    def compute(self, duration: float):
        """Occupy one CPU core for *duration* seconds.

        Usage inside a process::

            yield from node.compute(cost)

        This is :meth:`Resource.hold` on the CPU; a non-positive
        *duration* returns an empty iterable and holds nothing.
        """
        if duration <= 0:
            return ()
        return self.cpu.hold(duration)

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
