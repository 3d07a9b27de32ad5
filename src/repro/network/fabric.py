"""The interconnect fabric: message delivery between nodes.

A transfer from node A to node B:

1. pays A's per-message host overhead (small on lightweight kernels),
2. holds A's transmit pipe and B's receive pipe for ``size / min(bw)``
   (store-and-forward is not modeled; the slower endpoint governs),
3. experiences wire latency (base + per-hop for mesh topologies),
4. pays B's per-message host overhead, then delivers.

The pipe hold is one :meth:`~repro.simkernel.Resource.hold`: free pipes
are claimed at once, busy ones are queued for, and an interrupted
transfer gives both back.

Transfers to a dead node fail with :class:`~repro.errors.NodeFailure`,
which is how failure-injection experiments observe lost servers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import LinkDown, NetworkError, NodeFailure
from ..machine.node import Node
from ..machine.topology import Topology, make_topology
from ..simkernel import Environment

__all__ = ["Message", "Fabric"]


@dataclass(slots=True)
class Message:
    """An in-flight message.  ``payload`` rides by reference (simulation)."""

    src: int
    dst: int
    size: int
    tag: str = ""
    payload: Any = None
    meta: Dict[str, Any] = field(default_factory=dict)


class Fabric:
    """Connects :class:`~repro.machine.node.Node` objects into a network."""

    #: Wire size charged for zero-byte control messages (headers).
    MIN_WIRE_BYTES = 64

    #: Messages at or below this size use the control virtual channel and
    #: never queue behind bulk transfers (packet-level multiplexing).
    CONTROL_LANE_MAX = 4096

    def __init__(
        self,
        env: Environment,
        topology: str = "crossbar",
        hop_latency: float = 0.0,
        n_nodes_hint: Optional[int] = None,
    ) -> None:
        self.env = env
        self._topology_name = topology
        self.hop_latency = hop_latency
        self._nodes: Dict[int, Node] = {}
        self._topology: Optional[Topology] = None
        self._n_nodes_hint = n_nodes_hint
        self.counters = Counter()
        self._flow_network = None

    @property
    def flows(self):
        """The fabric's flow-level engine (:mod:`repro.network.flow`),
        created on first use.  Only the opt-in stream data path touches
        it; exact chunked transfers never do."""
        if self._flow_network is None:
            from .flow import FlowNetwork

            self._flow_network = FlowNetwork.of(self.env)
        return self._flow_network

    # -- membership ---------------------------------------------------------
    def attach(self, node: Node) -> None:
        """Attach *node* to the fabric.  Its NIC is built on first use."""
        if node.node_id in self._nodes:
            raise ValueError(f"node id {node.node_id} already attached")
        self._nodes[node.node_id] = node
        self._topology = None  # re-derive lazily for the new size

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node id {node_id}") from None

    @property
    def topology(self) -> Topology:
        if self._topology is None:
            size = self._n_nodes_hint or (max(self._nodes) + 1 if self._nodes else 1)
            self._topology = make_topology(self._topology_name, size)
        return self._topology

    # -- latency model --------------------------------------------------------
    def wire_latency(self, src: int, dst: int) -> float:
        """Propagation latency between two attached nodes.

        Both endpoints resolve through :meth:`node`, so an unattached id
        raises :class:`~repro.errors.NetworkError` (not a bare KeyError).
        """
        base = self.node(src).spec.nic.latency
        if src == dst:
            return 0.0
        self.node(dst)  # validate the destination is attached too
        hops = self.topology.hops(src, dst)
        return base + self.hop_latency * max(0, hops - 1)

    # -- transfer ---------------------------------------------------------------
    def transfer(self, msg: Message):
        """Move *msg* across the fabric (``yield from``; returns *msg*).

        The transfer runs inside the caller's process, so an interrupt of
        that process reaches it directly and gives its pipes back.  It
        raises :class:`NodeFailure` if either endpoint dies before
        delivery.
        """
        env = self.env
        src = self.node(msg.src)
        dst = self.node(msg.dst)
        src.check_alive()

        # The span covers the whole transfer, queueing included.
        tracer = env.tracer
        t0 = env._now if tracer is not None else 0.0

        wire_bytes = max(int(msg.size), self.MIN_WIRE_BYTES)
        mult = msg.meta.get("mult", 1)
        # ``fanout`` flips the weighted-transfer asymmetry: one sender
        # serving a whole collapsed class (server-push reads) instead of
        # a whole class converging on one receiver (pulled writes).
        fanout = mult > 1 and msg.meta.get("fanout", False)

        # Sender host overhead (header build, matching; copies if no RDMA).
        # A collapsed representative only builds/copies its own share; its
        # classmates did theirs in parallel.  A fanout sender builds and
        # copies every class member's message itself.
        if fanout:
            send_cost = mult * src.msg_overhead_time() + src.copy_overhead_time(wire_bytes)
        else:
            send_cost = src.msg_overhead_time() + src.copy_overhead_time(
                wire_bytes // mult if mult > 1 else wire_bytes
            )
        if send_cost > 0:
            yield env.timeout(send_cost)

        # Same-node delivery: memory copy only, no NIC serialization.
        if msg.src != msg.dst:
            control = wire_bytes <= self.CONTROL_LANE_MAX
            tx_pipe = src.nic.ctl_tx if control else src.nic.tx
            rx_pipe = dst.nic.ctl_rx if control else dst.nic.rx
            rate = min(tx_pipe.bandwidth, rx_pipe.bandwidth)
            duration = wire_bytes / rate

            faults = env.faults
            if faults is not None:
                if faults.blocked(msg.src, msg.dst):
                    raise LinkDown(
                        f"partition: node {msg.src} cannot reach node {msg.dst}"
                    )
                factor = faults.link_factor(msg.src, msg.dst)
                if factor < 1.0:
                    duration /= factor

            if mult > 1:
                # Symmetric-client collapsing: this transfer stands for
                # ``mult`` transfers of *different* class members.  In the
                # default (converge) orientation, ``mult`` senders target
                # one receiver: the receiver's pipe serializes all of
                # them, but the representative's own NIC only ever
                # carried its share — the classmates' NICs transmitted
                # the rest in parallel in the exact run.  In the fanout
                # orientation (server-push reads) the roles swap: one
                # sender serializes the whole class while the receiving
                # representative's NIC only carries its share.
                share = duration / mult
                full_pipe, part_pipe = (tx_pipe, rx_pipe) if fanout else (rx_pipe, tx_pipe)
                with full_pipe._slot.request() as full_req:
                    yield full_req
                    start = env.now
                    part_start = yield from part_pipe._slot.hold(share)
                    part_pipe.bytes_moved += wire_bytes // mult
                    part_pipe.busy_time += env.now - part_start
                    yield env.timeout(duration - share)
                    full_pipe.bytes_moved += wire_bytes
                    full_pipe.busy_time += env.now - start
            else:
                # Hold both endpoint pipes for the serialization time so
                # that contention at either end throttles the transfer.
                start = yield from tx_pipe._slot.hold(duration, rx_pipe._slot)
                for pipe in (tx_pipe, rx_pipe):
                    pipe.bytes_moved += wire_bytes
                    pipe.busy_time += env.now - start

            yield env.timeout(self.wire_latency(msg.src, msg.dst))
        else:
            yield env.timeout(wire_bytes / (4 * src.nic.tx.bandwidth))

        if not dst.alive:
            raise NodeFailure(f"node {dst.name} died before delivery of {msg.tag!r}")

        if mult > 1 and msg.src != msg.dst:
            if fanout:
                # The representative receives only its own message.
                recv_cost = dst.msg_overhead_time() + dst.copy_overhead_time(
                    wire_bytes // mult
                )
            else:
                # The receiver handled all ``mult`` incoming messages.
                recv_cost = mult * dst.msg_overhead_time() + dst.copy_overhead_time(
                    wire_bytes
                )
        else:
            recv_cost = dst.msg_overhead_time() + dst.copy_overhead_time(wire_bytes)
        if recv_cost > 0:
            yield env.timeout(recv_cost)

        # Under symmetric-client collapsing a single transfer may stand in
        # for a whole equivalence class; the sender stamps the class size
        # in msg.meta["mult"] so message counts stay truthful (bytes scale
        # through the weighted size already).
        self.counters["messages"] += mult
        self.counters["bytes"] += wire_bytes
        if tracer is not None:
            # Strip hex match-bits from portals tags: those come from
            # process-global counters, and keeping them would make traces
            # differ between otherwise-identical runs.
            op = msg.tag
            cut = op.find(":0x")
            if cut >= 0:
                op = op[:cut]
            tracer.record(
                f"xfer:{op}" if op else "xfer", start=t0, kind="xfer",
                node=msg.src, op=op or None, dst=msg.dst, bytes=wire_bytes,
            )
        return msg
