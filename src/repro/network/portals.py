"""A simplified Portals 3.0-style one-sided messaging API (paper §3.2).

Portals is the zero-copy, one-sided messaging layer of Red Storm; LWFS uses
it for server-directed bulk movement: the client exposes a memory region
via a *match entry* on one of its *portals*, and the **server** issues a
``get`` (for writes) or ``put`` (for reads) against it when — and only
when — it has buffer space and disk bandwidth available.

Implemented subset:

* per-node portal tables indexed by portal number,
* match entries with (match_bits, ignore_bits) matching and optional
  use-once semantics,
* memory descriptors carrying a Python payload by reference plus a
  declared length (the simulated wire cost),
* event queues delivering ``PUT_END`` / ``GET_END`` / ``REPLY_END``
  events as :class:`~repro.simkernel.resources.Store` items,
* ``put``/``get`` (and the flow-level ``get_stream``) as generators:
  the initiator runs every transfer inside its own process with
  ``yield from``.  No transfer is wrapped in a process of its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import NetworkError
from ..machine.node import Node
from ..simkernel import Environment, Store
from .fabric import Fabric, Message
from .flow import fluid_of

__all__ = [
    "PtlEventKind",
    "PtlEvent",
    "MemoryDescriptor",
    "MatchEntry",
    "PortalTable",
    "PortalsEndpoint",
]


class PtlEventKind(enum.Enum):
    PUT_END = "put_end"  # a remote put landed in a local match entry
    GET_END = "get_end"  # a remote get drained a local match entry
    SEND_END = "send_end"  # local put hit the wire (initiator side)
    REPLY_END = "reply_end"  # data for a local get arrived (initiator side)


@dataclass(slots=True)
class PtlEvent:
    """An entry on a portals event queue."""

    kind: PtlEventKind
    initiator: int  # node id of the peer that caused the event
    match_bits: int
    length: int
    payload: Any = None
    hdr_data: Any = None
    offset: int = 0


@dataclass(slots=True)
class MemoryDescriptor:
    """A registered memory region.

    ``payload`` is the Python object standing in for the buffer contents
    (bytes, numpy array, or any picklable value).  ``length`` is the size in
    bytes charged on the wire.  ``eq`` is the event queue that receives
    this region's :class:`PtlEvent` entries: a :class:`Store`, or any
    object with a ``try_put(event)`` method, which the operation calls
    the moment it posts the event (an RPC service is its own request
    portal's queue and starts the request's handler there).
    """

    length: int
    payload: Any = None
    eq: Any = None

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length cannot be negative")


@dataclass(slots=True, eq=False)
class MatchEntry:
    """A match-list entry hanging off a portal.

    Compared by identity: two entries with equal fields are still two
    entries, and detaching one leaves the other in place.
    """

    match_bits: int
    md: MemoryDescriptor
    ignore_bits: int = 0
    use_once: bool = False
    unlinked: bool = False

    def matches(self, bits: int) -> bool:
        if self.unlinked:
            return False
        mask = ~self.ignore_bits
        return (self.match_bits & mask) == (bits & mask)


class PortalTable:
    """The list of match entries attached to one portal index."""

    def __init__(self) -> None:
        self.entries: List[MatchEntry] = []

    def attach(self, me: MatchEntry) -> MatchEntry:
        self.entries.append(me)
        return me

    def detach(self, me: MatchEntry) -> None:
        me.unlinked = True
        try:
            self.entries.remove(me)
        except ValueError:
            pass

    def match(self, bits: int) -> Optional[MatchEntry]:
        for me in self.entries:
            if me.matches(bits):
                if me.use_once:
                    self.detach(me)
                return me
        return None


class _PortalTables(dict):
    """Portal index -> :class:`PortalTable`, built on first use of an index.

    An index outside ``range(n_portals)`` raises :class:`KeyError`, as a
    fully populated table would.
    """

    def __init__(self, n_portals: int) -> None:
        super().__init__()
        self._indices = range(n_portals)

    def __missing__(self, pt_index: int) -> PortalTable:
        if pt_index not in self._indices:
            raise KeyError(pt_index)
        table = self[pt_index] = PortalTable()
        return table


class PortalsEndpoint:
    """Per-node portals state plus the one-sided operations."""

    #: Wire overhead of a portals header / control message.
    HEADER_BYTES = 64

    def __init__(self, env: Environment, fabric: Fabric, node: Node, n_portals: int = 64) -> None:
        self.env = env
        self.fabric = fabric
        self.node = node
        self.tables: Dict[int, PortalTable] = _PortalTables(n_portals)

    # -- registration --------------------------------------------------------
    def attach(
        self,
        pt_index: int,
        match_bits: int,
        md: MemoryDescriptor,
        ignore_bits: int = 0,
        use_once: bool = False,
    ) -> MatchEntry:
        """Expose *md* on portal *pt_index* under *match_bits*."""
        me = MatchEntry(match_bits=match_bits, md=md, ignore_bits=ignore_bits, use_once=use_once)
        return self.tables[pt_index].attach(me)

    def detach(self, pt_index: int, me: MatchEntry) -> None:
        self.tables[pt_index].detach(me)

    def new_eq(self, capacity: float = float("inf")) -> Store:
        """Create an event queue (a plain Store of :class:`PtlEvent`)."""
        return Store(self.env, capacity=capacity)

    # -- one-sided operations ---------------------------------------------------
    # Each is one generator for ``yield from`` callers: the caller's
    # process runs the transfer itself, so a crash interrupt of that
    # process reaches the transfer directly and no orphaned transfer
    # outlives it.  A traced operation opens its span inline.
    def put(
        self,
        md: MemoryDescriptor,
        target_nid: int,
        pt_index: int,
        match_bits: int,
        hdr_data: Any = None,
        offset: int = 0,
        wire_weight: int = 1,
    ):
        """One-sided write of ``md.payload`` into the target's match entry.

        ``yield from endpoint.put(...)`` returns the length once the data
        has been deposited remotely; the target's EQ receives a
        ``PUT_END`` event.

        ``wire_weight`` mirrors :meth:`get` (symmetric-client collapsing):
        the push serializes ``wire_weight * length`` bytes and counts as
        that many messages.  At 1, exactly the unweighted transfer.
        """
        tracer = self.env.tracer
        if tracer is not None:
            span, prev = tracer.push(
                "ptl_put", kind="bulk", node=self.node.node_id, op="put",
                dst=target_nid, bytes=md.length,
            )
        try:
            msg = Message(
                src=self.node.node_id,
                dst=target_nid,
                size=wire_weight * md.length + self.HEADER_BYTES,
                tag=f"ptl_put:{pt_index}:{match_bits:#x}",
                payload=md.payload,
                mult=wire_weight,
                fanout=True,  # one pusher serves the whole class
            )
            yield from self.fabric.transfer(msg)
            me = _endpoint_of(self.fabric.node(target_nid)).tables[pt_index].match(match_bits)
            if me is None:
                raise NetworkError(
                    f"ptl_put: no match entry at node {target_nid} portal {pt_index} "
                    f"for bits {match_bits:#x}"
                )
            me.md.payload = md.payload
            if me.md.eq is not None:
                me.md.eq.try_put(
                    PtlEvent(
                        kind=PtlEventKind.PUT_END,
                        initiator=self.node.node_id,
                        match_bits=match_bits,
                        length=md.length,
                        payload=md.payload,
                        hdr_data=hdr_data,
                        offset=offset,
                    )
                )
            return md.length
        finally:
            if tracer is not None:
                tracer.pop(span, prev)

    def get(
        self,
        md: MemoryDescriptor,
        target_nid: int,
        pt_index: int,
        match_bits: int,
        length: Optional[int] = None,
        wire_weight: int = 1,
    ):
        """One-sided read from the target's match entry into local *md*.

        ``yield from endpoint.get(...)`` returns the fetched payload once
        the data lands locally (``REPLY_END``); the target's EQ sees
        ``GET_END``.

        ``wire_weight`` (symmetric-client collapsing) makes this one pull
        stand in for a whole equivalence class: the reply serializes
        ``wire_weight * nbytes`` on the wire and the fabric counts it as
        that many messages.  At 1, exactly the unweighted transfer.
        """
        tracer = self.env.tracer
        if tracer is not None:
            span, prev = tracer.push(
                "ptl_get", kind="bulk", node=self.node.node_id, op="get",
                src=target_nid,
            )
        try:
            _, me, nbytes = yield from self._get_request(
                target_nid, pt_index, match_bits, length, "ptl_get"
            )
            # Reply phase: the bulk data flows target -> initiator.  A
            # weighted pull serializes the whole class's data back to back
            # (the server drains the classmates' buffers sequentially).
            reply = Message(
                src=target_nid,
                dst=self.node.node_id,
                size=wire_weight * nbytes + self.HEADER_BYTES,
                tag=f"ptl_get_reply:{pt_index}:{match_bits:#x}",
                payload=me.md.payload,
                mult=wire_weight,
            )
            yield from self.fabric.transfer(reply)
            md.payload = me.md.payload
            if md.eq is not None:
                md.eq.try_put(
                    PtlEvent(
                        kind=PtlEventKind.REPLY_END,
                        initiator=target_nid,
                        match_bits=match_bits,
                        length=nbytes,
                        payload=me.md.payload,
                    )
                )
            return me.md.payload
        finally:
            if tracer is not None:
                tracer.pop(span, prev)

    def _get_request(self, target_nid, pt_index, match_bits, length, op):
        """The request phase every pull shares (``yield from``).

        A header-sized control message carries the descriptor to the
        target, which matches it and posts ``GET_END``.  Returns the
        target node, the matched entry and the byte count to move.
        """
        req = Message(
            src=self.node.node_id,
            dst=target_nid,
            size=self.HEADER_BYTES,
            tag=f"ptl_get_req:{pt_index}:{match_bits:#x}",
        )
        yield from self.fabric.transfer(req)

        target = self.fabric.node(target_nid)
        me = _endpoint_of(target).tables[pt_index].match(match_bits)
        if me is None:
            raise NetworkError(
                f"{op}: no match entry at node {target_nid} portal {pt_index} "
                f"for bits {match_bits:#x}"
            )
        nbytes = me.md.length if length is None else min(length, me.md.length)
        if me.md.eq is not None:
            me.md.eq.try_put(
                PtlEvent(
                    kind=PtlEventKind.GET_END,
                    initiator=self.node.node_id,
                    match_bits=match_bits,
                    length=nbytes,
                )
            )
        return target, me, nbytes

    # -- flow-level stream pull ---------------------------------------------
    def get_stream(
        self,
        md: MemoryDescriptor,
        target_nid: int,
        pt_index: int,
        match_bits: int,
        length: Optional[int] = None,
        wire_weight: int = 1,
        extra_shares: tuple = (),
        n_msgs: int = 1,
    ):
        """Pull a bulk stream via the flow engine (``yield from`` only).

        The control edge is exact — the same header-sized request
        message, match-entry lookup, and ``GET_END`` event as
        :meth:`get` — but the bulk reply rides ONE fluid flow
        (:mod:`repro.network.flow`) holding the target's tx pipe and the
        local rx pipe fractionally, instead of per-chunk fabric
        transfers.  ``wire_weight`` mirrors :meth:`get` (the rx side
        serves the whole collapsed class); ``extra_shares`` couples the
        flow to further capacities (the storage device's fluid view);
        ``n_msgs`` is the chunk count the stream stands for, used only
        for message accounting.
        """
        tracer = self.env.tracer
        if tracer is not None:
            span, prev = tracer.push(
                "ptl_get_stream", kind="bulk", node=self.node.node_id, op="get",
                src=target_nid,
            )
        try:
            target, me, nbytes = yield from self._get_request(
                target_nid, pt_index, match_bits, length, "ptl_get_stream"
            )
            # The whole bulk reply as one fluid flow.  Per-share bytes are
            # one class member's; the representative's own tx pipe carries
            # its share (coefficient 1) while the local rx pipe serves the
            # whole class (coefficient wire_weight), mirroring the
            # fabric's asymmetric weighted holds.
            shares = [
                (fluid_of(target.nic.tx), 1.0),
                (fluid_of(self.node.nic.rx), float(wire_weight)),
            ]
            shares.extend(extra_shares)
            flow = self.fabric.flows.open(
                float(nbytes), shares, tag="ptl_get_stream",
                src=target_nid, dst=self.node.node_id,
                wire_bytes=wire_weight * nbytes,
            )
            yield flow.done

            # Utilization bookkeeping at completion (the fluid model has
            # no per-chunk holds to account incrementally).
            tx_pipe, rx_pipe = target.nic.tx, self.node.nic.rx
            tx_pipe.bytes_moved += nbytes
            tx_pipe.busy_time += nbytes / tx_pipe.bandwidth
            rx_pipe.bytes_moved += wire_weight * nbytes
            rx_pipe.busy_time += wire_weight * nbytes / rx_pipe.bandwidth
            self.fabric.counters["messages"] += wire_weight * n_msgs
            self.fabric.counters["bytes"] += wire_weight * nbytes

            md.payload = me.md.payload
            if md.eq is not None:
                md.eq.try_put(
                    PtlEvent(
                        kind=PtlEventKind.REPLY_END,
                        initiator=target_nid,
                        match_bits=match_bits,
                        length=nbytes,
                    )
                )
            return me.md.payload
        finally:
            if tracer is not None:
                tracer.pop(span, prev)


def _endpoint_of(node: Node) -> PortalsEndpoint:
    endpoint = getattr(node, "portals", None)
    if endpoint is None:
        raise NetworkError(f"node {node.name} has no portals endpoint")
    return endpoint


def install_portals(env: Environment, fabric: Fabric, node: Node) -> PortalsEndpoint:
    """Create and attach a portals endpoint to *node* (idempotent)."""
    existing = getattr(node, "portals", None)
    if existing is not None:
        return existing
    endpoint = PortalsEndpoint(env, fabric, node)
    node.portals = endpoint  # type: ignore[attr-defined]
    return endpoint
