"""Request/response messaging on top of the portals layer.

LWFS clients talk to the authentication, authorization, storage, naming,
lock, and journal services through small RPC requests; bulk data *never*
rides in an RPC — it moves through separate server-directed portals
transfers (see :mod:`repro.sim.servers`).  This mirrors the split in the
paper's Figure 6: "the server receives a small request that identifies the
operation to perform and where to put or get data".

Handlers are generator functions ``handler(ctx, **args)`` that may yield
simulation events (disk I/O, CPU time, nested RPCs) and return the reply
value.  Exceptions raised by a handler are marshalled back and re-raised in
the caller.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from ..errors import (
    LinkDown,
    NetworkError,
    NodeFailure,
    RetryExhausted,
    RPCTimeout,
    ServerCrashed,
)
from ..machine.node import Node
from ..simkernel import NORMAL, Environment, Process, Store
from ..simkernel.process import Interrupt
from .fabric import Fabric
from .portals import MemoryDescriptor, PortalsEndpoint, PtlEvent, install_portals

__all__ = ["RpcRequest", "RpcReply", "RpcContext", "RpcService", "RpcClient", "service_key"]

#: Portal indices reserved by the RPC layer.
REQUEST_PORTAL = 0
REPLY_PORTAL = 1

#: Default wire size of an RPC request / reply (control messages).
REQUEST_BYTES = 256
REPLY_BYTES = 256


def service_key(name: str) -> int:
    """Stable 32-bit match bits for a service name."""
    return zlib.crc32(name.encode("utf-8"))


@dataclass(slots=True)
class RpcRequest:
    op: str
    args: Dict[str, Any]
    reply_node: int
    req_id: int
    size: int = REQUEST_BYTES
    #: Caller's trace span id; carries span context across the simulated
    #: wire so the server handler links into the client's span tree.
    trace_parent: Optional[int] = None


@dataclass(slots=True)
class RpcReply:
    ok: bool
    value: Any = None
    error: Optional[BaseException] = None
    size: int = REPLY_BYTES


@dataclass(slots=True)
class RpcContext:
    """Execution context handed to every RPC handler."""

    env: Environment
    service: "RpcService"
    request: RpcRequest
    initiator: int  # node id of the caller

    @property
    def node(self) -> Node:
        return self.service.node

    def cpu(self, duration: float) -> Generator:
        """Charge *duration* seconds of this server's CPU (generator)."""
        return self.node.compute(duration)


class RpcService:
    """A named service listening on a node's request portal.

    It serves from construction: the request portal's event queue is the
    service itself (:meth:`try_put`), so a delivered request starts its
    handler process in the delivering event's turn, with no dispatcher
    process or inbox in between.
    """

    def __init__(self, env: Environment, fabric: Fabric, node: Node, name: str) -> None:
        self.env = env
        self.fabric = fabric
        self.node = node
        self.name = name
        self.endpoint: PortalsEndpoint = install_portals(env, fabric, node)
        self.handlers: Dict[str, Callable[..., Generator]] = {}
        self._me = self.endpoint.attach(
            REQUEST_PORTAL,
            service_key(name),
            MemoryDescriptor(length=REQUEST_BYTES, eq=self),
        )
        self.requests_served = 0
        #: Handler processes in flight; tracked only while a fault
        #: injector is installed, so it can crash-interrupt them.  A dict
        #: (not a set): crash interrupts iterate it, and insertion order
        #: is deterministic where address-based set order is not.
        self._inflight: dict = {}
        #: Exactly-once layer (fault runs only): requests being executed
        #: and the reply cache for completed ones, both keyed by
        #: ``(reply_node, req_id)``.  Retries reuse the request id, so a
        #: retransmission of a request still executing is absorbed, and
        #: one that already completed gets its cached reply resent
        #: (Lustre-style reply reconstruction) instead of re-executing.
        #: Both are in-memory: a crash wipes them, and a post-reboot
        #: retransmission re-executes against recovered durable state.
        self._executing: dict = {}
        self._replied: dict = {}

    def register(self, op: str, handler: Callable[..., Generator]) -> None:
        """Install *handler* for operation *op* (generator function)."""
        if op in self.handlers:
            raise ValueError(f"handler for {op!r} already registered on {self.name!r}")
        self.handlers[op] = handler

    def try_put(self, event: PtlEvent) -> None:
        """The request portal's event queue: serve the delivered request.

        Every process started here takes its first step at ``NORMAL``
        priority, in FIFO order with the other events of this instant:
        the slot where a dispatcher process woken by the delivery would
        have run and, with its ``URGENT`` spawn, started the handler.
        """
        request: RpcRequest = event.payload
        env = self.env
        name = f"svc:{self.name}:{request.op}:{request.req_id}"
        faults = env.faults
        if faults is None:
            Process(env, self._handle(request), name, NORMAL)
            return
        key = (request.reply_node, request.req_id)
        if key in self._replied:
            Process(env, self._resend_reply(request), f"{name}:resend", NORMAL)
        elif key in self._executing:
            Process(env, self._absorb_duplicate(request), f"{name}:dup", NORMAL)
        else:
            self._track(key, Process(env, self._handle(request), name, NORMAL))
            if faults.duplicate_request(self.name, request.op):
                Process(
                    env, self._absorb_duplicate(request),
                    f"svc:{self.name}:{request.op}:dup", NORMAL,
                )

    def _track(self, key, proc) -> None:
        """Register an in-flight handler for crash interruption and dedup.

        The completion callback also defuses crash interrupts that escape
        the handler (e.g. thrown while it was sending its reply): a
        crashed server's dying work must not crash the simulation.
        """
        self._inflight[proc] = None
        self._executing[key] = proc

        def _done(ev, p=proc, k=key):
            self._inflight.pop(p, None)
            if self._executing.get(k) is p:
                del self._executing[k]
            if not ev._ok and isinstance(ev._value, (Interrupt, ServerCrashed)):
                ev._defused = True

        proc.callbacks.append(_done)

    def _absorb_duplicate(self, request: RpcRequest):
        """A duplicated (retransmitted) request delivery.

        The server's exactly-once layer recognizes the request id and
        discards the duplicate — after paying the unmarshal/dedup host
        work, which is the real cost duplicates impose.  The original
        execution's reply satisfies the caller's (re-armed) match entry.
        """
        try:
            yield from self.node.compute(self.node.msg_overhead_time())
        except NodeFailure:
            pass  # crashed mid-dedup; the caller's timeout handles it

    def _resend_reply(self, request: RpcRequest):
        """Reply reconstruction: a retransmission of a completed request.

        The operation must not run twice (its bulk match entries are
        consumed, its side effects applied), so the cached reply is sent
        again after the unmarshal/dedup host work.
        """
        try:
            yield from self.node.compute(self.node.msg_overhead_time())
        except NodeFailure:
            return  # crashed mid-dedup; the caller's timeout handles it
        reply = self._replied.get((request.reply_node, request.req_id))
        if reply is None or not self.node.alive:
            return
        md = MemoryDescriptor(length=reply.size, payload=reply)
        try:
            yield from self.endpoint.put(md, request.reply_node, REPLY_PORTAL, request.req_id)
        except (NodeFailure, NetworkError):
            pass  # caller gone or no longer waiting; drop it

    def _handle(self, request: RpcRequest):
        # Adopt the caller's span id (carried in the request) as parent and
        # make this the handler process's ambient span, so disk,
        # verify-cache, and bulk-pull spans all nest under it.
        tracer = self.env.tracer
        if tracer is not None:
            span, prev = tracer.push(
                f"serve:{self.name}.{request.op}", kind="server",
                node=self.node.node_id, service=self.name, op=request.op,
                parent=request.trace_parent,
            )
        try:
            ctx = RpcContext(
                env=self.env, service=self, request=request, initiator=request.reply_node
            )
            reply: RpcReply
            try:
                handler = self.handlers.get(request.op)
                if handler is None:
                    raise NetworkError(f"service {self.name!r} has no op {request.op!r}")
                value = yield from handler(ctx, **request.args)
                reply = RpcReply(ok=True, value=value)
            except NodeFailure:
                # Our node (or a dependency) died: no reply will be sent;
                # the client's timeout surfaces the failure.
                return
            except Interrupt:
                # Crash-interrupted by the fault injector: this execution
                # evaporates with the machine — no reply, no reply-cache
                # entry.  The client's timeout drives the retransmission.
                return
            except GeneratorExit:  # environment teardown, not a handler error
                raise
            except BaseException as exc:  # noqa: BLE001 - marshalled to caller
                reply = RpcReply(ok=False, error=exc)

            self.requests_served += 1
            if self.env.faults is not None:
                self._replied[(request.reply_node, request.req_id)] = reply
            if not self.node.alive:
                return  # died before replying; client times out
            md = MemoryDescriptor(length=reply.size, payload=reply)
            try:
                yield from self.endpoint.put(md, request.reply_node, REPLY_PORTAL, request.req_id)
            except NodeFailure:
                pass  # caller died; drop the reply
            except NetworkError:
                # No match entry: the caller gave up (timeout detach, retry
                # in flight) before this reply landed.  Portals semantics
                # drop an unmatched put at the target; so do we.
                pass
        finally:
            if tracer is not None:
                tracer.pop(span, prev)


class RpcClient:
    """Client-side RPC endpoint living on a node."""

    _req_ids = itertools.count(1)

    def __init__(self, env: Environment, fabric: Fabric, node: Node) -> None:
        self.env = env
        self.fabric = fabric
        self.node = node
        self.endpoint: PortalsEndpoint = install_portals(env, fabric, node)
        self.calls_made = 0

    def call(
        self,
        target_node: int,
        service: str,
        op: str,
        timeout: Optional[float] = None,
        request_size: int = REQUEST_BYTES,
        **args: Any,
    ) -> Generator:
        """Invoke ``service.op(**args)`` on *target_node*.

        A generator: ``result = yield from client.call(...)``.  Raises the
        remote exception on handler failure, :class:`RPCTimeout` if no
        reply arrives within *timeout*, and :class:`NodeFailure` if the
        target is already dead.
        """
        faults = self.env.faults
        if faults is not None and faults.retry is not None:
            return self._call_retry(faults, target_node, service, op, timeout, request_size, args)
        return self._call(target_node, service, op, timeout, request_size, args)

    #: Failures worth retrying: local timeouts and transport-level faults.
    #: Errors marshalled back from a *running* handler are not — the
    #: operation executed and failed.
    RETRYABLE = (RPCTimeout, NodeFailure, LinkDown, ServerCrashed)

    def _call_retry(
        self,
        faults,
        target_node: int,
        service: str,
        op: str,
        timeout: Optional[float],
        request_size: int,
        args: Dict[str, Any],
    ) -> Generator:
        """The call under a retry policy: exponential backoff with jitter.

        Active only while a fault plan with a :class:`RetryPolicy` is
        installed; each backoff wait draws its jitter from the injector's
        dedicated substream, so faulted runs stay deterministic.
        """
        policy = faults.retry
        if policy.timeout is not None:
            timeout = policy.timeout if timeout is None else min(timeout, policy.timeout)
        delay = policy.base_delay
        # One request id for every attempt: the server's exactly-once
        # layer recognizes retransmissions by it, and a late reply to an
        # earlier attempt satisfies a later attempt's match entry.
        req_id = next(self._req_ids)
        for attempt in range(1, policy.attempts + 1):
            try:
                value = yield from self._call(
                    target_node, service, op, timeout, request_size, args, req_id=req_id
                )
            except self.RETRYABLE as exc:
                if attempt >= policy.attempts:
                    raise RetryExhausted(
                        f"{service}.{op} on node {target_node} failed after "
                        f"{attempt} attempts: {exc}"
                    ) from exc
                faults.note_retry()
                tracer = self.env.tracer
                t0 = self.env._now if tracer is not None else 0.0
                yield self.env.timeout(min(delay, policy.max_delay) * faults.backoff_scale())
                if tracer is not None:
                    tracer.record(
                        f"retry:{service}.{op}", start=t0, kind="retry",
                        node=self.node.node_id, service=service, op=op, attempt=attempt,
                    )
                delay = min(delay * 2, policy.max_delay)
                continue
            if attempt > 1:
                faults.note_recovered()
            return value

    def _call(
        self,
        target_node: int,
        service: str,
        op: str,
        timeout: Optional[float],
        request_size: int,
        args: Dict[str, Any],
        req_id: Optional[int] = None,
    ) -> Generator:
        tracer = self.env.tracer
        trace_parent = None
        if tracer is not None:
            span, prev = tracer.push(
                f"rpc:{service}.{op}", kind="rpc",
                node=self.node.node_id, service=service, op=op, target=target_node,
            )
            trace_parent = span.span_id
        try:
            if req_id is None:
                req_id = next(self._req_ids)
            reply_q: Store = self.endpoint.new_eq()
            reply_md = MemoryDescriptor(length=REPLY_BYTES, eq=reply_q)
            me = self.endpoint.attach(REPLY_PORTAL, req_id, reply_md, use_once=True)

            request = RpcRequest(
                op=op,
                args=args,
                reply_node=self.node.node_id,
                req_id=req_id,
                size=request_size,
                trace_parent=trace_parent,
            )
            faults = self.env.faults
            if faults is not None and timeout is not None and faults.drop_request(service, op):
                # The request is lost on the wire: the client burns its
                # full timeout waiting for a reply that never comes.
                yield self.env.timeout(timeout)
                self.endpoint.detach(REPLY_PORTAL, me)
                faults.note_timeout()
                raise RPCTimeout(
                    f"{service}.{op} request to node {target_node} dropped (fault injection)"
                )

            send_md = MemoryDescriptor(length=request_size, payload=request)
            try:
                yield from self.endpoint.put(
                    send_md, target_node, REQUEST_PORTAL, service_key(service)
                )
            except NodeFailure:
                self.endpoint.detach(REPLY_PORTAL, me)
                raise

            self.calls_made += 1
            get_ev = reply_q.get()
            if timeout is None:
                event = yield get_ev
            else:
                # The caller waits on the reply alone; at the deadline the
                # timer fails that wait, unless the reply came first or an
                # interrupt took the caller away.
                def expire(_timer):
                    if not get_ev.triggered and get_ev.callbacks:
                        get_ev.fail(RPCTimeout(
                            f"{service}.{op} on node {target_node} timed out after {timeout}s"
                        ))

                timer = self.env.timeout(timeout)
                timer.callbacks.append(expire)
                try:
                    event = yield get_ev
                except RPCTimeout:
                    self.endpoint.detach(REPLY_PORTAL, me)
                    if faults is not None:
                        faults.note_timeout()
                    raise
                # The reply won the race: retire the losing timer so it
                # doesn't sit in the heap for the next `timeout` simulated
                # seconds.  At scale these stale 30 s timers dominate the
                # queue and tax every heap push.
                timer.cancel()

            reply: RpcReply = event.payload
            if not reply.ok:
                raise reply.error
            return reply.value
        finally:
            if tracer is not None:
                tracer.pop(span, prev)
