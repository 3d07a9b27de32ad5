"""Structured tracing for simulation runs: spans with causal links.

A :class:`Tracer` attached to a simkernel
:class:`~repro.simkernel.core.Environment` records **spans** — named,
timestamped intervals of simulated time with a parent pointer — so one
checkpoint write shows up as a single causally-linked tree: client write
phase → RPC → server handler → bulk portals transfer → fabric messages →
disk service.  Timestamps are simulated seconds; recording a span never
schedules an event, so an enabled tracer observes the exact same
simulation the un-traced run executes (bit-identical clocks).

Zero overhead when disabled
---------------------------
``Environment.tracer`` is ``None`` by default.  Every instrumentation
site follows the same guard pattern as ``env.faults`` and
``env.metrics``::

    tracer = env.tracer
    if tracer is not None:
        span = tracer.begin("disk:raid0", kind="disk")
    ...hot path...
    if tracer is not None:
        tracer.end(span)

so a disabled run pays one attribute load and a ``None`` check.

Context propagation
-------------------
Within one simulation process, ``yield from`` chains share the ambient
span stored on the active :class:`~repro.simkernel.process.Process`
(:meth:`Tracer.push` / :meth:`Tracer.pop`).  Newly spawned processes
inherit the spawner's ambient span, which carries context across
``env.process(...)`` boundaries (pipelined chunk writers, portals
transfers).  Crossing the simulated wire — where no Python call chain
exists — the RPC layer copies the caller's span id into the request
(``RpcRequest.trace_parent``) and the server opens its handler span
under it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer"]

#: Sentinel: derive the parent from the active process's ambient span.
_AMBIENT = object()


class Span:
    """One traced interval of simulated time.

    ``start``/``end`` are simulated seconds; ``parent_id`` links the span
    into a causal tree (``None`` for roots).  ``attrs`` holds small
    structured details (byte counts, cache outcome, queue time).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "kind",
        "node",
        "service",
        "op",
        "start",
        "end",
        "attrs",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        node: Optional[int],
        service: Optional[str],
        op: Optional[str],
        start: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.node = node
        self.service = service
        self.op = op
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def dur(self) -> float:
        """Span duration in simulated seconds (0.0 while unfinished)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def key(self) -> tuple:
        """Canonical comparable form (used by the determinism tests)."""
        attrs = tuple(sorted((self.attrs or {}).items(), key=lambda kv: kv[0]))
        return (
            self.span_id,
            self.parent_id,
            self.name,
            self.kind,
            self.node,
            self.service,
            self.op,
            self.start,
            self.end,
            attrs,
        )

    # Slots-only classes need explicit pickle support; traced trials cross
    # the sweep executor's process-pool boundary.
    def __getstate__(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for field, value in zip(self.__slots__, state):
            setattr(self, field, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span #{self.span_id} {self.name!r} kind={self.kind} "
            f"[{self.start:.6f}, {self.end if self.end is not None else '...'}]>"
        )


class Tracer:
    """Collects spans for one :class:`Environment`.

    Span ids are allocated from a per-tracer counter in creation order;
    because the simulation itself is deterministic, the id stream — and
    therefore the whole trace — is reproducible bit-for-bit.
    """

    __slots__ = ("env", "spans", "_n")

    def __init__(self, env) -> None:
        self.env = env
        #: Completed spans, in completion order.
        self.spans: List[Span] = []
        self._n = 0

    @classmethod
    def install(cls, env) -> "Tracer":
        """Create a tracer and attach it as ``env.tracer``."""
        tracer = cls(env)
        env.tracer = tracer
        return tracer

    # -- span lifecycle ------------------------------------------------------
    def begin(
        self,
        name: str,
        kind: str = "span",
        node: Optional[int] = None,
        service: Optional[str] = None,
        op: Optional[str] = None,
        parent: Any = _AMBIENT,
        start: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span starting now (or at *start*).

        *parent* defaults to the ambient span of the active process; pass
        an explicit span id (or ``None`` for a root) to override — the RPC
        server side does this with the id carried in the request.
        """
        if parent is _AMBIENT:
            proc = self.env._active_process
            ambient = proc.span if proc is not None else None
            parent_id = ambient.span_id if ambient is not None else None
        else:
            parent_id = parent
        self._n += 1
        span = Span(
            self._n,
            parent_id,
            name,
            kind,
            node,
            service,
            op,
            self.env.now if start is None else start,
        )
        if attrs:
            span.attrs = attrs
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close *span* at the current simulated time and record it."""
        span.end = self.env.now
        if attrs:
            if span.attrs is None:
                span.attrs = attrs
            else:
                span.attrs.update(attrs)
        self.spans.append(span)
        return span

    def record(self, name: str, start: float, **kwargs: Any) -> Span:
        """Record an already-elapsed interval ``[start, now]`` in one call."""
        return self.end(self.begin(name, start=start, **kwargs))

    # -- ambient context -----------------------------------------------------
    def push(self, name: str, **kwargs: Any) -> Tuple[Span, Optional[Span]]:
        """Open a span and make it the active process's ambient span.

        Returns ``(span, previous_ambient)``; hand both back to
        :meth:`pop` (typically from a ``finally`` block).
        """
        span = self.begin(name, **kwargs)
        proc = self.env._active_process
        prev = None
        if proc is not None:
            prev = proc.span
            proc.span = span
        return span, prev

    def pop(self, span: Span, prev: Optional[Span], **attrs: Any) -> Span:
        """Close a pushed span and restore the previous ambient span."""
        proc = self.env._active_process
        if proc is not None:
            proc.span = prev
        return self.end(span, **attrs)

    def current_id(self) -> Optional[int]:
        """Span id of the active process's ambient span, if any."""
        proc = self.env._active_process
        ambient = proc.span if proc is not None else None
        return ambient.span_id if ambient is not None else None

    def __len__(self) -> int:
        return len(self.spans)
