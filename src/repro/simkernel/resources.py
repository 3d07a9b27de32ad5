"""Shared-resource primitives built on the event kernel.

These model contention points in the simulated machine: a NIC that can move
one message at a time, a RAID controller, a metadata server's CPU, a pool of
pinned I/O buffers, and mailbox-style message queues.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .core import Environment
from .events import Event

__all__ = [
    "Request",
    "Resource",
    "Store",
    "Container",
]

#: Stands in for a queue that has never held anything.  Like an empty
#: list or deque it is falsy and has length 0, but it is shared, so an
#: idle primitive allocates no container; the first append replaces it.
_UNUSED = ()


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    A granted request succeeds with ``None`` (as in SimPy): a request
    holding itself as its value would be a reference cycle that only the
    cyclic garbage collector could free, one per grant.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def release(self) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.triggered and self._ok:
            self.release()
        else:
            self.cancel()


class Resource:
    """A resource with *capacity* slots granted FIFO.

    A slot is held either by a granted :class:`Request` or by a
    :meth:`hold` that found it free and claimed it by count.  The wait
    queue is a deque built when the first request has to wait.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set = set()
        #: Slots held by :meth:`hold` claims (no :class:`Request` each).
        self._claims = 0
        self._waiting = _UNUSED

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users) + self._claims

    @property
    def queue_len(self) -> int:
        """Number of ungranted requests."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def hold(self, duration: float, also: Optional["Resource"] = None):
        """Hold a slot (and one slot of *also*) for *duration* seconds.

        Usage inside a process: ``start = yield from resource.hold(d)``;
        the value is the time the hold began.  When the slots are free
        and nobody waits, they are claimed at once by count and the hold
        costs one timeout; otherwise it queues for this slot, then
        *also*'s, as nested ``with r.request() as req: yield req`` blocks
        do.  The slots go back, *also*'s first, in a ``finally``, so an
        interrupted holder never keeps them.

        Only a holder that does nothing but wait may skip the grant's
        event turn: one that runs on after its grant (a server thread, a
        lock) keeps :meth:`request`, or it would overtake work scheduled
        for the same instant.
        """
        env = self.env
        if self._claim(also):
            try:
                start = env._now
                yield env.timeout(duration)
                return start
            finally:
                if also is not None:
                    also._claims -= 1
                    also._grant_next()
                self._claims -= 1
                self._grant_next()
        mine = Request(self)
        theirs = None
        try:
            yield mine
            if also is not None:
                theirs = Request(also)
                yield theirs
            start = env._now
            yield env.timeout(duration)
            return start
        finally:
            if theirs is not None:
                theirs.__exit__(None, None, None)
            mine.__exit__(None, None, None)

    def release(self, request: Request) -> None:
        """Return a slot previously granted to *request*."""
        if request not in self._users:
            raise RuntimeError(f"{request!r} does not hold {self!r}")
        self._users.discard(request)
        self._grant_next()

    # -- internals ----------------------------------------------------------
    def _claim(self, also: Optional["Resource"]) -> bool:
        """Claim a slot here and one on *also* by count, if both are free
        and nobody waits for either; claim nothing otherwise."""
        if len(self._users) + self._claims >= self.capacity or self._waiting:
            return False
        if also is not None:
            if len(also._users) + also._claims >= also.capacity or also._waiting:
                return False
            also._claims += 1
        self._claims += 1
        return True

    def _do_request(self, request: Request) -> None:
        if len(self._users) + self._claims < self.capacity:
            self._users.add(request)
            request.succeed()
        else:
            if self._waiting is _UNUSED:
                self._waiting = deque()
            self._waiting.append(request)

    def _cancel(self, request: Request) -> None:
        if request in self._users or not self._waiting:
            return
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) + self._claims < self.capacity:
            nxt = self._waiting.popleft()
            if nxt.triggered:  # cancelled/failed while queued
                continue
            self._users.add(nxt)
            nxt.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} capacity={self.capacity} "
            f"held={self.count} queued={self.queue_len}>"
        )


class Store:
    """FIFO buffer of Python objects with blocking put/get.

    With the default infinite capacity this is a mailbox; with a finite
    capacity it models bounded queues (e.g. an I/O node's request buffer
    that *rejects or delays* bursts, paper §3.2).

    Most stores are event queues that never hold more than one item or
    one getter (an RPC reply queue, a Portals EQ), and thousands are
    alive at once.  So the items, getters and putters each get a plain
    list only when the first one arrives: at depth one a list costs a
    tenth of a deque, and popping the front of a short list is cheap.
    ``items`` is an empty tuple until the first item is stored.
    """

    __slots__ = ("env", "capacity", "items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items = self._getters = self._putters = _UNUSED  # putters: (event, item)

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert *item*; the event fires once there is room."""
        event = Event(self.env)
        if len(self.items) < self.capacity:
            self._store(item)
            event.succeed()
            self._wake_getters()
        else:
            if self._putters is _UNUSED:
                self._putters = []
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: ``False`` if the store is full (reject)."""
        if len(self.items) < self.capacity:
            self._store(item)
            self._wake_getters()
            return True
        return False

    def get(self) -> Event:
        """Remove and return the oldest item; event value is the item."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.pop(0))
            self._admit_putters()
        else:
            if self._getters is _UNUSED:
                self._getters = []
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self.items:
            item = self.items.pop(0)
            self._admit_putters()
            return True, item
        return False, None

    # -- internals ----------------------------------------------------------
    def _store(self, item: Any) -> None:
        if self.items is _UNUSED:
            self.items = [item]
        else:
            self.items.append(item)

    def _wake_getters(self) -> None:
        while self._getters and self.items:
            getter = self._getters.pop(0)
            if getter.triggered:
                continue
            getter.succeed(self.items.pop(0))
            self._admit_putters()

    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.pop(0)
            if putter.triggered:
                continue
            self._store(item)
            putter.succeed()
            self._wake_getters()


class Container:
    """A continuous quantity (e.g. buffer bytes) with blocking put/get.

    A put or get that can be served at once, with nobody queued ahead of
    it, never touches the wait queues; each is a deque built when the
    first request has to wait.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = init
        self._getters = self._putters = _UNUSED  # (event, amount) each

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        self._check(amount)
        event = Event(self.env)
        if not self._putters and self._level + amount <= self.capacity:
            self._level += amount
            event.succeed()
        else:
            if self._putters is _UNUSED:
                self._putters = deque()
            self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        self._check(amount)
        event = Event(self.env)
        if not self._getters and self._level >= amount:
            self._level -= amount
            event.succeed()
        else:
            if self._getters is _UNUSED:
                self._getters = deque()
            self._getters.append((event, amount))
        self._settle()
        return event

    def _check(self, amount: float) -> None:
        # Over capacity, a put or get could never be served, and at the
        # head of its queue it would starve every request behind it.
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        if amount > self.capacity:
            raise ValueError(f"amount {amount} exceeds capacity {self.capacity}")

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                event, amount = self._putters[0]
                if event.triggered:
                    self._putters.popleft()
                    progressed = True
                elif self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed()
                    progressed = True
            if self._getters:
                event, amount = self._getters[0]
                if event.triggered:
                    self._getters.popleft()
                    progressed = True
                elif self._level >= amount:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed()
                    progressed = True
