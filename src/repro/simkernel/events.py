"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-based design (as popularized by
SimPy): simulation *processes* are Python generators that ``yield`` events;
the :class:`~repro.simkernel.core.Environment` advances simulated time by
draining a priority queue of triggered events and resuming the processes
waiting on them.

Everything in this module is deterministic: event ordering ties are broken
by a monotonically increasing sequence number assigned at trigger time.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "ConditionValue",
]


class _Pending:
    """Sentinel for 'event has no value yet'."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


#: Sentinel stored in :attr:`Event._value` until the event is triggered.
PENDING = _Pending()

#: Scheduling priority for events that must run before same-time events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Event:
    """An event that may happen at some point in simulated time.

    An event goes through three states:

    * *untriggered* — freshly created; may be waited on.
    * *triggered* — :meth:`succeed` or :meth:`fail` was called; the event has
      a value and sits in the environment's queue.
    * *processed* — the environment has invoked all callbacks.

    Callbacks are callables taking the event as their only argument.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        #: list of callbacks, or ``None`` once processed.
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._cancelled: bool = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value (succeeded or failed)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only meaningful once triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    @property
    def defused(self) -> bool:
        """``True`` if a failure was handled and must not crash the run."""
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event as handled so the environment won't raise."""
        self._defused = True

    @property
    def cancelled(self) -> bool:
        """``True`` if the event was retired before its callbacks ran."""
        return self._cancelled

    def cancel(self) -> bool:
        """Retire a *scheduled* event so its callbacks never run.

        The queue entry stays put — removing it would cost a heap re-sift —
        but the event is tombstoned and silently discarded when it reaches
        the front of the queue.  Used for the losing arm of timeout races
        (e.g. an RPC whose reply arrived before the 30 s timer): without
        cancellation those stale timers pile up in the heap and tax every
        subsequent push.

        Returns ``True`` if the event will now never fire, ``False`` if it
        was already processed (cancelling is then a no-op).  Contract:
        after a successful cancel the caller must drop its references —
        cancelled :class:`Timeout` objects may be recycled by the kernel.
        The callbacks are dropped at once, so whatever waited on the event
        (a condition, its value, a suspended process) is not kept alive by
        the tombstone until it reaches the front of the queue.
        """
        if self.callbacks is None:
            return False
        if self._cancelled:
            return True
        if self._value is PENDING:
            raise RuntimeError(f"cannot cancel {self!r}: not scheduled yet")
        self._cancelled = True
        self.callbacks.clear()
        self.env._on_cancel()
        return True

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on this event.
        If nothing waits on it and nobody calls :meth:`defuse`, the
        environment raises it out of :meth:`Environment.run`.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._cancelled:
            state = "cancelled"
        elif self.processed:
            state = "processed"
        else:
            state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay of simulated time."""

    __slots__ = ("delay", "at")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        #: Absolute simulated time this timeout is scheduled to fire.
        self.at = env.now + delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._cancelled:
            return f"<Timeout cancelled at={self.at!r} delay={self.delay!r}>"
        return f"<Timeout at={self.at!r} delay={self.delay!r}>"


class ConditionValue:
    """Result of a condition: an ordered mapping of triggered event values."""

    __slots__ = ("events",)

    def __init__(self, events: list) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict:
        return {event: event._value for event in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Composite event that triggers when *evaluate* says it is satisfied."""

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        evaluate: Callable[[list, int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        # Immediately check already-processed events; subscribe to the rest.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if not self._events and not self.triggered:
            self.succeed(ConditionValue([]))

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None and event._value is not PENDING:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                event.defuse()
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            # Wait one delta cycle so that same-time events are collected.
            deferred = Event(self.env)
            deferred.callbacks.append(self._collect)
            deferred.succeed()

    def _collect(self, _event: Event) -> None:
        if self._value is not PENDING:
            return
        value = ConditionValue([])
        self._populate_value(value)
        self.succeed(value)

    @staticmethod
    def all_events(events: list, count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: list, count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition that triggers once *all* the given events succeed."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers once *any* of the given events succeeds."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(env, Condition.any_events, events)
