"""Simulation processes: generators driven by the event loop."""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from .events import PENDING, URGENT, Event, Timeout

__all__ = ["Process", "Interrupt", "InterruptException"]


class InterruptException(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


#: Alias matching SimPy terminology.
Interrupt = InterruptException


class Process(Event):
    """Wraps a generator and resumes it whenever the yielded event fires.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the exception that
    escaped the generator.  Other processes can therefore ``yield`` a
    process to join on it.
    """

    __slots__ = ("_generator", "_target", "name", "span")

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        generator: Generator,
        name: Optional[str] = None,
        priority: int = URGENT,
    ) -> None:
        if not isinstance(generator, GeneratorType):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or generator.__name__
        # Ambient trace span: inherit the spawner's, so context follows
        # env.process(...) hand-offs (pipelined writers, bulk transfers).
        spawner = env._active_process
        self.span = spawner.span if spawner is not None else None

        # Kick off the process at the current simulation time: by default
        # ahead of every NORMAL event of this instant, or at ``NORMAL``
        # priority in FIFO order with them.
        init = Event(env)
        init.callbacks.append(self._resume)
        init._ok = True
        init._value = None
        env._schedule(init, priority=priority)

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (``None`` if running)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the wrapped generator has not exited."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process or a process waiting on itself is an
        error.  The interrupt is delivered via an urgent event so it
        preempts same-time scheduled resumptions.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env._schedule(interrupt_event, priority=URGENT)

    # -- internals ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of *event*."""
        if self._value is not PENDING:
            # Process already finished (e.g. interrupted after completion
            # was scheduled); ignore stale wakeups.
            if not event._ok:
                event._defused = True
            return

        # Detach from the stale target if an interrupt preempted it.  A
        # timeout nobody else waits on is cancelled, so it can neither
        # stay live in the queue nor move the clock when it comes due.
        target = self._target
        if target is not None and target is not event:
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not callbacks and type(target) is Timeout:
                    target.cancel()

        # Hot loop: hoist the attribute lookups that would otherwise be
        # repeated for every yield of every process.
        env = self.env
        send = self._generator.send
        throw = self._generator.throw
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = exc
                env._schedule(self)
                break

            if next_event.callbacks is not None:
                # Event still pending or triggered-but-unprocessed: wait.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            # Event already processed — feed its value straight back in.
            event = next_event

        env._active_process = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"
