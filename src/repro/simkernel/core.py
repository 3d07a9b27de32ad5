"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generator, Iterable, Optional

from .events import NORMAL, PENDING, AllOf, AnyOf, Event, Timeout
from .process import Process

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]

#: Retired Timeout objects kept for reuse per environment.
_POOL_MAX = 1024

#: Compact the heap when at least this many tombstones are pending *and*
#: they outnumber the live entries (amortized O(1) per cancellation).
_COMPACT_MIN = 64


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at an event."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in **seconds** by convention throughout this project.
    Determinism: events scheduled for the same time and priority are
    processed in scheduling order (FIFO), so repeated runs with the same
    seed produce identical traces.

    Internally the schedule is a heap of ``(time, priority, seq, event)``
    tuples plus two FIFO deques for zero-delay events (one per priority).
    A zero-delay event's entry time always equals the current clock, and
    ``seq`` is global and monotonic, so popping the tuple-minimum across
    the three structures reproduces the pure-heap order exactly while
    skipping the O(log n) sift for the dominant class of events (every
    ``succeed()``, process init/finish, interrupt).  Cancelled events stay
    in place as tombstones that are skipped at pop; cancelled
    :class:`Timeout` objects are recycled through a free list, and the
    heap is compacted once tombstones dominate it.  The plain-heap
    reference kernel that the equivalence tests compare against lives in
    the test suite.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = initial_time
        self._queue: list = []  # heap of (time, priority, seq, event)
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        #: FIFO side-queues for zero-delay events.
        self._imm_urgent: deque = deque()
        self._imm_normal: deque = deque()
        #: Free list of retired Timeout objects.
        self._timeout_pool: list = []
        #: Live (scheduled, not cancelled) entries in the schedule: +1 on
        #: schedule, -1 on cancel and on popping a live entry.  Tombstoned
        #: entries still queued are ``_qlen() - _live``.
        self._live: int = 0
        #: Total events popped off the queue (perf / determinism probe).
        self.events_processed: int = 0
        #: Cancelled events discarded without running callbacks.
        self.events_skipped_cancelled: int = 0
        #: Total :meth:`Event.cancel` calls that tombstoned an event.
        self.events_cancelled: int = 0
        #: Timeout objects served from the free list instead of allocated.
        self.timeouts_recycled: int = 0
        #: Flow arrivals and completions the flow engine (see
        #: :mod:`repro.network.flow`) resolved in closed form, re-sharing
        #: one connected component instead of every active flow.
        self.events_fast_forwarded: int = 0
        self._peak_queue: int = 0
        #: Optional :class:`repro.trace.Tracer`; ``None`` keeps every
        #: instrumentation site down to a single attribute check.
        self.tracer = None
        #: Optional :class:`repro.faults.FaultInjector`; same contract as
        #: ``tracer`` — ``None`` keeps every fault hook to one attribute
        #: check, so fault-free timelines are bit-identical.
        self.faults = None
        #: Optional :class:`repro.metrics.MetricsRegistry`.  No model code
        #: writes to it: its instruments are pull probes the sampler
        #: reads on its own timer, so a metered workload's timeline is
        #: bit-identical to an unmetered one.
        self.metrics = None

    # -- introspection -----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (``None`` between events)."""
        return self._active_process

    @property
    def peak_queue_len(self) -> int:
        """Largest *live* event-queue depth seen so far.

        Counts live entries only (``_live``), not tombstoned ones
        (cancelled but not yet popped/compacted), so lazy cancellation
        reports the same semantic depth as an eager plain heap instead of
        inflating the peak with dead weight.
        """
        return max(self._peak_queue, self._live)

    def _qlen(self) -> int:
        return len(self._queue) + len(self._imm_urgent) + len(self._imm_normal)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        t = self._queue[0][0] if self._queue else float("inf")
        if self._imm_urgent and self._imm_urgent[0][0] < t:
            t = self._imm_urgent[0][0]
        if self._imm_normal and self._imm_normal[0][0] < t:
            t = self._imm_normal[0][0]
        return t

    def quiet_before(self, t: float) -> bool:
        """True when no pending entry is scheduled strictly before *t*.

        The steady-state detector used by the flow fast-forward engine:
        when the control lane is quiet up to ``t`` the clock can jump
        there in one closed-form step without reordering anything.
        Conservative — tombstoned entries count as pending, so a stale
        timer can only ever turn a legal skip into a regular event.
        """
        return self.peek() >= t

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        Timeouts dominate the event mix of a simulation, so this is a
        slots-only fast constructor: it fills the :class:`Timeout` fields
        and pushes the queue entry directly instead of going through
        ``Timeout.__init__`` → ``Event.__init__`` → ``_schedule``.  The
        object may come off the environment's free list of cancelled
        timeouts rather than a fresh allocation.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            event._defused = False
            event._cancelled = False
            self.timeouts_recycled += 1
        else:
            event = Timeout.__new__(Timeout)
            event.env = self
            event.callbacks = []
            event._defused = False
            event._cancelled = False
        event._value = value
        event._ok = True
        event.delay = delay
        event.at = at = self._now + delay
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._imm_normal.append((at, NORMAL, seq, event))
        else:
            heapq.heappush(self._queue, (at, NORMAL, seq, event))
        self._live = live = self._live + 1
        if live > self._peak_queue:
            self._peak_queue = live
        return event

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new simulation process from *generator*."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once all *events* have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires once any of *events* has succeeded."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Insert *event* into the queue ``delay`` seconds from now."""
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            entry = (self._now, priority, seq, event)
            if priority == 0:  # URGENT
                self._imm_urgent.append(entry)
            else:
                self._imm_normal.append(entry)
        else:
            heapq.heappush(self._queue, (self._now + delay, priority, seq, event))
        self._live = live = self._live + 1
        if live > self._peak_queue:
            self._peak_queue = live

    def _on_cancel(self) -> None:
        """Bookkeeping for :meth:`Event.cancel` (tombstone accounting)."""
        self.events_cancelled += 1
        self._live -= 1
        tombstones = self._qlen() - self._live
        if tombstones >= _COMPACT_MIN and tombstones * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned entries and re-heapify (in place: the run loop
        holds direct references to the queue list and deques)."""
        pool = self._timeout_pool
        skipped = 0
        keep = []
        for entry in self._queue:
            event = entry[3]
            if event._cancelled:
                skipped += 1
                self._retire(event, pool)
            else:
                keep.append(entry)
        heapq.heapify(keep)
        self._queue[:] = keep
        for dq in (self._imm_urgent, self._imm_normal):
            if not dq:
                continue
            live = [entry for entry in dq if not entry[3]._cancelled]
            if len(live) != len(dq):
                for entry in dq:
                    if entry[3]._cancelled:
                        skipped += 1
                        self._retire(entry[3], pool)
                dq.clear()
                dq.extend(live)
        self.events_skipped_cancelled += skipped

    def _retire(self, event: Event, pool: list) -> None:
        """Mark a cancelled event dead; recycle Timeouts via the free list."""
        event.callbacks = None
        if type(event) is Timeout and len(pool) < _POOL_MAX:
            event._value = None  # don't pin payloads while pooled
            pool.append(event)

    def _pop_entry(self):
        """Pop the globally-minimum (time, priority, seq, event) entry."""
        queue = self._queue
        imm_u = self._imm_urgent
        imm_n = self._imm_normal
        if imm_u or imm_n:
            best = queue[0] if queue else None
            pick = None
            if imm_u and (best is None or imm_u[0] < best):
                best = imm_u[0]
                pick = imm_u
            if imm_n and (best is None or imm_n[0] < best):
                best = imm_n[0]
                pick = imm_n
            if pick is None:
                return heapq.heappop(queue)
            pick.popleft()
            return best
        if not queue:
            raise EmptySchedule()
        return heapq.heappop(queue)

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` when nothing is left to do, and
        re-raises un-defused event failures (crashing the simulation, which
        is what you want for an unhandled error in a background process).
        """
        while True:
            now, _prio, _seq, event = self._pop_entry()
            if not event._cancelled:
                break
            self.events_skipped_cancelled += 1
            self._retire(event, self._timeout_pool)
        # A tombstone never moves the clock: only a live event sets it.
        self._now = now
        self._live -= 1
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(f"event failed with non-exception {exc!r}")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        * ``until is None`` — run until the queue is empty.
        * ``until`` is a number — run until that simulated time.
        * ``until`` is an :class:`Event` — run until it is processed and
          return its value (re-raising its exception on failure).
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise ValueError(f"until={at} lies in the past (now={self._now})")
            until = Event(self)
            until._ok = True
            until._value = None
            # Priority URGENT ensures the stop fires before same-time events.
            self._seq += 1
            heapq.heappush(self._queue, (at, 0, self._seq, until))
            self._live += 1

        if until is not None:
            if until.callbacks is None:
                # Already processed.
                if until._ok:
                    return until._value
                raise until._value
            until.callbacks.append(_stop_simulation)

        # The drain loop below is `step()` inlined: the per-event method
        # call and attribute lookups are measurable at ~10^5 events/run.
        queue = self._queue
        imm_u = self._imm_urgent
        imm_n = self._imm_normal
        pool = self._timeout_pool
        heappop = heapq.heappop
        processed = self.events_processed
        try:
            while True:
                if imm_u or imm_n:
                    entry = queue[0] if queue else None
                    pick = None
                    if imm_u and (entry is None or imm_u[0] < entry):
                        entry = imm_u[0]
                        pick = imm_u
                    if imm_n and (entry is None or imm_n[0] < entry):
                        entry = imm_n[0]
                        pick = imm_n
                    if pick is None:
                        entry = heappop(queue)
                    else:
                        pick.popleft()
                    now, _prio, _seq, event = entry
                else:
                    if not queue:
                        raise EmptySchedule()
                    now, _prio, _seq, event = heappop(queue)
                if event._cancelled:
                    self.events_skipped_cancelled += 1
                    event.callbacks = None
                    if type(event) is Timeout and len(pool) < _POOL_MAX:
                        event._value = None
                        pool.append(event)
                    continue
                self._now = now
                processed += 1
                self._live -= 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise RuntimeError(f"event failed with non-exception {exc!r}")
        except StopSimulation as stop:
            event = stop.args[0]
            if event._ok:
                return event._value
            raise event._value from None
        except EmptySchedule:
            if until is not None and until._value is not PENDING:
                if until._ok:
                    return until._value
                raise until._value from None
            if until is not None:
                raise RuntimeError(
                    "simulation ran out of events before the 'until' event fired"
                ) from None
            return None
        finally:
            self.events_processed = processed


def _stop_simulation(event: Event) -> None:
    if not event._ok:
        event._defused = True
    raise StopSimulation(event)
