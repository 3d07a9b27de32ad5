"""Reference paths the equivalence tests hold the shipping code against.

The shipping kernel and fabric keep one path each; the slower, simpler
paths they must match bit for bit live here, in the test suite:

* :class:`HeapEnvironment` — the plain-heap kernel: every entry goes
  through the heap, no :class:`~repro.simkernel.events.Timeout` is ever
  reused, and cancelled entries are never compacted away (they are
  skipped when they reach the front, as in the shipping kernel).
* :func:`queued_holds` — every :meth:`~repro.simkernel.Resource.hold`
  (fabric pipes, CPU cores, RAID controllers, disk stalls) queues for
  its slots through the request path instead of claiming free ones at
  once.
* :func:`reference_flows` — every flow network is a
  :class:`ReferenceFlowNetwork`: global progressive filling over every
  active flow at each arrival and departure, instead of the shipping
  engine's per-component re-share and closed-form completion heap.
  The two agree to float reassociation (1e-9), not bit for bit.
"""

import contextlib
import heapq

import pytest

from repro.network.flow import _DONE_TOL, FlowNetwork
from repro.simkernel import NORMAL, Environment, Event, Resource, Timeout

__all__ = [
    "HeapEnvironment", "ReferenceFlowNetwork", "queued_holds", "reference_flows",
]


class HeapEnvironment(Environment):
    """The kernel without zero-delay deques, Timeout free list or compaction."""

    def timeout_at(self, at, value=None):
        # A fresh Timeout, pushed on the heap at *at* itself: its
        # constructor takes a delay, and now + (at - now) need not be at.
        event = Timeout.__new__(Timeout)
        Event.__init__(event, self)
        event._value = value
        event.delay = at - self._now
        event.at = at
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (at, NORMAL, seq, event))
        self._live = live = self._live + 1
        if live > self._peak_queue:
            self._peak_queue = live
        return event

    def _schedule(self, event, priority=NORMAL, delay=0.0):
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now + delay, priority, seq, event))
        self._live = live = self._live + 1
        if live > self._peak_queue:
            self._peak_queue = live

    def _on_cancel(self):
        self.events_cancelled += 1
        self._live -= 1


@contextlib.contextmanager
def queued_holds():
    """Force every :meth:`Resource.hold` onto its queued path.

    :meth:`Resource.hold` claims free slots by count through
    :meth:`Resource._claim`, so a claim that always refuses makes every
    hold queue for its slots as nested ``with r.request()`` blocks do.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Resource, "_claim", lambda self, also: False)
        yield


class ReferenceFlowNetwork(FlowNetwork):
    """The global-refill flow engine.

    Every arrival and departure drains every active flow up to now,
    re-runs progressive filling over all of them and re-arms one timer
    at the earliest finish — ``O(flows²)`` per event once per-device
    jitter makes every saturation level distinct.  It shares
    :meth:`~FlowNetwork._fill` and :meth:`~FlowNetwork._retire` with the
    shipping engine and never fast-forwards.
    """

    def __init__(self, env):
        super().__init__(env)
        self._flows = []
        self._last = env._now

    def _admit(self, flow):
        self._advance()
        self._flows.append(flow)
        self._recompute()
        self._reschedule()

    def _live(self):
        # _advance stamps every flow's t_last with _last, so the shipping
        # bytes_moved extrapolates exactly as a global drain would.
        return self._flows

    def _advance(self):
        """Drain bytes through every active flow up to the current time."""
        now = self.env._now
        dt = now - self._last
        for f in self._flows:
            if dt > 0.0:
                f.remaining -= f.rate * dt
            f.t_last = now
        self._last = now

    def _recompute(self):
        self.rate_recomputes += 1
        if self._flows:
            self._fill(self._flows)

    def _reschedule(self):
        """Re-arm the single completion timer at the earliest finish."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._flows:
            return
        dt = min(f.remaining / f.rate for f in self._flows)
        timer = self.env.timeout(max(dt, 0.0))
        timer.callbacks.append(self._on_refill_timer)
        self._timer = timer

    def _on_refill_timer(self, event):
        if event is not self._timer:
            return
        self._timer = None
        self._advance()
        finished = [f for f in self._flows if f.remaining <= _DONE_TOL]
        if finished:
            self._flows = [f for f in self._flows if f.remaining > _DONE_TOL]
            self.flows_active -= len(finished)
            for f in finished:
                f.remaining = 0.0
                self._retire(f)
        self._recompute()
        self._reschedule()


def _reference_of(cls, env):
    existing = getattr(env, "_flow_network", None)
    return existing if existing is not None else ReferenceFlowNetwork(env)


@contextlib.contextmanager
def reference_flows():
    """Give every environment a :class:`ReferenceFlowNetwork`.

    :meth:`FlowNetwork.of` is how the fabric creates an environment's
    flow network, so patching it switches every flow of an in-process
    trial to the global-refill oracle.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FlowNetwork, "of", classmethod(_reference_of))
        yield
