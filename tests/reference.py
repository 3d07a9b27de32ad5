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
"""

import contextlib
import heapq

import pytest

from repro.simkernel import NORMAL, Environment, Resource, Timeout

__all__ = ["HeapEnvironment", "queued_holds"]


class HeapEnvironment(Environment):
    """The kernel without zero-delay deques, Timeout free list or compaction."""

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

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

    :meth:`Resource.hold` is the only caller of
    :meth:`Resource.try_acquire`, so a refused claim there makes every
    hold queue for its slots as nested ``with r.request()`` blocks do.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Resource, "try_acquire", lambda self: None)
        yield
