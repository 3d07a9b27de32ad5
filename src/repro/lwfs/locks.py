"""The lock service (paper §3.4).

"Locks enable consistency and isolation for concurrent transactions by
allowing the client to synchronize access" — crucially, locking in LWFS is
*opt-in*: applications whose access patterns need no synchronization (the
checkpoint of §4 writes non-overlapping objects) simply never call it,
which is exactly the overhead the traditional file system cannot shed.

Supports shared/exclusive modes on arbitrary resource keys with optional
byte ranges; conflicting grants queue FIFO.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..errors import LockConflict, LockError

__all__ = ["LockMode", "Lock", "LockService"]


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


def _ranges_overlap(a: Optional[Tuple[int, int]], b: Optional[Tuple[int, int]]) -> bool:
    """None means whole-resource; ranges are half-open [start, end)."""
    if a is None or b is None:
        return True
    return a[0] < b[1] and b[0] < a[1]


@dataclass(frozen=True)
class Lock:
    """A granted (or queued) lock; the handle used to release it."""

    lock_id: int
    resource: Hashable
    mode: LockMode
    owner: Hashable
    byte_range: Optional[Tuple[int, int]] = None


@dataclass
class _Waiter:
    lock: Lock
    wake: Optional[Callable[[Lock], None]] = None


class LockService:
    """Grants shared/exclusive locks over resource keys.

    ``acquire`` is non-blocking at this (functional) layer: it either
    grants or raises :class:`LockConflict` / enqueues, depending on
    *wait*.  The simulated deployment wraps acquisition in RPCs and turns
    the ``wake`` callback into an event the client process sleeps on.
    """

    def __init__(self) -> None:
        self._granted: Dict[Hashable, List[Lock]] = {}
        self._waiting: Dict[Hashable, List[_Waiter]] = {}
        self._ids = itertools.count(1)
        self.grants = 0
        self.conflicts = 0

    # -- queries -----------------------------------------------------------
    def holders(self, resource: Hashable) -> List[Lock]:
        return list(self._granted.get(resource, []))

    def queue_length(self, resource: Hashable) -> int:
        return len(self._waiting.get(resource, []))

    def _conflicts_with_granted(self, candidate: Lock) -> bool:
        for held in self._granted.get(candidate.resource, []):
            if held.owner == candidate.owner and held.byte_range == candidate.byte_range:
                continue  # re-entrant same-owner same-range: compatible
            if not _ranges_overlap(held.byte_range, candidate.byte_range):
                continue
            if held.mode is LockMode.EXCLUSIVE or candidate.mode is LockMode.EXCLUSIVE:
                return True
        return False

    def _blocked_by_queue(self, candidate: Lock) -> bool:
        """Fairness: a new request must queue behind conflicting waiters."""
        for waiter in self._waiting.get(candidate.resource, []):
            held = waiter.lock
            if not _ranges_overlap(held.byte_range, candidate.byte_range):
                continue
            if held.mode is LockMode.EXCLUSIVE or candidate.mode is LockMode.EXCLUSIVE:
                return True
        return False

    # -- acquisition ----------------------------------------------------------
    def acquire(
        self,
        resource: Hashable,
        mode: LockMode,
        owner: Hashable,
        byte_range: Optional[Tuple[int, int]] = None,
        wait: bool = False,
        wake: Optional[Callable[[Lock], None]] = None,
    ) -> Tuple[Lock, bool]:
        """Try to take a lock.

        Returns ``(lock, granted)``.  If not granted: with ``wait=True``
        the lock is queued and ``wake(lock)`` fires on grant; otherwise
        :class:`LockConflict` is raised.
        """
        if byte_range is not None and byte_range[0] >= byte_range[1]:
            raise LockError(f"empty byte range {byte_range}")
        lock = Lock(
            lock_id=next(self._ids),
            resource=resource,
            mode=mode,
            owner=owner,
            byte_range=byte_range,
        )
        if not self._conflicts_with_granted(lock) and not self._blocked_by_queue(lock):
            self._granted.setdefault(resource, []).append(lock)
            self.grants += 1
            return lock, True
        self.conflicts += 1
        if not wait:
            raise LockConflict(f"{mode.value} lock on {resource!r} conflicts")
        self._waiting.setdefault(resource, []).append(_Waiter(lock=lock, wake=wake))
        return lock, False

    def release(self, lock: Lock) -> None:
        held = self._granted.get(lock.resource, [])
        for i, candidate in enumerate(held):
            if candidate.lock_id == lock.lock_id:
                del held[i]
                break
        else:
            raise LockError(f"lock {lock.lock_id} on {lock.resource!r} is not held")
        if not held:
            self._granted.pop(lock.resource, None)
        self._promote(lock.resource)

    def release_owner(self, owner: Hashable) -> int:
        """Release every lock held by *owner* (client death cleanup)."""
        released = 0
        for resource in list(self._granted):
            for lock in [l for l in self._granted.get(resource, []) if l.owner == owner]:
                self.release(lock)
                released += 1
        return released

    # -- internals ---------------------------------------------------------------
    def _promote(self, resource: Hashable) -> None:
        queue = self._waiting.get(resource, [])
        granted_now: List[_Waiter] = []
        remaining: List[_Waiter] = []
        for waiter in queue:
            lock = waiter.lock
            if not self._conflicts_with_granted(lock) and not any(
                _ranges_overlap(w.lock.byte_range, lock.byte_range)
                and (w.lock.mode is LockMode.EXCLUSIVE or lock.mode is LockMode.EXCLUSIVE)
                for w in remaining
            ):
                self._granted.setdefault(resource, []).append(lock)
                self.grants += 1
                granted_now.append(waiter)
            else:
                remaining.append(waiter)
        if remaining:
            self._waiting[resource] = remaining
        else:
            self._waiting.pop(resource, None)
        for waiter in granted_now:
            if waiter.wake is not None:
                waiter.wake(waiter.lock)
