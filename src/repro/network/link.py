"""Bandwidth-serialized channels.

A :class:`Pipe` models one direction of a NIC's link: transfers are
serialized FIFO and each occupies the pipe for ``nbytes / bandwidth``
seconds.  Contention therefore emerges naturally when many transfers target
the same endpoint — the exact phenomenon §3.2 of the paper is about
(an I/O node that can *receive* at 6 GB/s but *drain* at 400 MB/s).
"""

from __future__ import annotations

from ..simkernel import Environment, Resource

__all__ = ["Pipe"]


class Pipe:
    """One direction of a link: FIFO serialization at ``bandwidth`` bytes/s."""

    def __init__(self, env: Environment, bandwidth: float, name: str = "") -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth = bandwidth
        self.name = name
        self._slot = Resource(env, capacity=1)
        self.bytes_moved = 0
        self.busy_time = 0.0

    def occupancy(self, nbytes: int) -> float:
        """Seconds the pipe is busy moving *nbytes*."""
        return nbytes / self.bandwidth

    def hold(self, nbytes: int):
        """Generator: claim the pipe, hold it for the transfer time, release.

        Usage: ``yield from pipe.hold(nbytes)``.
        """
        start = yield from self._slot.hold(self.occupancy(nbytes))
        self.bytes_moved += nbytes
        self.busy_time += self.env.now - start

    @property
    def queue_len(self) -> int:
        return self._slot.queue_len

    def utilization(self, elapsed: float) -> float:
        """Fraction of *elapsed* seconds the pipe was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
