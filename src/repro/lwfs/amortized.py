"""Amortized analysis of capability verification (paper §3.1.2).

The paper asserts: "An amortized analysis of this approach proves that
given the computing environment for MPPs, the amortized impact of this
additional communication is minimal; however, space restrictions do not
allow a complete explanation of our analysis."

This module supplies that analysis.  Under the caching scheme, each
storage server pays one verify round trip per *distinct capability* it
ever sees (per epoch); every subsequent use hits the cache.  For an
application making ``A`` accesses with ``k`` capabilities spread over
``m`` servers, the extra communication is at most ``k * m`` round trips
regardless of ``A`` — so the per-access overhead vanishes as the run
lengthens.  The shared-key scheme (NASD/T10) has zero extra round trips
but requires the authorization service to trust every storage server with
the signing key.

``bench_ablation_verifycache`` checks the closed forms below against the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VerifyCostModel", "CostBreakdown"]


@dataclass(frozen=True)
class CostBreakdown:
    """Totals for one scheme over one workload."""

    scheme: str
    verify_messages: int
    verify_seconds: float
    per_access_overhead: float
    fraction_of_io_time: float


@dataclass(frozen=True)
class VerifyCostModel:
    """Closed-form costs of the three verification schemes.

    Parameters
    ----------
    n_clients:
        application processes (n in the paper's rules of §2.3).
    n_servers:
        storage servers touched by the application (m).
    n_caps:
        distinct capabilities in use (k); the checkpoint uses ~2.
    accesses_per_client:
        I/O requests each client issues (A/n).
    verify_rtt:
        round-trip time of one verify RPC to the authorization service.
    io_time_per_access:
        time one data access takes (for the "fraction of I/O time" ratio).
    """

    n_clients: int
    n_servers: int
    n_caps: int
    accesses_per_client: int
    verify_rtt: float
    io_time_per_access: float

    @property
    def total_accesses(self) -> int:
        return self.n_clients * self.accesses_per_client

    def _breakdown(self, scheme: str, messages: int) -> CostBreakdown:
        seconds = messages * self.verify_rtt
        accesses = max(1, self.total_accesses)
        io_time = accesses * self.io_time_per_access
        return CostBreakdown(
            scheme=scheme,
            verify_messages=messages,
            verify_seconds=seconds,
            per_access_overhead=seconds / accesses,
            fraction_of_io_time=seconds / io_time if io_time > 0 else float("inf"),
        )

    def caching(self) -> CostBreakdown:
        """LWFS scheme: one verify per (capability, server) pair, ever."""
        return self._breakdown("lwfs-caching", self.n_caps * self.n_servers)

    def no_cache(self) -> CostBreakdown:
        """Strawman: verify every access at the authorization server.

        This is what §2.4 calls the unscalable design — the authorization
        server sees O(A) messages and becomes the metadata-server
        bottleneck all over again.
        """
        return self._breakdown("no-cache", self.total_accesses)

    def shared_key(self) -> CostBreakdown:
        """NASD/T10 scheme: servers verify locally with the shared key.

        Zero verify messages — bought by trusting every storage server
        with the capability-signing secret (the trade §3.1.2 rejects).
        """
        return self._breakdown("shared-key", 0)

    def accesses_to_amortize(self, target_fraction: float = 0.01) -> int:
        """Total accesses needed before caching overhead ≤ *target_fraction*
        of I/O time."""
        if target_fraction <= 0:
            raise ValueError("target_fraction must be positive")
        needed = (self.n_caps * self.n_servers * self.verify_rtt) / (
            target_fraction * self.io_time_per_access
        )
        import math

        return int(math.ceil(needed))
