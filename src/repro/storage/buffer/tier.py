"""Typed, serializable burst-buffer tier configuration.

A :class:`TierSpec` is the complete description of the absorb-then-drain
tier interposed between checkpointing clients and backing storage: where
the buffer nodes sit (node-local NVRAM vs shared SSD appliances), how
fast they absorb, how much they hold before backpressure, and how the
background drainer flushes absorbed extents to LWFS objects / Lustre
OSTs.  A run without a tier says ``tiers=None``; it takes the
direct-to-OST path.

Specs round-trip through JSON (``--tiers tiers.json`` on the CLI,
``RunOptions(tiers="tiers.json")`` in code) and hash stably via
:meth:`TierSpec.signature`, which the bench trial cache folds into its
key so a direct-path cached outcome can never answer for a buffered
spec.  The schema mirrors :class:`repro.faults.FaultPlan`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from ...errors import from_fields
from ...units import GiB, KiB, MiB

__all__ = ["TIER_MODES", "TIER_PLACEMENTS", "TierSpec", "load_tiers", "save_tiers"]

#: Tier modes the runtime understands.
TIER_MODES = (
    "buffer",   # absorb into NVRAM extents, drain asynchronously
    "hostlog",  # append-only host-side log, background reorder+flush
)

#: Buffer placements.
TIER_PLACEMENTS = (
    "node-local",  # one buffer per compute node (iFast-style NVRAM/log)
    "shared",      # dedicated buffer appliances on I/O nodes (Cray DataWarp)
)


@dataclass(frozen=True)
class TierSpec:
    """One absorb-then-drain tier.

    ``capacity_bytes`` bounds each buffer node; an absorb that would
    overflow blocks until the drainer frees space (backpressure).
    ``absorb_bandwidth`` is the NVRAM/log ingest rate per buffer node;
    ``drain_bandwidth`` is the per-node read-out rate feeding the backing
    write (which then contends normally at the OSTs over the fabric).
    ``drain_concurrency`` is the number of background drain workers per
    buffer node.  ``buffer_nodes`` only matters for ``shared`` placement
    (node-local tiers put one buffer on every compute node).
    """

    mode: str = "buffer"
    placement: str = "node-local"
    capacity_bytes: int = 2 * GiB
    absorb_bandwidth: float = 2 * GiB  # bytes/s (NVRAM-speed ingest)
    drain_bandwidth: float = 400 * MiB  # bytes/s per buffer node
    drain_concurrency: int = 2
    buffer_nodes: int = 4

    def __post_init__(self) -> None:
        if self.mode not in TIER_MODES:
            raise ValueError(f"unknown tier mode {self.mode!r}; expected one of {TIER_MODES}")
        if self.placement not in TIER_PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; expected one of {TIER_PLACEMENTS}"
            )
        if self.capacity_bytes < 64 * KiB:
            raise ValueError("capacity_bytes unrealistically small")
        if self.absorb_bandwidth <= 0 or self.drain_bandwidth <= 0:
            raise ValueError("absorb/drain bandwidth must be > 0")
        if self.drain_concurrency < 1:
            raise ValueError("drain_concurrency must be >= 1")
        if self.buffer_nodes < 1:
            raise ValueError("buffer_nodes must be >= 1")

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TierSpec":
        return from_fields(cls, doc)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def signature(self) -> str:
        """Stable content hash: part of the trial cache key."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_tiers(path: str) -> TierSpec:
    """Read a :class:`TierSpec` from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return TierSpec.from_dict(json.load(fh))


def save_tiers(spec: TierSpec, path: str) -> None:
    spec.dump(path)
