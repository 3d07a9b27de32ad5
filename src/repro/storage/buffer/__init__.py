"""Burst-buffer absorb-then-drain tier (ROADMAP item 2).

Its contracts (spec round-trip, absorb speedup, drain-limited
backpressure, crash recovery) are pinned by
``tests/storage/test_buffer.py``, ``tests/bench/test_tiers.py`` and
``tests/faults/test_buffer_crash.py``.
"""

from .node import BufferNode, BufferTierRuntime, Extent
from .tier import TIER_MODES, TIER_PLACEMENTS, TierSpec, load_tiers, save_tiers

__all__ = [
    "TIER_MODES",
    "TIER_PLACEMENTS",
    "TierSpec",
    "load_tiers",
    "save_tiers",
    "BufferNode",
    "BufferTierRuntime",
    "Extent",
]
