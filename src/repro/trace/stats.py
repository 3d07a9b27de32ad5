"""Kernel-level run statistics, promoted to a stable surface.

``events_processed`` and ``peak_queue_len`` started life as ad-hoc
attributes on :class:`~repro.simkernel.core.Environment`; every consumer
(benchmarks, the sweep executor, trace exports) now reads them through
:func:`kernel_stats` so they land in ``BENCH_sweep.json`` and trace
metadata under one set of key names.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["kernel_stats"]


def kernel_stats(env) -> Dict[str, float]:
    """Uniform simkernel statistics for one environment."""
    stats = {
        "events_processed": env.events_processed,
        "events_skipped_cancelled": env.events_skipped_cancelled,
        # Flow completions retired by the analytic fast-forward engine
        # instead of per-chunk discrete events (repro.network.flow).
        "events_fast_forwarded": getattr(env, "events_fast_forwarded", 0),
        "peak_event_queue": env.peak_queue_len,
        "sim_seconds": env.now,
    }
    flows = getattr(env, "_flow_network", None)
    if flows is not None:
        stats["flows_active"] = flows.flows_peak
        stats["rate_recomputes"] = flows.rate_recomputes
    return stats
