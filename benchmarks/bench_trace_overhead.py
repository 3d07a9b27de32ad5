"""Instrumentation overhead benchmarks: observing must not perturb.

``test_trace_overhead`` runs the same checkpoint trial with tracing
disabled and enabled and reports wall-clock plus the span count.  The
disabled run must process exactly the same simulated events as the seed
code path (the instrumentation is a single attribute check per site),
and the enabled run must leave the simulated clock untouched (recording
spans never schedules events).

``test_metrics_overhead`` is the metrics sampler's host-time budget: a
metered run stays within :data:`METRICS_OVERHEAD_LIMIT` of the plain run
(or :data:`METRICS_ABS_SLACK_S` above it), and its exported document
shows zero simulated-time perturbation and validates against
``repro-metrics/v1``.
"""

import json
import time

import pytest

from repro.bench import run_checkpoint_trial
from repro.metrics import validate_metrics_doc
from repro.sim.config import RunOptions
from repro.units import MiB

from conftest import run_once

POINT = dict(impl="lwfs", n_clients=16, n_servers=8, state_bytes=16 * MiB, seed=3)

#: Metered wall-clock may exceed plain by at most this factor...
METRICS_OVERHEAD_LIMIT = 1.05
#: ...or by this many absolute seconds, whichever is larger.  The
#: sampler's cost is constant per run (~TARGET_SAMPLES ticks x
#: instrument count, ~10 ms), so on loaded hosts scheduler noise of tens
#: of ms can read as >5% of a ~1 s base; a real regression (say,
#: sampling going O(events)) costs seconds and trips both terms.
METRICS_ABS_SLACK_S = 0.1
#: Best-of-N wall-clock comparison, interleaved after one warm-up run
#: (first runs pay warm-up; best-of soaks up scheduler noise).
METRICS_RUNS = 5
#: The sampler's cost is fixed (~10 ms of host time regardless of
#: workload), so the 5% budget needs a base run long enough to resolve
#: 5%: the 16-client POINT finishes in ~30 ms of host time, where the
#: constant sampling cost reads as 15% though a real workload never
#: notices it.
METRICS_POINT = dict(impl="lwfs", n_clients=64, n_servers=8,
                     state_bytes=256 * MiB, seed=3)


def _run_both():
    t0 = time.perf_counter()
    plain = run_checkpoint_trial(**POINT)
    t_plain = time.perf_counter() - t0

    t0 = time.perf_counter()
    traced = run_checkpoint_trial(**POINT, options=RunOptions(trace=True))
    t_traced = time.perf_counter() - t0

    return {
        "wall_plain_s": t_plain,
        "wall_traced_s": t_traced,
        "overhead_ratio": t_traced / t_plain if t_plain > 0 else 0.0,
        "events_plain": plain.extra["events_processed"],
        "events_traced": traced.extra["events_processed"],
        "sim_seconds_plain": plain.extra["sim_seconds"],
        "sim_seconds_traced": traced.extra["sim_seconds"],
        "spans": len(traced.trace),
    }


def test_trace_overhead(benchmark):
    stats = run_once(benchmark, _run_both)
    print()
    print(
        f"trace overhead: plain {stats['wall_plain_s']:.3f}s, "
        f"traced {stats['wall_traced_s']:.3f}s "
        f"({stats['overhead_ratio']:.2f}x, {stats['spans']} spans)"
    )
    from repro.bench import save_json

    save_json("trace_overhead", stats)
    # Tracing observes the simulation; it must not perturb it.
    assert stats["events_plain"] == stats["events_traced"]
    assert stats["sim_seconds_plain"] == pytest.approx(
        stats["sim_seconds_traced"], rel=0, abs=0
    )
    assert stats["spans"] > 0


def _timed(metrics):
    t0 = time.perf_counter()
    trial = run_checkpoint_trial(**METRICS_POINT,
                                 options=RunOptions(metrics=metrics))
    return trial, time.perf_counter() - t0


def _metrics_both():
    _timed(False)  # warm-up
    walls = {False: [], True: []}
    trials = {}
    for _ in range(METRICS_RUNS):
        for metrics in (False, True):
            trials[metrics], wall = _timed(metrics)
            walls[metrics].append(wall)
    return trials[False], trials[True], min(walls[False]), min(walls[True])


def test_metrics_overhead(benchmark):
    plain, metered, wall_plain, wall_metered = run_once(benchmark, _metrics_both)
    ratio = wall_metered / wall_plain
    print()
    print(f"metrics overhead: plain {wall_plain:.3f}s, metered "
          f"{wall_metered:.3f}s ({ratio:.3f}x, best of {METRICS_RUNS})")
    # Zero perturbation: the sampler only reads state, so the simulated
    # clock is identical and the only extra events are its own ticks.
    assert metered.extra["sim_seconds"] == plain.extra["sim_seconds"]
    event_delta = (metered.extra["events_processed"]
                   - plain.extra["events_processed"])
    assert event_delta == metered.extra["metrics_ticks"]
    assert validate_metrics_doc(json.loads(json.dumps(metered.metrics))) == []
    assert (ratio <= METRICS_OVERHEAD_LIMIT
            or wall_metered - wall_plain <= METRICS_ABS_SLACK_S), (
        f"metered {wall_metered:.3f}s vs plain {wall_plain:.3f}s ({ratio:.3f}x)"
    )
