"""Trace determinism and overhead.

Traces must be bit-identical across (a) repeated runs in one process —
process-global counters like RPC request ids must not leak into span
identity, (b) the fabric fast path on/off, and (c) serial vs parallel
sweep execution.  And with no tracer installed the instrumentation must
not change the simulation at all.
"""

import time

import pytest

import repro.network.fabric as fabric_mod
from repro.bench import run_checkpoint_trial
from repro.bench.executor import checkpoint_spec, run_trials
from repro.sim.config import RunOptions
from repro.units import MiB

POINT = dict(impl="lwfs", n_clients=4, n_servers=2, state_bytes=2 * MiB, seed=9)
TRACED = RunOptions(trace=True)


def _keys(trial):
    return [span.key() for span in trial.trace]


def test_trace_identical_across_reruns():
    # Second run starts with shifted process-global counters (request ids,
    # portals match bits); the trace must not see them.
    a = run_checkpoint_trial(**POINT, options=TRACED)
    b = run_checkpoint_trial(**POINT, options=TRACED)
    assert _keys(a) == _keys(b)


def test_trace_identical_fastpath_on_and_off():
    results = {}
    for enabled in (False, True):
        saved = fabric_mod.FASTPATH
        fabric_mod.FASTPATH = enabled
        try:
            results[enabled] = run_checkpoint_trial(**POINT, options=TRACED)
        finally:
            fabric_mod.FASTPATH = saved
    assert _keys(results[False]) == _keys(results[True])
    assert results[False].max_elapsed == results[True].max_elapsed
    # The queued reference path spends extra kernel events on pipe
    # request/release turns; equal counts would mean both legs ran the
    # fast path.
    events = {k: r.extra["events_processed"] for k, r in results.items()}
    assert events[False] != events[True], events


def test_trace_identical_serial_vs_parallel_sweep():
    specs = [
        checkpoint_spec("lwfs", 4, 2, seed=100 + t, state_bytes=2 * MiB, options=TRACED)
        for t in range(3)
    ]
    serial = run_trials(specs, jobs=1)
    parallel = run_trials(specs, jobs=2)
    for s, p in zip(serial, parallel):
        assert s.value == p.value
        assert [sp.key() for sp in s.trace] == [sp.key() for sp in p.trace]
        assert s.trace_summary == p.trace_summary
        assert s.sim_seconds == p.sim_seconds


def test_tracing_does_not_perturb_the_simulation():
    plain = run_checkpoint_trial(**POINT)
    traced = run_checkpoint_trial(**POINT, options=TRACED)
    # Recording spans schedules no events and reads the clock only.
    assert plain.extra["events_processed"] == traced.extra["events_processed"]
    assert plain.extra["peak_event_queue"] == traced.extra["peak_event_queue"]
    assert plain.extra["sim_seconds"] == traced.extra["sim_seconds"]
    assert plain.max_elapsed == traced.max_elapsed
    assert plain.throughput_mb_s == traced.throughput_mb_s


def test_disabled_tracing_event_rate_canary():
    # Gross-regression canary for the disabled hot path (one attribute
    # check per site).  The floor is ~10x below typical interpreter
    # speed, so it only trips if the guard pattern is broken badly
    # (e.g. spans allocated with no tracer installed).
    result = run_checkpoint_trial(**POINT)  # warm caches
    start = time.perf_counter()
    result = run_checkpoint_trial(**POINT)
    wall = time.perf_counter() - start
    rate = result.extra["events_processed"] / wall
    assert result.trace is None
    assert rate > 10_000, f"disabled-tracing event rate collapsed: {rate:.0f}/s"
