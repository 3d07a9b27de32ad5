"""Lazy event cancellation: tombstones vs. the eager reference path.

Cancellation is semantics, not an optimisation — both modes must produce
bit-identical simulated timelines.  Only the *accounting* counters
(``events_skipped_cancelled``, ``peak_event_queue``) may differ: the lazy
path leaves tombstones in the heap and skips them at pop, the eager path
excises entries immediately.
"""

import pytest

from repro.bench import run_checkpoint_trial, run_create_trial
from repro.sim.config import RunOptions
from repro.simkernel import Environment
from repro.simkernel import core as simkernel_core
from repro.trace import kernel_stats


@pytest.fixture(params=[True, False], ids=["lazy", "eager"])
def both_modes(request):
    return request.param


def _timer_race(env, n=50):
    """n racing pairs: a short winner cancels a long loser timer."""
    log = []

    def racer(i):
        winner = env.timeout(1.0 + i * 0.01)
        loser = env.timeout(100.0 + i)
        yield winner
        loser.cancel()
        log.append((i, env.now))

    for i in range(n):
        env.process(racer(i))
    env.run()
    return log


class TestKernelSemantics:
    def test_timelines_identical_across_modes(self):
        lazy_env = Environment(lazy=True)
        eager_env = Environment(lazy=False)
        assert _timer_race(lazy_env) == _timer_race(eager_env)
        assert lazy_env.now == eager_env.now
        # All 50 winners fired before t=2; none of the cancelled losers
        # ran their callbacks in either mode.
        log = _timer_race(Environment(lazy=True))
        assert len(log) == 50 and all(t < 2.0 for _, t in log)

    def test_skip_accounting_is_mode_independent(self, both_modes):
        # Cancellation is semantics, not an optimisation: tombstones are
        # discarded at pop in BOTH modes, one skip per cancelled timer.
        env = Environment(lazy=both_modes)
        _timer_race(env)
        assert kernel_stats(env)["events_skipped_cancelled"] == 50
        assert env.events_cancelled == 50

    def test_timeout_pool_recycles_only_in_lazy_mode(self, both_modes):
        env = Environment(lazy=both_modes)
        _timer_race(env)
        # The retired losers feed the free list in lazy mode, so fresh
        # timers come from the pool instead of the allocator.
        for _ in range(8):
            env.timeout(1.0)
        env.run()
        if both_modes:
            assert env.timeouts_recycled > 0
        else:
            assert env.timeouts_recycled == 0

    def test_cancel_after_fire_is_noop(self, both_modes):
        env = Environment(lazy=both_modes)
        t = env.timeout(1.0)
        env.run()
        assert not t.cancel()
        assert env.now == 1.0


def _with_lazy(flag, fn, *args, **kwargs):
    saved = simkernel_core.LAZY
    simkernel_core.LAZY = flag
    try:
        return fn(*args, **kwargs)
    finally:
        simkernel_core.LAZY = saved


def _span_keys(trace):
    return [(s.name, s.kind, s.start, s.end) for s in trace]


class TestTrialEquivalence:
    """Full-stack trials are bit-identical with the optimisation on/off.

    Only deterministic simulation outputs are compared — figure of merit,
    elapsed simulated time, events processed, trace spans.  The skip and
    peak-queue counters are explicitly *not* compared: they describe how
    the heap was managed, which is exactly what differs between modes.
    """

    def test_checkpoint_trial_bit_identical(self):
        lazy = _with_lazy(
            True, run_checkpoint_trial, "lwfs", 4, 2, seed=11, state_bytes=4 << 20
        )
        eager = _with_lazy(
            False, run_checkpoint_trial, "lwfs", 4, 2, seed=11, state_bytes=4 << 20
        )
        assert lazy.throughput_mb_s == eager.throughput_mb_s
        assert lazy.max_elapsed == eager.max_elapsed
        assert lazy.mean_elapsed == eager.mean_elapsed
        assert lazy.extra["events_processed"] == eager.extra["events_processed"]

    def test_create_trial_bit_identical_with_trace(self):
        traced = RunOptions(trace=True)
        lazy = _with_lazy(
            True, run_create_trial, "lwfs", 8, 4, seed=11, creates_per_client=16,
            options=traced,
        )
        eager = _with_lazy(
            False, run_create_trial, "lwfs", 8, 4, seed=11, creates_per_client=16,
            options=traced,
        )
        assert lazy.extra["creates_per_s"] == eager.extra["creates_per_s"]
        assert lazy.extra["events_processed"] == eager.extra["events_processed"]
        assert _span_keys(lazy.trace) == _span_keys(eager.trace)
        # The RPC replies raced (and cancelled) timeout timers, which must
        # surface as pop-time skips.  The skip/peak counters describe heap
        # management and are deliberately not compared across modes.
        assert lazy.extra["events_skipped_cancelled"] > 0
