"""Fast-forward contracts that hold outside flow-mode benchmarks.

Contract under test:

* **fast-forward under chaos** — a fault plan disables the analytic
  epoch-skip engine, so every chaos scenario is bit-identical with
  ``fastforward=True`` and ``False`` (the fallback *is* the reference);
* **flow-grid equivalence** — on flow-mode dumps big enough to keep many
  concurrent flows live, the engine on and off agree on the figure of
  merit to 1e-9 (floating-point reassociation, not model error), and the
  engine actually retires completions analytically;
* **cache identity** — the ``REPRO_FASTFORWARD`` kill switch is part of
  the trial-cache key, so a fast-forwarded outcome never answers for a
  reference run.
"""

import pytest

from repro.bench import run_checkpoint_trial
from repro.bench.cache import trial_key
from repro.bench.executor import checkpoint_spec
from repro.sim.config import RunOptions
from repro.units import MiB

from ..faults.test_injection import SCENARIOS

STATE = 8 * MiB


class TestChaosFastForwardFallback:
    """A fault plan forces the epoch-skip engine off; the fallback must
    reproduce the reference (``fastforward=False``) timeline bit-exact on
    every chaos scenario."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_bit_identical_with_and_without_fastforward(self, name):
        impl, mk = SCENARIOS[name]

        def run(fastforward):
            return run_checkpoint_trial(
                impl, 8, 4, state_bytes=STATE, seed=42,
                options=RunOptions(flow=True, faults=mk(),
                                   fastforward=fastforward),
            )

        fast, ref = run(True), run(False)
        assert fast.extra.get("events_fast_forwarded", 0) == 0
        assert fast.max_elapsed == ref.max_elapsed
        assert fast.mean_elapsed == ref.mean_elapsed
        assert fast.extra == ref.extra
        assert fast.fault_log == ref.fault_log


#: Fast-forward vs reference flow arithmetic: floating-point noise only.
FF_REL_TOL = 1e-9


class TestFlowGridEquivalence:
    @pytest.mark.parametrize("n,m", [(8, 4), (16, 8)])
    @pytest.mark.parametrize("impl", ["lwfs", "lustre-fpp"])
    def test_within_1e9_and_fast_forwards(self, impl, n, m):
        def run(fastforward):
            return run_checkpoint_trial(
                impl, n, m, state_bytes=32 * MiB, seed=400,
                options=RunOptions(flow=True, fastforward=fastforward),
            )

        fast, ref = run(True), run(False)
        assert fast.extra["events_fast_forwarded"] > 0
        rel = abs(fast.throughput_mb_s - ref.throughput_mb_s) / ref.throughput_mb_s
        assert rel <= FF_REL_TOL, (fast.throughput_mb_s, ref.throughput_mb_s)


class TestCacheKeySensitivity:
    def test_fastforward_kill_switch_folds_into_trial_key(self, monkeypatch):
        spec = checkpoint_spec("lwfs", 8, 4, seed=1, state_bytes=STATE)
        monkeypatch.delenv("REPRO_FASTFORWARD", raising=False)
        base = trial_key(spec)
        monkeypatch.setenv("REPRO_FASTFORWARD", "0")
        assert trial_key(spec) != base
