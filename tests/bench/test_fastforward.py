"""Fast-forward contracts that hold outside flow-mode benchmarks.

Contract under test:

* **fast-forward under chaos** — a fault plan disables the analytic
  epoch-skip engine, so every chaos scenario is bit-identical with
  ``fastforward=True`` and ``False`` (the fallback *is* the reference);
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


class TestCacheKeySensitivity:
    def test_fastforward_kill_switch_folds_into_trial_key(self, monkeypatch):
        spec = checkpoint_spec("lwfs", 8, 4, seed=1, state_bytes=STATE)
        monkeypatch.delenv("REPRO_FASTFORWARD", raising=False)
        base = trial_key(spec)
        monkeypatch.setenv("REPRO_FASTFORWARD", "0")
        assert trial_key(spec) != base
