"""Tier plumbing through RunOptions and the cache key."""

import pytest

from repro.bench import run_checkpoint_trial
from repro.bench.cache import TrialCache, trial_key
from repro.bench.executor import checkpoint_spec
from repro.sim.config import RunOptions
from repro.storage.buffer import TierSpec
from repro.units import MiB

STATE = 4 * MiB


def _run(tiers, impl="lwfs"):
    return run_checkpoint_trial(
        impl, 8, 4, state_bytes=STATE, seed=13, options=RunOptions(tiers=tiers),
    )


class TestKillSwitch:
    def test_string_is_loaded_as_a_path(self, tmp_path):
        spec = TierSpec(mode="hostlog")
        path = str(tmp_path / "tier.json")
        spec.save(path)
        assert RunOptions(tiers=path).resolved().tiers == spec


class TestDispatch:
    def test_tier_requires_the_lwfs_stack(self):
        with pytest.raises(ValueError, match="lwfs"):
            _run(TierSpec(mode="buffer"), impl="lustre-fpp")


class TestCacheKey:
    def _spec(self, **params):
        return checkpoint_spec("lwfs", 4, 2, seed=13, state_bytes=STATE, **params)

    def test_tier_spec_changes_the_key(self):
        base = trial_key(self._spec())
        buffered = trial_key(self._spec(
            options=RunOptions(tiers=TierSpec(mode="buffer"))))
        assert buffered != base
        hostlog = trial_key(self._spec(
            options=RunOptions(tiers=TierSpec(mode="hostlog"))))
        assert hostlog not in (base, buffered)

    def test_capacity_changes_the_key(self):
        small = trial_key(self._spec(options=RunOptions(
            tiers=TierSpec(mode="buffer", capacity_bytes=MiB))))
        big = trial_key(self._spec(options=RunOptions(
            tiers=TierSpec(mode="buffer", capacity_bytes=2 * MiB))))
        assert small != big

    def test_tiered_trials_stay_cacheable(self):
        assert TrialCache.cacheable(self._spec(
            options=RunOptions(tiers=TierSpec(mode="buffer")))) is True
