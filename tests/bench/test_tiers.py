"""Tier plumbing through RunOptions, the cache key, and the kill switch."""

import pytest

from repro.bench import run_checkpoint_trial
from repro.bench.cache import TrialCache, trial_key
from repro.bench.executor import checkpoint_spec
from repro.sim.config import RunOptions
from repro.storage.buffer import TierSpec, save_tiers
from repro.units import MiB

STATE = 4 * MiB

#: Every figure of merit that must be bit-identical under the kill switch.
FIELDS = ("max_elapsed", "mean_elapsed", "throughput_mb_s",
          "create_max_elapsed")


def _merits(trial):
    return {k: getattr(trial, k) for k in FIELDS}


def _run(tiers, impl="lwfs", **opts):
    return run_checkpoint_trial(
        impl, 8, 4, state_bytes=STATE, seed=13,
        options=RunOptions(tiers=tiers, **opts),
    )


class TestKillSwitch:
    @pytest.mark.parametrize("engines", [
        {},
        {"collapse": True},
        {"flow": True},
        {"collapse": True, "flow": True},
        {"fastforward": False},
        {"collapse": True, "flow": True, "fastforward": False},
    ])
    def test_passthrough_is_bit_identical_to_unset(self, engines):
        assert _merits(_run(None, **engines)) == \
            _merits(_run(TierSpec(mode="passthrough"), **engines))

    def test_passthrough_adds_no_buffer_stats(self):
        assert "buffer_nodes" not in _run(TierSpec(mode="passthrough")).extra

    def test_env_path_resolves(self, monkeypatch, tmp_path):
        spec = TierSpec(mode="buffer", placement="shared")
        path = str(tmp_path / "tier.json")
        save_tiers(spec, path)
        monkeypatch.setenv("REPRO_TIERS", path)
        assert RunOptions().resolved().tiers == spec
        # Explicit value beats the environment.
        assert RunOptions(tiers=TierSpec()).resolved().tiers == TierSpec()

    def test_string_is_loaded_as_a_path(self, tmp_path):
        spec = TierSpec(mode="hostlog")
        path = str(tmp_path / "tier.json")
        save_tiers(spec, path)
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
