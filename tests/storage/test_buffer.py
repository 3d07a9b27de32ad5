"""Burst-buffer tier: TierSpec contract and absorb/drain behaviour."""

import json

import pytest

from repro.bench import run_checkpoint_trial
from repro.bench.executor import BUFFER_MIN_SPEEDUP, _buffer_grid, run_trials
from repro.errors import ConfigError
from repro.sim.config import RunOptions
from repro.storage.buffer import TIER_MODES, TIER_PLACEMENTS, TierSpec, load_tiers, save_tiers
from repro.units import KiB, MiB, GiB

STATE = 2 * MiB

#: Buffer-fits speedup floor on the dev cluster (the Red Storm slice must
#: clear BUFFER_MIN_SPEEDUP; the dev cluster's slower fabric makes this
#: floor conservative).
MIN_SPEEDUP = 1.5


def _trial(tiers, seed=11, clients=8, servers=4, state=STATE, **opts):
    return run_checkpoint_trial(
        "lwfs", clients, servers, state_bytes=state, seed=seed,
        options=RunOptions(tiers=tiers, **opts),
    )


class TestTierSpec:
    def test_enabled_modes(self):
        assert TIER_MODES == ("buffer", "hostlog")
        assert set(TIER_PLACEMENTS) == {"node-local", "shared"}

    @pytest.mark.parametrize("bad", [
        dict(mode="nvram"),
        dict(placement="rack"),
        dict(capacity_bytes=0),
        dict(absorb_bandwidth=-1),
        dict(drain_bandwidth=0),
        dict(drain_concurrency=0),
        dict(buffer_nodes=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            TierSpec(**bad)

    def test_roundtrip_and_signature(self):
        spec = TierSpec(mode="buffer", placement="shared",
                        capacity_bytes=GiB, drain_concurrency=3)
        back = TierSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.signature() == spec.signature()
        assert spec.signature() != TierSpec(mode="hostlog").signature()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match=r"unknown TierSpec fields: \['nodes'\]"):
            TierSpec.from_dict({"mode": "buffer", "nodes": 4})

    def test_file_roundtrip(self, tmp_path):
        spec = TierSpec(mode="hostlog", capacity_bytes=256 * MiB)
        path = str(tmp_path / "tier.json")
        save_tiers(spec, path)
        assert load_tiers(path) == spec


class TestAbsorbDrain:
    def test_buffer_beats_direct_and_drains_fully(self):
        direct = _trial(None)
        buffered = _trial(TierSpec(mode="buffer", placement="node-local"))
        assert direct.max_elapsed / buffered.max_elapsed >= MIN_SPEEDUP
        e = buffered.extra
        assert e["buffer_drained_mb"] == e["buffer_absorbed_mb"] == 16.0
        assert e["buffer_lost_mb"] == 0.0
        assert e["buffer_drain_incomplete"] == 0.0
        assert e["buffer_drain_tail_s"] > 0.0  # drain finishes after the dump

    def test_undersized_pool_backpressures(self):
        tier = TierSpec(mode="buffer", placement="node-local",
                        capacity_bytes=256 * KiB)
        e = _trial(tier).extra
        assert e["buffer_backpressure_s"] > 0.0
        assert e["buffer_drain_limited"] == 1.0
        # Everything still lands on the backing store eventually.
        assert e["buffer_drained_mb"] == e["buffer_absorbed_mb"]

    def test_shared_and_node_local_account_the_same_totals(self):
        shared = _trial(TierSpec(mode="buffer", placement="shared")).extra
        local = _trial(TierSpec(mode="buffer", placement="node-local")).extra
        assert shared["buffer_absorbed_mb"] == local["buffer_absorbed_mb"]
        assert shared["buffer_drained_mb"] == local["buffer_drained_mb"]

    def test_collapse_reports_whole_class_bytes(self):
        tier = TierSpec(mode="buffer", placement="node-local")
        plain = _trial(tier).extra
        collapsed = _trial(tier, collapse=True).extra
        assert collapsed["buffer_absorbed_mb"] == plain["buffer_absorbed_mb"]
        assert collapsed["buffer_drained_mb"] == plain["buffer_drained_mb"]

    def test_hostlog_drains_fully_too(self):
        e = _trial(TierSpec(mode="hostlog", placement="node-local")).extra
        assert e["buffer_drained_mb"] == e["buffer_absorbed_mb"]
        assert e["buffer_lost_mb"] == 0.0

    def test_seeded_runs_are_bit_identical(self):
        tier = TierSpec(mode="buffer", placement="shared", buffer_nodes=2)
        a, b = _trial(tier), _trial(tier)
        assert a.max_elapsed == b.max_elapsed
        assert a.extra == b.extra


class TestRedStormCrossover:
    """The 128-client Red Storm slice: direct, buffer-fits, drain-limited."""

    def test_fits_beats_direct_and_limited_is_drain_bound(self):
        direct, fits, limited = run_trials(_buffer_grid(), jobs=1, cache=False)
        assert fits.value / direct.value >= BUFFER_MIN_SPEEDUP
        f, lim = fits.buffer_summary, limited.buffer_summary
        assert f["buffer_backpressure_s"] == 0.0
        assert f["buffer_drain_incomplete"] == 0.0
        assert lim["buffer_backpressure_s"] > 0.0
        assert lim["buffer_drain_limited"] == 1.0
