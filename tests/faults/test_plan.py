"""FaultPlan schedules: validation, JSON round-trip, stable hashing."""

import json
import re

import pytest

from repro.errors import ConfigError
from repro.faults import FAULT_KINDS, FaultEvent, FaultPlan, RetryPolicy, load_plan


def _full_plan():
    return FaultPlan(
        events=(
            FaultEvent(kind="server_crash", at=0.05, target="stor0", duration=0.1),
            FaultEvent(kind="disk_stall", at=0.02, target="stor1", duration=0.03),
            FaultEvent(kind="link_degrade", at=0.04, target="node:3",
                       duration=0.05, factor=0.25),
            FaultEvent(kind="partition", at=0.06, duration=0.02,
                       targets=("stor0", "stor1")),
            FaultEvent(kind="revoke_storm", at=0.08, target="authz"),
        ),
        rpc_drop_rate=0.05,
        rpc_dup_rate=0.02,
        retry=RetryPolicy(attempts=4, base_delay=0.005, timeout=0.2),
        seed=99,
    )


class TestValidation:
    def test_every_documented_kind_constructs(self):
        for kind in FAULT_KINDS:
            targets = ("stor0",) if kind == "partition" else ()
            FaultEvent(kind=kind, at=0.0, target="stor0", targets=targets)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor_strike", at=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="server_crash", at=-1.0, target="stor0")

    def test_partition_needs_targets(self):
        with pytest.raises(ValueError, match="targets"):
            FaultEvent(kind="partition", at=0.0)

    def test_degrade_factor_bounds(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="link_degrade", at=0.0, target="stor0", factor=0.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="link_degrade", at=0.0, target="stor0", factor=1.5)

    def test_rates_bounded(self):
        with pytest.raises(ValueError, match="rpc_drop_rate"):
            FaultPlan(rpc_drop_rate=1.0)

    def test_retry_policy_bounds(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.5, max_delay=0.1)


class TestRoundTrip:
    def test_dict_round_trip(self):
        plan = _full_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_file_round_trip(self, tmp_path):
        plan = _full_plan()
        path = str(tmp_path / "plan.json")
        plan.dump(path)
        assert load_plan(path) == plan

    def test_json_is_plain_data(self, tmp_path):
        path = str(tmp_path / "plan.json")
        _full_plan().dump(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["seed"] == 99
        assert doc["events"][0]["kind"] == "server_crash"

    def test_defaults_survive_sparse_json(self, tmp_path):
        path = str(tmp_path / "sparse.json")
        with open(path, "w") as fh:
            json.dump({"events": [{"kind": "server_crash", "at": 0.1,
                                   "target": "stor0"}]}, fh)
        plan = load_plan(path)
        assert plan.rpc_drop_rate == 0.0
        assert plan.retry == RetryPolicy()
        assert plan.events[0].duration == 0.0  # permanent crash

    def test_explicit_null_retry_turns_retries_off(self):
        assert FaultPlan.from_dict({"retry": None}).retry is None

    @pytest.mark.parametrize("doc,names", [
        ({"retries": {"attempts": 3}}, "FaultPlan fields: ['retries']"),
        ({"events": [{"kind": "server_crash", "at": 0.1, "tagret": "stor0"}]},
         "FaultEvent fields: ['tagret']"),
        ({"retry": {"attempt": 3}}, "RetryPolicy fields: ['attempt']"),
    ])
    def test_unknown_keys_are_named(self, doc, names):
        with pytest.raises(ConfigError, match=re.escape(names)):
            FaultPlan.from_dict(doc)


class TestSignature:
    def test_stable_across_round_trip(self, tmp_path):
        plan = _full_plan()
        path = str(tmp_path / "plan.json")
        plan.dump(path)
        assert load_plan(path).signature() == plan.signature()

    def test_any_field_changes_the_hash(self):
        base = _full_plan().signature()
        assert FaultPlan(seed=1).signature() != base
        shifted = _full_plan()
        bumped = FaultPlan(
            events=shifted.events[1:], rpc_drop_rate=shifted.rpc_drop_rate,
            rpc_dup_rate=shifted.rpc_dup_rate, retry=shifted.retry,
            seed=shifted.seed,
        )
        assert bumped.signature() != base
