"""Run specs: one typed JSON form, fuzzed.

Fault plans, tier specs and workloads load through
:class:`repro.jsonspec.JsonSpec`.  Whatever document arrives, loading it
either builds a spec or raises :class:`~repro.errors.ConfigError`;
nothing else escapes, so a malformed spec cannot crash deep inside a
run.  A loaded spec survives a JSON round trip with the same signature.
"""

import copy
import glob
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.storage.buffer import TierSpec
from repro.workload import WorkloadSpec

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
SPECS = {"faults": FaultPlan, "tiers": TierSpec, "workloads": WorkloadSpec}
EXAMPLE_PATHS = [
    (SPECS[kind], path)
    for kind in sorted(SPECS)
    for path in sorted(glob.glob(os.path.join(EXAMPLES, kind, "*.json")))
]


def _doc(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


EXAMPLE_DOCS = [(spec, _doc(path)) for spec, path in EXAMPLE_PATHS]

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

#: Values the checks must reject (bools, NaN, infinities, ints too large
#: for a float, strings for lists) next to spellings the specs use, so
#: that drawn documents also get past the key check.
AWKWARD = [None, True, False, 0, 1, -1, 0.5, 1.5, 2**63, 10**400,
           math.nan, math.inf, -math.inf, "", "stor0", "node:3",
           "buffer", "shared", "poisson", "create"]
LEAVES = (
    st.sampled_from(AWKWARD)
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
KEYS = st.text(max_size=6) | st.sampled_from(
    ["events", "retry", "seed", "mode", "classes", "horizon", "name", "tenants", "rate"]
)
JSON = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=12,
)


def _nodes(doc, path=()):
    """Every path into *doc*, with whether the node there is a leaf (a
    scalar or an empty container)."""
    if isinstance(doc, dict):
        children = list(doc.items())
    elif isinstance(doc, list):
        children = list(enumerate(doc))
    else:
        children = []
    yield path, not children
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _load_or_reject(spec, doc):
    """Load *doc*; a :class:`ConfigError` is the only allowed failure."""
    try:
        loaded = spec.from_dict(doc)
    except ConfigError:
        return None
    back = spec.from_dict(json.loads(json.dumps(loaded.to_dict())))
    assert back == loaded
    assert back.signature() == loaded.signature()
    return loaded


class TestFuzz:
    @FUZZ
    @given(spec=st.sampled_from([FaultPlan, TierSpec, WorkloadSpec]), doc=JSON)
    def test_arbitrary_json(self, spec, doc):
        _load_or_reject(spec, doc)

    @FUZZ
    @given(data=st.data(), value=LEAVES | JSON)
    def test_one_leaf_mutated(self, data, value):
        spec, doc = data.draw(st.sampled_from(EXAMPLE_DOCS))
        path = data.draw(st.sampled_from([p for p, leaf in _nodes(doc) if leaf and p]))
        doc = copy.deepcopy(doc)
        _at(doc, path[:-1])[path[-1]] = value
        _load_or_reject(spec, doc)

    @FUZZ
    @given(data=st.data(), key=KEYS, value=JSON)
    def test_one_extra_key(self, data, key, value):
        spec, doc = data.draw(st.sampled_from(EXAMPLE_DOCS))
        path = data.draw(st.sampled_from(
            [p for p, _ in _nodes(doc) if isinstance(_at(doc, p), dict)]))
        doc = copy.deepcopy(doc)
        extra = key not in _at(doc, path)
        _at(doc, path)[key] = value
        if _load_or_reject(spec, doc) is not None and extra:
            # Only TenantClass.op_mix takes keys of its own (op names).
            assert path[-1:] == ("op_mix",)


class TestEveryLeaf:
    @pytest.mark.parametrize("spec, path", EXAMPLE_PATHS,
                             ids=[os.path.basename(p) for _, p in EXAMPLE_PATHS])
    def test_takes_every_awkward_value(self, spec, path):
        # Exhaustive where the draws above are sparse: a NaN in a time
        # field is one leaf and one value among thousands of draws.
        doc = _doc(path)
        for leaf in [p for p, is_leaf in _nodes(doc) if is_leaf and p]:
            for value in AWKWARD + [[], {}, ["stor0"]]:
                mutated = copy.deepcopy(doc)
                _at(mutated, leaf[:-1])[leaf[-1]] = value
                _load_or_reject(spec, mutated)


class TestExamples:
    @pytest.mark.parametrize("spec, path", EXAMPLE_PATHS,
                             ids=[os.path.basename(p) for _, p in EXAMPLE_PATHS])
    def test_loads_and_round_trips(self, spec, path):
        assert _load_or_reject(spec, _doc(path)) == spec.load(path)

    def test_signatures_of_the_hand_written_serializers(self):
        # These hashes key the bench trial cache; they were computed by
        # the per-class serializers JsonSpec replaced.
        assert FaultPlan().signature() == (
            "c2e587143e17f5d150a7c2d8c31fc0f69aa78fd73121506e3c0b51e32e93cec8")
        assert TierSpec().signature() == (
            "2c2e578dcaf189676aea74f9383b84519cb86b590556343be233f715260b4254")

    def test_save_then_load(self, tmp_path):
        for spec, path in EXAMPLE_PATHS:
            loaded = spec.load(path)
            out = str(tmp_path / os.path.basename(path))
            loaded.save(out)
            assert spec.load(out) == loaded
            with open(out, encoding="utf-8") as fh:
                assert fh.read().endswith("}\n")


_CLASS = {"name": "c", "tenants": 10, "rate": 5.0}


class TestMalformed:
    """Documents that loaded wrongly or crashed with a bare error before
    the specs shared one typed loader."""

    @pytest.mark.parametrize("spec, doc, named", [
        (FaultPlan, {"retry": 3}, "FaultPlan.retry"),
        (FaultPlan, {"rpc_drop_rate": "high"}, "FaultPlan.rpc_drop_rate"),
        (FaultPlan, {"events": [{"kind": "server_crash", "at": math.nan,
                                 "target": "stor0"}]}, "FaultEvent.at"),
        (FaultPlan, {"events": [{"kind": "partition", "at": 0.1,
                                 "targets": "stor0"}]}, "FaultEvent.targets"),
        (TierSpec, {"drain_concurrency": 1.5}, "TierSpec.drain_concurrency"),
        (TierSpec, {"capacity_bytes": 1e12}, "TierSpec.capacity_bytes"),
        (WorkloadSpec, {"classes": [_CLASS], "horizen": 30},
         "WorkloadSpec fields: ['horizen']"),
        (WorkloadSpec, {"classes": [dict(_CLASS, tenants="ten")]}, "TenantClass.tenants"),
        (WorkloadSpec, {"classes": [dict(_CLASS, op_mix=[["create", 1.0]])]},
         "TenantClass.op_mix"),
        (FaultPlan, [{"kind": "server_crash", "at": 0.1}], "FaultPlan: expected a JSON object"),
    ], ids=["retry-int", "rate-string", "at-nan", "targets-string", "concurrency-float",
            "capacity-float", "horizon-typo", "tenants-string", "op-mix-list", "plan-list"])
    def test_raises_config_error_naming_the_field(self, spec, doc, named):
        with pytest.raises(ConfigError) as exc:
            spec.from_dict(doc)
        assert named in str(exc.value)

    def test_constructor_checks_name_the_spec(self):
        with pytest.raises(ConfigError, match="TierSpec: drain_concurrency must be >= 1"):
            TierSpec.from_dict({"drain_concurrency": 0})
        with pytest.raises(ConfigError, match="WorkloadSpec: .*'classes'"):
            WorkloadSpec.from_dict({})

    def test_bool_is_not_a_number_and_ints_stay_ints(self):
        with pytest.raises(ConfigError, match="TierSpec.buffer_nodes"):
            TierSpec.from_dict({"buffer_nodes": True})
        assert type(TierSpec.from_dict({"absorb_bandwidth": 1024}).absorb_bandwidth) is int

    def test_undecodable_or_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"mode": ')
        with pytest.raises(ConfigError, match="broken.json"):
            TierSpec.load(str(path))
        with pytest.raises(ConfigError, match="missing.json"):
            TierSpec.load(str(tmp_path / "missing.json"))
