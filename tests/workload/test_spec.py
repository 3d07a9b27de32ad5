"""WorkloadSpec contracts: validation, JSON round-trip, cache identity.

The spec is the trial-cache key for every traffic run, so the
serialization must be exact (``to_dict -> json -> from_dict`` equality,
stable ``signature()``) and the validation must reject every malformed
mix before an engine is built around it.
"""

import json

import pytest

from repro.units import KiB
from repro.workload import (
    TenantClass,
    WorkloadSpec,
    diurnal_mixed,
)


def _cls(**kw):
    base = dict(name="c", tenants=10, rate=5.0)
    base.update(kw)
    return TenantClass(**base)


class TestValidation:
    @pytest.mark.parametrize("kw, match", [
        (dict(name=""), "non-empty and dot-free"),
        (dict(name="a.b"), "non-empty and dot-free"),
        (dict(tenants=0), "tenants must be >= 1"),
        (dict(rate=0.0), "rate must be positive"),
        (dict(arrival="weibull"), "arrival must be one of"),
        (dict(op_mix=()), "op_mix cannot be empty"),
        (dict(op_mix=(("delete", 1.0),)), "unknown op"),
        (dict(op_mix=(("read", -1.0),)), "negative"),
        (dict(op_mix=(("read", 0.0),)), "sum to zero"),
        (dict(op_mix=(("read", 1.0), ("read", 2.0))), "twice"),
        (dict(size_dist="cauchy"), "size_dist must be one of"),
        (dict(size_bytes=0), "size_bytes must be >= 1"),
        (dict(arrival="pareto", pareto_alpha=1.0), "pareto_alpha"),
        (dict(arrival="diurnal"), "needs a diurnal_profile"),
        (dict(arrival="diurnal", diurnal_profile=(1.0, -0.5)), ">= 0"),
        (dict(arrival="diurnal", diurnal_profile=(0.0, 0.0)), "sums to zero"),
        (dict(representatives=-1), "representatives must be >= 0"),
    ])
    def test_tenant_class_rejects(self, kw, match):
        with pytest.raises(ValueError, match=match):
            _cls(**kw)

    @pytest.mark.parametrize("kw, match", [
        (dict(classes=()), "at least one tenant class"),
        (dict(horizon=0.0), "horizon must be positive"),
        (dict(quantum=0.0), "quantum must be in"),
        (dict(quantum=2.0, horizon=1.0), "quantum must be in"),
        (dict(warmup=1.0, horizon=1.0), "warmup must be in"),
    ])
    def test_workload_spec_rejects(self, kw, match):
        base = dict(classes=(_cls(),), horizon=1.0, quantum=0.01)
        base.update(kw)
        with pytest.raises(ValueError, match=match):
            WorkloadSpec(**base)

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WorkloadSpec(classes=(_cls(), _cls()))

    def test_op_mix_canonicalized(self):
        # Two spellings of one mix consume RNG draws identically.
        a = _cls(op_mix=(("getattr", 2.0), ("create", 3.0)))
        b = _cls(op_mix=(("create", 3.0), ("getattr", 2.0)))
        assert a == b
        assert a.mix() == (("create", 0.6), ("getattr", 0.4))


class TestRoundTrip:
    def test_doc_round_trip_exact(self):
        spec = diurnal_mixed(tenants=12_345, rate=77.0, horizon=30.0, quantum=0.5)
        back = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.signature() == spec.signature()

    def test_file_round_trip(self, tmp_path):
        spec = diurnal_mixed(tenants=1000, rate=10.0, horizon=5.0, quantum=0.1)
        path = tmp_path / "mix.json"
        spec.save(str(path))
        assert WorkloadSpec.load(str(path)) == spec

    def test_example_workload_loads(self):
        import os

        here = os.path.dirname(os.path.abspath(__file__))
        path = os.path.join(here, "..", "..", "examples", "workloads",
                            "diurnal_mixed.json")
        spec = WorkloadSpec.load(path)
        assert spec.total_tenants == 1_000_000
        assert {c.arrival for c in spec.classes} == {"diurnal", "pareto"}

    def test_signature_sees_every_knob(self):
        base = diurnal_mixed(tenants=1000, rate=10.0, horizon=5.0, quantum=0.1)
        variants = [
            diurnal_mixed(tenants=1001, rate=10.0, horizon=5.0, quantum=0.1),
            diurnal_mixed(tenants=1000, rate=11.0, horizon=5.0, quantum=0.1),
            diurnal_mixed(tenants=1000, rate=10.0, horizon=6.0, quantum=0.1),
            diurnal_mixed(tenants=1000, rate=10.0, horizon=5.0, quantum=0.2),
        ]
        signatures = {base.signature()} | {v.signature() for v in variants}
        assert len(signatures) == 5


class TestDiurnalMixed:
    def test_population_split(self):
        spec = diurnal_mixed(tenants=100)
        assert spec.total_tenants == 100
        by_name = {c.name: c for c in spec.classes}
        assert by_name["metadata-storm"].tenants == 60
        assert by_name["restart-readers"].tenants == 30
        assert by_name["checkpoint-producers"].tenants == 10

    def test_rate_split_sums_to_rate(self):
        spec = diurnal_mixed(tenants=100, rate=500.0)
        assert sum(c.rate for c in spec.classes) == pytest.approx(500.0)

    def test_default_sizes(self):
        by_name = {c.name: c for c in diurnal_mixed(tenants=100).classes}
        assert by_name["metadata-storm"].size_bytes == 4 * KiB
        assert by_name["checkpoint-producers"].size_dist == "lognormal"
