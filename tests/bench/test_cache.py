"""Persistent trial cache: hits, invalidation-by-key, and escape hatches."""

import json
import os

import pytest

import repro.bench.cache as cache_module
from repro.bench.cache import (
    TrialCache,
    cache_enabled,
    default_cache_dir,
    trial_key,
)
from repro.bench.executor import checkpoint_spec, create_spec, run_trials
from repro.sim.config import RunOptions
from repro.storage.buffer import TierSpec
from repro.units import MiB

#: Every read-only view a record derives from its extra/trace/metrics.
DERIVED = (
    "events_processed", "peak_event_queue", "sim_seconds",
    "events_fast_forwarded", "tenants_simulated", "max_class_multiplicity",
    "fault_summary", "buffer_summary", "trace_summary", "metrics_summary",
)


def _specs():
    return [
        checkpoint_spec("lwfs", 2, 2, seed=100, state_bytes=2 * MiB),
        checkpoint_spec("lwfs", 2, 2, seed=101, state_bytes=2 * MiB),
        create_spec("lwfs", 2, 2, seed=100, creates_per_client=4),
    ]


class TestTrialKey:
    def test_stable_for_equal_specs(self):
        assert trial_key(_specs()[0]) == trial_key(_specs()[0])

    def test_sensitive_to_every_identity_field(self):
        base = checkpoint_spec("lwfs", 2, 2, seed=100, state_bytes=2 * MiB)
        variants = [
            checkpoint_spec("lustre-fpp", 2, 2, seed=100, state_bytes=2 * MiB),
            checkpoint_spec("lwfs", 4, 2, seed=100, state_bytes=2 * MiB),
            checkpoint_spec("lwfs", 2, 4, seed=100, state_bytes=2 * MiB),
            checkpoint_spec("lwfs", 2, 2, seed=101, state_bytes=2 * MiB),
            checkpoint_spec("lwfs", 2, 2, seed=100, state_bytes=4 * MiB),
            create_spec("lwfs", 2, 2, seed=100, state_bytes=2 * MiB),
        ]
        keys = {trial_key(v) for v in variants}
        assert trial_key(base) not in keys
        assert len(keys) == len(variants)

    def test_sensitive_to_simulator_source(self, monkeypatch):
        spec = _specs()[0]
        base = trial_key(spec)
        assert len(cache_module._source_digest()) == 64
        monkeypatch.setattr(cache_module, "_source_digest", lambda: "0" * 64)
        assert trial_key(spec) != base


class TestEnvKnobs:
    def test_cache_enabled_env(self, monkeypatch):
        assert cache_enabled()
        monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
        assert not cache_enabled()

    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)
        monkeypatch.delenv("REPRO_BENCH_CACHE_DIR")
        assert default_cache_dir().endswith(os.path.join("results", ".trial-cache"))

    def test_suite_caches_outside_the_repo(self):
        # tests/conftest.py redirects the store for the whole session, so
        # the suite's trials never land in the repo's results/ directory.
        repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert not os.path.abspath(default_cache_dir()).startswith(repo + os.sep)


class TestRunTrialsCaching:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_then_warm_identical(self, tmp_path, jobs):
        store = TrialCache(root=str(tmp_path))
        specs = _specs() + [
            checkpoint_spec("lwfs", 2, 2, seed=100, state_bytes=2 * MiB,
                            options=RunOptions(metrics=True)),
            checkpoint_spec("lwfs", 2, 2, seed=100, state_bytes=2 * MiB,
                            options=RunOptions(tiers=TierSpec(mode="buffer"))),
        ]

        cold = run_trials(specs, jobs=jobs, cache=store)
        assert [o.cached for o in cold] == [False] * len(specs)
        assert cold[3].metrics is not None and cold[4].buffer_summary is not None

        warm = run_trials(specs, jobs=jobs, cache=store)
        assert [o.cached for o in warm] == [True] * len(specs)
        for spec, c, w in zip(specs, cold, warm):
            assert w.spec == c.spec == spec
            assert (w.value, w.unit) == (c.value, c.unit)
            assert w.extra == c.extra
            # JSON spelling: the metrics document may hold NaN gauges.
            assert json.dumps(w.metrics) == json.dumps(c.metrics)
            for name in DERIVED:
                assert json.dumps(getattr(w, name)) == json.dumps(getattr(c, name)), name

    def test_partial_warm_run(self, tmp_path):
        store = TrialCache(root=str(tmp_path))
        specs = _specs()
        run_trials(specs[:2], jobs=1, cache=store)
        outcomes = run_trials(specs, jobs=1, cache=store)
        assert [o.cached for o in outcomes] == [True, True, False]

    def test_cache_false_bypasses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        run_trials(_specs()[:1], jobs=1, cache=True)
        outcomes = run_trials(_specs()[:1], jobs=1, cache=False)
        assert not outcomes[0].cached

    def test_env_disable_bypasses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        run_trials(_specs()[:1], jobs=1, cache=True)
        monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
        outcomes = run_trials(_specs()[:1], jobs=1, cache=None)
        assert not outcomes[0].cached

    def test_traced_trials_never_cached(self, tmp_path):
        store = TrialCache(root=str(tmp_path))
        spec = checkpoint_spec(
            "lwfs", 2, 2, seed=100, state_bytes=2 * MiB,
            options=RunOptions(trace=True),
        )
        first = run_trials([spec], jobs=1, cache=store)
        second = run_trials([spec], jobs=1, cache=store)
        assert not first[0].cached and not second[0].cached
        assert second[0].trace is not None
        assert not any(tmp_path.iterdir())

    def test_entry_layout_on_disk(self, tmp_path):
        store = TrialCache(root=str(tmp_path))
        spec = _specs()[0]
        run_trials([spec], jobs=1, cache=store)
        key = trial_key(spec)
        path = tmp_path / key[:2] / (key + ".json")
        assert path.is_file()
        doc = json.loads(path.read_text())
        assert doc["key"] == list(spec.key())
        assert doc["record"]["unit"] == "MB/s"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = TrialCache(root=str(tmp_path))
        spec = _specs()[0]
        good = run_trials([spec], jobs=1, cache=store)
        key = trial_key(spec)
        (tmp_path / key[:2] / (key + ".json")).write_text("{not json")
        again = run_trials([spec], jobs=1, cache=store)
        assert not again[0].cached
        assert again[0].value == good[0].value
