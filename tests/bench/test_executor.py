"""Parallel sweep executor: determinism, merge order, knobs, recording."""

import json
import os
import warnings

import pytest

from repro.bench import measure_create_point, measure_point
from repro.bench.executor import (
    SWEEP_SCHEMA,
    checkpoint_spec,
    create_spec,
    resolve_jobs,
    run_sweep,
    run_trials,
    sweep_json_path,
    workload_spec,
)
from repro.bench.harness import _aggregate
from repro.units import MiB
from repro.workload import TenantClass, WorkloadSpec

SIZE = 8 * MiB

#: Where the sweep file lived when recording was on by default.
REPO_SWEEP_FILE = os.path.join(os.path.dirname(__file__), "..", "..", "BENCH_sweep.json")

#: The keys of every recorded sweep row; the dashboard reads them.
ROW_KEYS = {
    "kind", "impl", "n_clients", "n_servers", "seed", "value", "unit",
    "wall_clock_s", "events_processed", "peak_event_queue", "sim_seconds",
    "events_fast_forwarded", "cached",
}


def _small_grid():
    specs = []
    for n in (2, 4):
        for t in range(2):
            specs.append(checkpoint_spec("lwfs", n, 2, seed=100 + t, state_bytes=SIZE))
    specs.append(create_spec("lwfs", 2, 2, seed=200, creates_per_client=8))
    return specs


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "lots")
        with pytest.raises(ValueError):
            resolve_jobs()


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        specs = _small_grid()
        serial = run_trials(specs, jobs=1)
        parallel = run_trials(specs, jobs=2)
        assert [o.spec.key() for o in serial] == [o.spec.key() for o in parallel]
        for s, p in zip(serial, parallel):
            assert s.value == p.value  # bit-identical, no approx
            assert s.unit == p.unit
            assert s.events_processed == p.events_processed
            assert s.peak_event_queue == p.peak_event_queue

    def test_measure_point_jobs_invariant(self):
        a = measure_point("lwfs", 2, 2, trials=3, state_bytes=SIZE, jobs=1)
        b = measure_point("lwfs", 2, 2, trials=3, state_bytes=SIZE, jobs=2)
        assert a.mean == b.mean
        assert a.stdev == b.stdev
        assert a.trials == b.trials

    def test_measure_create_point_jobs_invariant(self):
        a = measure_create_point("lwfs", 2, 2, trials=2, creates_per_client=8, jobs=1)
        b = measure_create_point("lwfs", 2, 2, trials=2, creates_per_client=8, jobs=2)
        assert a.mean == b.mean and a.stdev == b.stdev

    def test_merge_is_input_order_not_completion_order(self):
        # Mixed sizes: the large trial finishes last but must stay first.
        specs = [
            checkpoint_spec("lwfs", 8, 2, seed=100, state_bytes=16 * MiB),
            checkpoint_spec("lwfs", 2, 2, seed=100, state_bytes=8 * MiB),
            create_spec("lwfs", 2, 2, seed=200, creates_per_client=8),
        ]
        outcomes = run_trials(specs, jobs=3)
        assert [o.spec.key() for o in outcomes] == [s.key() for s in specs]


class TestValidation:
    def test_aggregate_empty_raises_value_error(self):
        with pytest.raises(ValueError, match="empty trials"):
            _aggregate("lwfs", 2, 2, [], "MB/s")

    def test_measure_point_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            measure_point("lwfs", 2, 2, trials=0, state_bytes=SIZE)

    def test_measure_create_point_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            measure_create_point("lwfs", 2, 2, trials=0)

    def test_unknown_kind_rejected(self):
        from repro.bench.executor import TrialSpec, _run_trial

        with pytest.raises(ValueError, match="kind"):
            _run_trial(TrialSpec("restart", "lwfs", 2, 2, 1))

    def test_trial_errors_propagate_from_pool(self):
        specs = [checkpoint_spec("gpfs", 2, 2, seed=1, state_bytes=SIZE)] * 2
        with pytest.raises(ValueError, match="unknown implementation"):
            run_trials(specs, jobs=2)


class TestWarnOnce:
    def test_deduplicates_per_key(self, monkeypatch):
        import repro.bench.executor as executor

        monkeypatch.setattr(executor, "_WARNED_KEYS", set())
        with pytest.warns(RuntimeWarning):
            assert executor._warn_once("k1", "first") is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert executor._warn_once("k1", "repeat") is False
        with pytest.warns(RuntimeWarning):
            assert executor._warn_once("k2", "other key") is True


class TestRecording:
    def test_sweep_json_written_and_appended(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_sweep.json"
        monkeypatch.setenv("REPRO_BENCH_SWEEP_JSON", str(path))
        assert sweep_json_path() == str(path)

        mix = WorkloadSpec(
            classes=(TenantClass(name="meta", tenants=40, rate=100.0,
                                 op_mix=(("getattr", 1.0),), representatives=4),),
            horizon=0.5, quantum=0.05, warmup=0.1,
        )
        specs = [
            checkpoint_spec("lwfs", 2, 2, seed=100, state_bytes=SIZE),
            create_spec("lwfs", 2, 2, seed=100, creates_per_client=4),
            workload_spec(mix, 2, seed=100),
        ]
        run_sweep(specs, jobs=1, label="unit-a")
        run_sweep(specs, jobs=1, label="unit-b")

        doc = json.loads(path.read_text())
        assert doc["schema"] == SWEEP_SCHEMA
        labels = [s["label"] for s in doc["sweeps"]]
        assert labels == ["unit-a", "unit-b"]
        sweep = doc["sweeps"][0]
        assert sweep["jobs"] == 1 and sweep["trials"] == 3
        trial = sweep["per_trial"][0]
        assert trial["impl"] == "lwfs" and trial["unit"] == "MB/s"
        assert trial["events_processed"] > 0
        assert trial["peak_event_queue"] > 0
        assert trial["wall_clock_s"] > 0
        workload_keys = ROW_KEYS | {"tenants_simulated", "max_class_multiplicity"}
        for recorded in doc["sweeps"]:
            rows = recorded["per_trial"]
            assert [set(row) for row in rows] == [ROW_KEYS, ROW_KEYS, workload_keys]
            assert [row["unit"] for row in rows] == ["MB/s", "ops/s", "ops/s"]

    def test_suite_leaves_committed_sweep_file_alone(self, sweep_json_outside_repo):
        # The suite opts in to recording, into a temporary file only.
        assert sweep_json_path() == str(sweep_json_outside_repo)
        specs = [create_spec("lwfs", 2, 2, seed=201, creates_per_client=4)]
        run_sweep(specs, jobs=1, label="redirected", cache=False)
        doc = json.loads(sweep_json_outside_repo.read_text())
        assert "redirected" in [s["label"] for s in doc["sweeps"]]

    def test_unset_variable_records_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SWEEP_JSON")
        monkeypatch.chdir(tmp_path)
        assert sweep_json_path() is None

        def snapshot():
            if not os.path.exists(REPO_SWEEP_FILE):
                return None
            with open(REPO_SWEEP_FILE, "rb") as fh:
                return fh.read()

        before = snapshot()
        specs = [create_spec("lwfs", 2, 2, seed=202, creates_per_client=4)]
        run_sweep(specs, jobs=1, label="unrecorded", cache=False)
        assert snapshot() == before
        assert list(tmp_path.iterdir()) == []

    def test_record_survives_corrupt_file(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_sweep.json"
        path.write_text("{not json")
        monkeypatch.setenv("REPRO_BENCH_SWEEP_JSON", str(path))
        specs = [create_spec("lwfs", 2, 2, seed=200, creates_per_client=8)]
        run_sweep(specs, jobs=1, label="recover")
        doc = json.loads(path.read_text())
        assert [s["label"] for s in doc["sweeps"]] == ["recover"]


class TestPanels:
    def test_fig9_panel_parallel_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SWEEP_JSON", str(tmp_path / "s.json"))
        from repro.bench import fig9_panel

        kwargs = dict(clients=(2, 4), servers=(2,), state_bytes=SIZE, trials=2)
        serial = fig9_panel("lwfs", jobs=1, **kwargs)
        parallel = fig9_panel("lwfs", jobs=2, **kwargs)
        assert [(p.n_clients, p.n_servers) for p in serial] == [
            (p.n_clients, p.n_servers) for p in parallel
        ]
        for s, p in zip(serial, parallel):
            assert s.mean == p.mean and s.stdev == p.stdev and s.trials == p.trials

    def test_fig10_comparison_grouping(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SWEEP_JSON", str(tmp_path / "s.json"))
        from repro.bench import fig10_comparison

        out = fig10_comparison(clients=(2,), n_servers=2, creates_per_client=8, trials=1, jobs=1)
        assert set(out) == {"lwfs", "lustre-fpp"}
        for impl, points in out.items():
            assert all(p.impl == impl for p in points)
