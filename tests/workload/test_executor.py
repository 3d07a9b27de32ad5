"""Workload trials through the bench executor: parallelism, cache key.

Contract under test:

* **parallel determinism** — a workload sweep fanned over worker
  processes is bit-identical to the serial run (trial statistics and
  the new tenant columns included);
* **cache identity** — the trial key holds the workload's content (a
  JSON path is loaded first) and the resolved ``tenant_collapse``, so a
  cached clean-traffic outcome can never answer for a different mix or
  mode, even one edited in place under the same file name;
* **reporting** — the trial record carries ``tenants_simulated`` /
  ``max_class_multiplicity`` through cache round-trips.
"""

import pytest

from repro.bench import run_sweep, run_trials, workload_spec
from repro.bench.cache import TrialCache, trial_key
from repro.sim.config import RunOptions
from repro.workload import TenantClass, WorkloadSpec

SEED = 7


def _mix(tenants=300, rate=150.0):
    return WorkloadSpec(
        classes=(
            TenantClass(name="meta", tenants=tenants, rate=rate,
                        op_mix=(("create", 1.0), ("getattr", 1.0)),
                        size_bytes=4096, representatives=4),
            TenantClass(name="readers", tenants=tenants, rate=rate / 2,
                        op_mix=(("read", 1.0),), size_bytes=65536,
                        representatives=4),
        ),
        horizon=1.5, quantum=0.02, warmup=0.2,
    )


def _outcome_row(o):
    return (o.value, o.unit, o.sim_seconds, o.events_processed,
            o.tenants_simulated, o.max_class_multiplicity)


class TestParallelDeterminism:
    def test_serial_vs_jobs_bit_identical(self):
        def sweep(jobs):
            specs = [workload_spec(_mix(), 4, seed=s) for s in (SEED, SEED + 1)]
            return run_sweep(specs, jobs=jobs, label="wl-test",
                             record=False, cache=False)

        serial = [_outcome_row(o) for o in sweep(1)]
        fanned = [_outcome_row(o) for o in sweep(2)]
        assert serial == fanned

    def test_outcome_carries_tenant_columns(self):
        [o] = run_sweep([workload_spec(_mix(tenants=300), 4, seed=SEED)],
                        jobs=1, label="wl-test", record=False, cache=False)
        assert o.unit == "ops/s"
        assert o.value > 0
        assert o.tenants_simulated == 600
        assert o.max_class_multiplicity == 75  # 300 tenants / 4 representatives


class TestCacheIdentity:
    def test_same_mix_same_key(self):
        a = trial_key(workload_spec(_mix(), 4, seed=SEED))
        b = trial_key(workload_spec(_mix(), 4, seed=SEED))
        assert a == b

    def test_workload_signature_changes_key(self):
        base = trial_key(workload_spec(_mix(rate=150.0), 4, seed=SEED))
        other = trial_key(workload_spec(_mix(rate=151.0), 4, seed=SEED))
        assert base != other

    def test_edited_file_is_simulated_afresh(self, tmp_path):
        path = str(tmp_path / "mix.json")
        store = TrialCache(str(tmp_path / "cache"))
        _mix(rate=50.0).save(path)
        first = workload_spec(path, 4, seed=SEED)
        [before] = run_trials([first], jobs=1, cache=store)
        _mix(rate=150.0).save(path)
        second = workload_spec(path, 4, seed=SEED)
        [after] = run_trials([second], jobs=1, cache=store)
        assert first.n_clients == second.n_clients == 600
        assert trial_key(second) != trial_key(first)
        assert not before.cached and not after.cached
        assert after.value > before.value

    def test_collapse_kill_switch_changes_key(self):
        base = trial_key(workload_spec(_mix(), 4, seed=SEED))
        killed = workload_spec(_mix(), 4, seed=SEED,
                               options=RunOptions(tenant_collapse=False))
        assert trial_key(killed) != base


class TestCacheRoundTrip:
    def test_warm_hit_restores_tenant_columns(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        spec = workload_spec(_mix(tenants=300), 4, seed=SEED)
        [cold] = run_sweep([spec], jobs=1, label="wl-test", record=False)
        [warm] = run_sweep([spec], jobs=1, label="wl-test", record=False)
        assert not cold.cached and warm.cached
        assert _outcome_row(cold) == _outcome_row(warm)
