"""Traffic-engine contracts: collapsing, kill switch, accuracy, faults.

Contract under test:

* **kill switch** — ``RunOptions(tenant_collapse=False)`` is bit-for-bit
  identical to collapsed mode whenever every class multiplicity is 1:
  collapsing is pure mechanism;
* **keying** — tenant blocks never cross class boundaries: two classes
  with identical parameters keep separate sessions, substreams, and
  statistics rows;
* **accuracy** — at class sizes of 10^3 the collapsed run stays within
  1% of the uncollapsed reference on per-class goodput, p50, and p99;
* **scale invariance** — 100x the tenants at constant offered rate keeps
  the session count and stays within 5% of the event count: simulated
  users are free, traffic is what costs;
* **fast-forward** — the shipping flow engine and its global-refill
  oracle leave every traffic statistic within 1e-9 (open-loop trials
  never enter the flow steady state it accelerates, so it must be
  inert);
* **recovery** — a revocation storm under open-loop load fails closed,
  re-acquires capabilities, and completes every operation;
* **run options** — a workload trial honours ``trace`` and ``flow`` and
  rejects ``collapse`` and an interposing tier with a ConfigError.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults import FaultEvent, FaultPlan
from repro.machine.presets import dev_cluster
from repro.sim.cluster import SimCluster
from repro.sim.collapse import class_block_width, tenant_class_plan
from repro.sim.config import RunOptions, SimConfig
from repro.sim.deployment import LWFSDeployment
from repro.storage.buffer import TierSpec
from repro.units import KiB
from repro.workload import TenantClass, WorkloadEngine, WorkloadSpec, run_workload_trial

from ..reference import reference_flows

SEED = 11

#: Collapsed-vs-uncollapsed relative error bound (goodput, p50, p99).
ACCURACY_TOL = 0.01
#: Event-count growth allowed for a 100x tenant population at equal rate.
EVENT_RATIO_LIMIT = 1.05

#: Per-class statistics compared between runs.
_FIELDS = ("ops", "goodput_mb_s", "latency_p50", "latency_p99")


def _accuracy_spec(tenants, reps):
    """Jitter-free costs, fixed sizes for the latency-checked classes,
    moderate utilization — the regime where collapse error is
    structural, not measurement noise."""
    return WorkloadSpec(
        classes=(
            TenantClass(
                name="meta", tenants=tenants, rate=500.0, arrival="poisson",
                op_mix=(("create", 3.0), ("getattr", 2.0)),
                size_dist="fixed", size_bytes=4096, representatives=reps,
            ),
            TenantClass(
                name="readers", tenants=tenants, rate=300.0, arrival="diurnal",
                diurnal_profile=(0.5, 1.5, 1.0), op_mix=(("read", 1.0),),
                size_dist="fixed", size_bytes=65536, representatives=reps,
            ),
        ),
        horizon=4.0, quantum=0.005, warmup=0.4,
    )


def _run(spec, collapse):
    cfg = replace(SimConfig(), cost_jitter=0.0)
    opts = RunOptions(tenant_collapse=collapse, trace=False, metrics=False)
    return run_workload_trial(
        workload=spec, n_servers=4, seed=SEED, config=cfg, options=opts
    )


def _rows(trial):
    """Per-class statistics plus the trial's aggregate figures."""
    picked = {
        k: v for k, v in trial.extra.items()
        if k.startswith("wl.") and k.rsplit(".", 1)[1] in _FIELDS
    }
    picked["throughput_mb_s"] = trial.throughput_mb_s
    picked["max_elapsed"] = trial.max_elapsed
    return picked


@pytest.fixture(scope="module")
def collapsed_1e3():
    """The collapsed run at class sizes of 10^3 (multiplicity up to 63)."""
    return _run(_accuracy_spec(tenants=1000, reps=16), collapse=True)


def _small_spec(tenants=24, reps=24, **kw):
    base = dict(horizon=2.0, quantum=0.02, warmup=0.2)
    base.update(kw)
    return WorkloadSpec(
        classes=(
            TenantClass(
                name="meta", tenants=tenants, rate=120.0,
                op_mix=(("create", 1.0), ("getattr", 1.0)),
                size_bytes=4096, representatives=reps,
            ),
            TenantClass(
                name="writers", tenants=tenants, rate=60.0,
                op_mix=(("write", 1.0),), size_bytes=65536,
                representatives=reps,
            ),
        ),
        **base,
    )


class TestKillSwitch:
    def test_env_kill_switch_bit_identical_at_multiplicity_one(self):
        spec = _small_spec(tenants=24, reps=24)
        collapsed = _rows(run_workload_trial(
            workload=spec, n_servers=4, seed=SEED,
            options=RunOptions(tenant_collapse=True),
        ))

        trial = run_workload_trial(workload=spec, n_servers=4, seed=SEED,
                                   options=RunOptions(tenant_collapse=False))
        assert trial.extra["max_class_multiplicity"] == 1.0
        killed = _rows(trial)
        assert killed == collapsed


class TestCollapseKeying:
    def test_plan_covers_class_exactly(self):
        for tenants, reps in ((1000, 16), (7, 3), (5, 8), (64, 64)):
            width = class_block_width(tenants, reps)
            plan = tenant_class_plan(tenants, reps)
            assert sum(mult for _, mult in plan) == tenants
            for i, (start, mult) in enumerate(plan):
                assert start == i * width
                assert 1 <= mult <= width

    def test_width_one_when_reps_cover_population(self):
        assert class_block_width(10, 10) == 1
        assert class_block_width(10, 100) == 1
        assert all(m == 1 for _, m in tenant_class_plan(10, 10))

    def test_identical_classes_never_merge(self):
        # Same parameters, different names: tenant identity includes the
        # class, so sessions, substreams, and stats stay separate.
        mk = dict(tenants=500, rate=100.0, op_mix=(("getattr", 1.0),),
                  size_bytes=4096, representatives=4)
        spec = WorkloadSpec(
            classes=(TenantClass(name="a", **mk), TenantClass(name="b", **mk)),
            horizon=2.0, quantum=0.02, warmup=0.2,
        )
        trial = run_workload_trial(workload=spec, n_servers=4, seed=SEED,
                                   options=RunOptions(trace=False, metrics=False))
        assert trial.extra["sessions_simulated"] == 8.0
        assert trial.extra["wl.a.ops"] > 0
        assert trial.extra["wl.b.ops"] > 0
        # Distinct per-class substreams: equal parameters, different draws.
        assert trial.extra["wl.a.ops"] != trial.extra["wl.b.ops"]

    def test_engine_sessions_follow_the_plan(self):
        spec = _small_spec(tenants=10, reps=3)
        machine = dev_cluster()
        cluster = SimCluster(machine, SimConfig(seed=SEED), compute_nodes=2,
                             io_nodes=machine.io_nodes, service_nodes=1,
                             options=RunOptions().resolved())
        deployment = LWFSDeployment(cluster, n_storage_servers=2)
        engine = WorkloadEngine(cluster, deployment, spec, collapse=True)
        for state in engine.classes:
            plan = tenant_class_plan(state.cls.tenants, 3)
            assert [(s.start, s.mult) for s in state.sessions] == plan
            assert state.width == class_block_width(state.cls.tenants, 3)


class TestCollapseAccuracy:
    def test_within_one_percent_at_class_size_1e3(self, collapsed_1e3):
        coll = collapsed_1e3
        ref = _run(_accuracy_spec(tenants=1000, reps=16), collapse=False)
        assert coll.extra["max_class_multiplicity"] >= 10
        ref_rows, coll_rows = _rows(ref), _rows(coll)
        for key, rv in ref_rows.items():
            rel = abs(coll_rows[key] - rv) / max(abs(rv), 1e-12)
            assert rel <= ACCURACY_TOL, f"{key}: {rel:.2%} > {ACCURACY_TOL:.0%}"


class TestScaleInvariance:
    def test_100x_tenants_same_sessions_and_events(self, collapsed_1e3):
        small = collapsed_1e3
        big = _run(_accuracy_spec(tenants=100_000, reps=16), collapse=True)
        assert big.extra["sessions_simulated"] == small.extra["sessions_simulated"]
        ratio = big.extra["events_processed"] / small.extra["events_processed"]
        assert ratio <= EVENT_RATIO_LIMIT, ratio


class TestFastForwardInert:
    def test_traffic_stats_within_1e9(self):
        spec = _small_spec(tenants=200, reps=8)

        def run():
            opts = RunOptions(tenant_collapse=True, trace=False, metrics=False)
            return _rows(run_workload_trial(workload=spec, n_servers=4,
                                            seed=SEED, options=opts))

        on = run()
        with reference_flows():
            off = run()
        assert on.keys() == off.keys()
        for key in on:
            assert abs(on[key] - off[key]) <= 1e-9, key


class TestBatchLatencies:
    @pytest.fixture()
    def engine(self):
        spec = _small_spec(tenants=8, reps=4)
        machine = dev_cluster()
        cluster = SimCluster(machine, SimConfig(seed=SEED), compute_nodes=2,
                             io_nodes=machine.io_nodes, service_nodes=1,
                             options=RunOptions().resolved())
        deployment = LWFSDeployment(cluster, n_storage_servers=2)
        return WorkloadEngine(cluster, deployment, spec, collapse=True)

    def test_metadata_ops_all_measure_elapsed(self, engine):
        goffs = np.array([0.0, 0.003, 0.009, 0.014])
        points = engine._batch_latencies("getattr", 0, 0, 0.005, goffs)
        assert [w for _, w in points] == [1] * 4
        assert all(v == pytest.approx(0.005) for v, _ in points)

    def test_spread_arrivals_see_no_batch_queueing(self, engine):
        # Gaps far wider than one service time: every op finds the batch
        # queue drained and costs the representative's elapsed again.
        svc = engine._svc_estimate("read", 0, 65536)
        assert svc > 0
        goffs = np.arange(4) * (10.0 * svc)
        points = engine._batch_latencies("read", 0, 65536, svc, goffs)
        assert all(v == pytest.approx(svc) for v, _ in points)

    def test_tight_burst_staggers_behind_the_device(self, engine):
        svc = engine._svc_estimate("read", 0, 65536)
        elapsed = 3.0 * svc  # cross-traffic wait on top of service
        goffs = np.zeros(5)
        points = engine._batch_latencies("read", 0, 65536, elapsed, goffs)
        values = [v for v, _ in points]
        assert values[0] == pytest.approx(elapsed)
        assert values == sorted(values)
        assert values[-1] == pytest.approx(elapsed + 4.0 * svc, rel=1e-6)

    def test_downsampled_weights_preserve_the_population(self, engine):
        goffs = np.sort(np.linspace(0.0, 0.02, 100))
        points = engine._batch_latencies("read", 0, 65536, 0.004, goffs)
        assert len(points) <= 8
        assert sum(w for _, w in points) == 100


class TestMetricsViewTheClassTally:
    def test_export_reads_the_tally_class_rows_reads(self):
        spec = _small_spec(tenants=64, reps=8)
        opts = RunOptions(tenant_collapse=True, metrics=True, trace=False)
        trial = run_workload_trial(workload=spec, n_servers=4, seed=SEED,
                                   options=opts)
        assert trial.metrics is not None
        by_name = {inst["name"]: inst for inst in trial.metrics["instruments"]}
        e = trial.extra
        for name in ("meta", "writers"):
            tally = by_name[f"tenant.{name}.latency"]["tally"]
            # Collapsed representatives weight their samples: the count
            # is the tenants' operations, not the batched RPCs.
            assert tally["count"] == e[f"wl.{name}.ops"] > 0
            assert tally["p50"] == e[f"wl.{name}.latency_p50"]
            assert tally["p99"] == e[f"wl.{name}.latency_p99"]
            assert by_name[f"tenant.{name}.bytes"]["final"] == e[f"wl.{name}.bytes"]
        assert e["wl.writers.bytes"] > 0


class TestRevocationStormUnderLoad:
    def test_storm_recovers_without_failed_ops(self):
        spec = _small_spec(tenants=64, reps=8, horizon=2.0, quantum=0.02)
        plan = FaultPlan(
            events=tuple(FaultEvent(kind="revoke_storm", at=t, target="authz")
                         for t in (0.3, 0.8, 1.3)),
            seed=SEED,
        )
        opts = RunOptions(tenant_collapse=True, faults=plan,
                          trace=False, metrics=False)
        trial = run_workload_trial(workload=spec, n_servers=4, seed=SEED,
                                   options=opts)
        retries = sum(v for k, v in trial.extra.items()
                      if k.startswith("wl.") and k.endswith(".retries"))
        failed = sum(v for k, v in trial.extra.items()
                     if k.startswith("wl.") and k.endswith(".failed"))
        assert retries > 0, "storm never hit a held capability"
        assert failed == 0, "fail-closed ops must recover via re-acquisition"
        assert any(e["kind"] == "revoke_storm" and e["action"] == "inject"
                   for e in trial.fault_log)

    def test_storm_runs_are_deterministic(self):
        spec = _small_spec(tenants=64, reps=8)
        plan = FaultPlan(
            events=(FaultEvent(kind="revoke_storm", at=0.5, target="authz"),),
            seed=SEED,
        )

        def run():
            opts = RunOptions(tenant_collapse=True, faults=plan,
                              trace=False, metrics=False)
            return run_workload_trial(workload=spec, n_servers=4, seed=SEED,
                                      options=opts)

        a, b = run(), run()
        assert _rows(a) == _rows(b)
        assert a.fault_log == b.fault_log


class TestRunOptions:
    """Every option a workload trial takes is honoured or rejected."""

    #: Writes of four 64 KiB chunks, long enough for the flow path.
    CONFIG = replace(SimConfig(), chunk_bytes=64 * KiB)
    SPEC = WorkloadSpec(
        classes=(TenantClass(name="bulk", tenants=8, rate=40.0,
                             op_mix=(("write", 1.0),), size_bytes=256 * KiB,
                             representatives=4),),
        horizon=1.0, quantum=0.05, warmup=0.1,
    )

    def _run(self, **opts):
        return run_workload_trial(workload=self.SPEC, n_servers=2, seed=SEED,
                                  config=self.CONFIG, options=RunOptions(**opts))

    @pytest.mark.parametrize("opts,rejected", [
        ({"trace": True}, None),
        ({"flow": True}, None),
        ({"collapse": True}, "collapse"),
        ({"tiers": TierSpec(mode="buffer")}, "tiers"),
    ], ids=["trace", "flow", "collapse", "tiers"])
    def test_honoured_or_rejected(self, opts, rejected):
        if rejected is not None:
            with pytest.raises(ConfigError, match=rf"RunOptions\.{rejected}\b"):
                self._run(**opts)
            return
        base, trial = self._run(), self._run(**opts)
        if "trace" in opts:
            assert base.trace is None and len(trial.trace) > 0
            # Tracing schedules nothing: every statistic is unchanged.
            assert trial.extra == base.extra
        else:
            assert "flows_active" not in base.extra
            assert trial.extra["flows_active"] > 0

