"""Fault injection & recovery: determinism, zero-cost-off, recovery paths.

Contract under test:

* **faults-off is free** — with no plan installed the harness reproduces
  the timelines pinned before the fault subsystem existed, bit-exact, on
  the exact, collapsed, and flow paths alike;
* **seeded chaos is reproducible** — the same plan and seed produce
  identical fault logs, recovery counters, and timelines, twice;
* **recovery actually recovers** — crashed servers come back via journal
  replay + 2PC presumed abort, retried RPCs are absorbed exactly-once,
  revocation storms fail writes closed and the re-driven dump re-acquires
  capabilities.
"""

import os
from dataclasses import replace

import pytest

from repro.bench import run_checkpoint_trial
from repro.bench.harness import CKPT_ATTEMPTS, _build, checkpoint_main
from repro.faults import FaultEvent, FaultPlan, RetryPolicy, load_plan
from repro.sim.config import RunOptions
from repro.units import MiB

from ..reference import queued_holds, reference_flows

N, M, SEED = 8, 4, 42
STATE = 8 * MiB
RETRY = RetryPolicy(timeout=0.25)

#: Max-rank-time timelines recorded at these exact specs *before* the
#: fault subsystem was merged.  Equality must be exact: every fault hook
#: is behind an ``env.faults is None`` check, so a fault-free run may not
#: drift by a single event.
PRE_FAULT_SUBSYSTEM_PINS = {
    # (impl, mode): max_elapsed
    ("lwfs", "exact"): 0.2059247186632824,
    ("lustre-fpp", "exact"): 0.20445342150380083,
    ("lustre-shared", "exact"): 0.3098345331296523,
    ("lwfs", "collapse"): 0.22835064816991182,
    ("lustre-fpp", "collapse"): 0.2920845109559286,
    ("lwfs", "flow"): 0.7328158255740085,
    ("lustre-fpp", "flow"): 0.7312024620488791,
}

#: The flow pins above were recorded on the global-refill engine, which
#: is now the test oracle; the shipping component engine reassociates
#: the same sums and lands within an ulp of them.
SHIPPING_FLOW_PINS = {
    "lwfs": 0.7328158255740085,
    "lustre-fpp": 0.731202462048879,
}


#: The storage-crash plan CI runs at the N x M x STATE size.
CRASH_PLAN = os.path.join(os.path.dirname(__file__), "..", "..",
                          "examples", "faults", "storage_crash.json")


def _run(impl, plan, seed=SEED, **kw):
    return run_checkpoint_trial(
        impl, N, M, state_bytes=STATE, seed=seed,
        options=RunOptions(faults=plan), **kw
    )


def _crash(target, at=0.05, duration=0.05, **kw):
    return FaultPlan(
        events=(FaultEvent(kind="server_crash", at=at, target=target,
                           duration=duration),),
        retry=RETRY, seed=SEED, **kw,
    )


class TestFaultsOffBitIdentical:
    @pytest.mark.parametrize(
        "impl", ["lwfs", "lustre-fpp", "lustre-shared"]
    )
    def test_exact_path_pinned(self, impl):
        r = run_checkpoint_trial(impl, N, M, state_bytes=STATE, seed=SEED)
        assert r.max_elapsed == PRE_FAULT_SUBSYSTEM_PINS[(impl, "exact")]

    @pytest.mark.parametrize("impl", ["lwfs", "lustre-fpp"])
    def test_collapse_path_pinned(self, impl):
        r = run_checkpoint_trial(
            impl, N, M, state_bytes=STATE, seed=SEED,
            options=RunOptions(collapse=True),
        )
        assert r.max_elapsed == PRE_FAULT_SUBSYSTEM_PINS[(impl, "collapse")]

    @pytest.mark.parametrize("impl", ["lwfs", "lustre-fpp"])
    def test_flow_path_pinned(self, impl):
        # The pins were recorded on the global-refill flow engine, which
        # lives on as the oracle; the shipping engine's equivalence to it
        # is checked at 1e-9
        # (tests/bench/test_fastforward.py::TestFlowGridEquivalence)
        # while this test pins the oracle bit-exact.
        with reference_flows():
            r = run_checkpoint_trial(
                impl, N, M, state_bytes=32 * MiB, seed=SEED,
                options=RunOptions(flow=True),
            )
        assert r.max_elapsed == PRE_FAULT_SUBSYSTEM_PINS[(impl, "flow")]

    @pytest.mark.parametrize("impl", ["lwfs", "lustre-fpp"])
    def test_flow_path_pinned_on_the_shipping_engine(self, impl):
        r = run_checkpoint_trial(
            impl, N, M, state_bytes=32 * MiB, seed=SEED,
            options=RunOptions(flow=True),
        )
        assert r.max_elapsed == SHIPPING_FLOW_PINS[impl]

    def test_no_fault_counters_without_a_plan(self):
        r = run_checkpoint_trial("lwfs", N, M, state_bytes=STATE, seed=SEED)
        assert r.fault_log is None
        assert "retries" not in r.extra
        assert "faults_injected" not in r.extra


#: One scenario per injector mechanism (times sit inside the ~0.2 s dump).
SCENARIOS = {
    "storage-crash": ("lwfs", lambda: _crash("stor0")),
    "mds-failover": ("lustre-shared", lambda: _crash("mds", at=0.0)),
    "disk-stall": ("lwfs", lambda: FaultPlan(
        events=(FaultEvent(kind="disk_stall", at=0.03, target="stor1",
                           duration=0.05),),
        retry=RETRY, seed=SEED)),
    "degrade+partition": ("lwfs", lambda: FaultPlan(
        events=(
            FaultEvent(kind="link_degrade", at=0.02, target="stor2",
                       duration=0.06, factor=0.25),
            FaultEvent(kind="partition", at=0.1, duration=0.02,
                       targets=("stor0", "stor1")),
        ),
        retry=RETRY, seed=SEED)),
    "revoke-storm": ("lwfs", lambda: FaultPlan(
        events=(FaultEvent(kind="revoke_storm", at=0.05, target="authz"),),
        retry=RETRY, seed=SEED)),
    "drop+dup": ("lwfs", lambda: FaultPlan(
        rpc_drop_rate=0.05, rpc_dup_rate=0.05, retry=RETRY, seed=SEED)),
    # Every injector kind in one run: crash, stall, degrade and a
    # revocation storm on top of stochastic drop/duplicate.
    "all-kinds": ("lwfs", lambda: FaultPlan(
        events=(
            FaultEvent(kind="server_crash", at=0.04, target="stor0",
                       duration=0.05),
            FaultEvent(kind="disk_stall", at=0.02, target="stor1",
                       duration=0.03),
            FaultEvent(kind="link_degrade", at=0.06, target="stor2",
                       duration=0.05, factor=0.25),
            FaultEvent(kind="revoke_storm", at=0.08, target="authz"),
        ),
        rpc_drop_rate=0.08, rpc_dup_rate=0.08, retry=RETRY, seed=SEED)),
}


def _fingerprint(r):
    return (
        r.max_elapsed, r.mean_elapsed, r.extra.get("events_processed"),
        tuple(sorted(r.extra.items())), tuple(map(tuple, (e.items() for e in r.fault_log))),
    )


class TestSeededChaosDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_two_runs_bit_identical(self, name):
        impl, mk = SCENARIOS[name]
        first, second = _run(impl, mk()), _run(impl, mk())
        assert _fingerprint(first) == _fingerprint(second)
        assert first.fault_log == second.fault_log

    def test_different_plan_seed_differs(self):
        """The stochastic layer draws from plan-seeded substreams."""
        a = _run("lwfs", FaultPlan(rpc_drop_rate=0.05, retry=RETRY, seed=1))
        b = _run("lwfs", FaultPlan(rpc_drop_rate=0.05, retry=RETRY, seed=2))
        assert a.fault_log != b.fault_log or a.max_elapsed != b.max_elapsed


class TestRecovery:
    def test_storage_crash_recovers_and_completes(self):
        r = _run("lwfs", _crash("stor0"))
        e = r.extra
        assert e["faults_injected"] >= 1
        assert e["retries"] > 0
        assert e["degraded_seconds"] > 0
        # The dump finished despite the outage; recovery cost is bounded.
        clean = PRE_FAULT_SUBSYSTEM_PINS[("lwfs", "exact")]
        assert 0.5 * clean < r.max_elapsed < 3 * clean
        actions = [(ent["kind"], ent["action"]) for ent in r.fault_log]
        assert ("server_crash", "inject") in actions
        assert ("server_crash", "recover") in actions

    def test_mds_failover_stalls_but_recovers(self):
        r = _run("lustre-shared", _crash("mds", at=0.0))
        assert r.extra["retries"] > 0
        assert r.extra["recovered_ops"] > 0
        assert r.max_elapsed > PRE_FAULT_SUBSYSTEM_PINS[("lustre-shared", "exact")]

    def test_dropped_rpcs_are_retried_through(self):
        r = _run("lwfs", FaultPlan(rpc_drop_rate=0.05, rpc_dup_rate=0.05,
                                   retry=RETRY, seed=SEED))
        e = r.extra
        assert e["rpc_dropped"] > 0
        # Every drop burned a timeout and was retried; duplicates were
        # absorbed by the server's exactly-once layer.
        assert e["retries"] >= e["rpc_dropped"]

    def test_goodput_reported_inside_fault_windows(self):
        r = _run("lwfs", _crash("stor0"))
        assert r.extra["goodput_degraded"] > 0


class TestRevocationStormUnderLoad:
    def test_storm_fails_closed_then_reacquires(self):
        """Revoking WRITE mid-dump must fail the dump *closed*; the
        harness re-drive re-acquires capabilities (fresh serials) and the
        verify caches show the invalidation churn."""
        from repro.sim import utilization_report

        plan = SCENARIOS["revoke-storm"][1]()
        opts = RunOptions(faults=plan).resolved()
        cluster, deployment, ck, app, injector = _build(
            "lwfs", N, M, seed=SEED, opts=opts
        )
        from repro.iolib.checkpoint import CheckpointError
        from repro.storage import SyntheticData

        def main(ctx):
            yield from ck.setup(ctx)
            yield from ctx.barrier()
            for attempt in range(1, 4):
                try:
                    return (yield from ck.checkpoint(
                        ctx, SyntheticData(STATE, seed=ctx.rank)))
                except CheckpointError:
                    assert attempt < 3, "re-drive failed to recover"
                    if ctx.rank == 0:
                        injector.note_ckpt_restart()
                    yield from ck.refresh_caps(ctx)

        results = app.run(main)
        elapsed = max(r.elapsed for r in results)
        injector.finish()

        # Failed closed exactly once, then the re-driven dump completed.
        assert injector.counters["ckpt_restarts"] == 1
        assert len(results) == N

        # The storm's invalidation fan-out hit the storage-side verify
        # caches: the authz row aggregates the churn.
        authz_row = next(r for r in utilization_report(deployment, elapsed)
                         if r["server"] == "authz")
        assert authz_row["cache_invalidations"] >= M
        # The re-driven dump still verifies overwhelmingly from cache.
        assert authz_row["cache_hit_rate"] > 0.5
        assert authz_row["cache_misses"] > 0
        storm = [ent for ent in injector.log if ent["kind"] == "revoke_storm"]
        assert [ent["action"] for ent in storm] == ["inject", "recover"]
        assert storm[1]["victims"] >= 1


class TestNothingHeldAfterACrash:
    """A crash interrupt can land anywhere in a server handler; what the
    handler held (NIC pipes, a CPU core, the RAID controller, a pinned
    buffer) must come back, or the rebooted server runs short."""

    def test_early_crash_matches_queued_holds(self):
        # At 5 ms stor0 is still pulling its first chunks: the crash
        # interrupts transfers in the middle of their pipe holds.
        plan = load_plan(CRASH_PLAN)
        plan = replace(plan, events=(replace(plan.events[0], at=0.005),))

        def throughput():
            return run_checkpoint_trial(
                "lwfs", 4, 4, state_bytes=STATE, seed=1, options=RunOptions(faults=plan)
            ).value

        with queued_holds():
            reference = throughput()
        assert throughput() == reference

    def test_quiescent_after_the_crash_trial(self):
        opts = RunOptions(faults=CRASH_PLAN).resolved()
        cluster, deployment, ck, app, injector = _build("lwfs", N, M, seed=SEED, opts=opts)
        app.run(checkpoint_main(ck, STATE, CKPT_ATTEMPTS, injector))
        cluster.env.run()
        for server in deployment.storage:
            assert server.buffers.level == server.buffers.capacity, server.rpc.name
        held = []
        for nid in range(cluster.n_nodes):
            node = cluster.node(nid)
            nic = node.nic
            for name, slot in (("cpu", node.cpu), ("tx", nic.tx._slot), ("rx", nic.rx._slot),
                               ("ctl_tx", nic.ctl_tx._slot), ("ctl_rx", nic.ctl_rx._slot)):
                if slot.count:
                    held.append((node.name, name))
        for server in deployment.storage:
            for name, slot in (("controller", server.device._controller),
                               ("meta", server.device._meta_lane)):
                if slot.count:
                    held.append((server.rpc.name, name))
        assert held == []
