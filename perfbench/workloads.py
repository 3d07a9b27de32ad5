"""The benchmark's three workloads: inputs from a seed, one run, outputs.

Every workload is configured only through the run configuration that
stays (``RunOptions`` with collapse, flow, tiers, metrics, faults and
tenant_collapse, plus the default analytic fast-forward), so removing
the other knobs later is measurable with this benchmark.

:func:`make_inputs` turns ``(workload, seed)`` into plain data;
:func:`run_workload` receives only that data and returns the simulated
outputs of every trial plus the correctness verdict of each.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List

from repro.bench.executor import checkpoint_spec, create_spec, run_sweep
from repro.bench.harness import run_checkpoint_trial
from repro.iolib.checkpoint import LWFSCheckpointer
from repro.machine.presets import red_storm
from repro.parallel.app import ParallelApp
from repro.sim.cluster import SimCluster
from repro.sim.collapse import collapse_plan
from repro.sim.config import RunOptions, SimConfig
from repro.sim.deployment import LWFSDeployment
from repro.storage.buffer import TierSpec
from repro.storage.data import SyntheticData, data_equal, piece_bytes, piece_len, piece_slice
from repro.units import GiB, MiB
from repro.workload import diurnal_mixed, run_workload_trial

WORKLOADS = ("paper_sweep", "scale_restart", "tenant_traffic")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAULT_PLAN = os.path.join(ROOT, "examples", "faults", "storage_crash.json")

#: The exact chunked path of the paper figures: flow and collapse off.
EXACT = dict(collapse=False, flow=False, metrics=False)
#: The scale-out path: representatives with multiplicity over fluid flows.
SCALE = dict(collapse=True, flow=True, metrics=False)

#: tenant_traffic must complete within this share of its offered rate.
RATE_REL_TOL = 0.05
#: Bytes compared per restarted rank, in four windows spread over its state.
RESTART_PROBE_BYTES = 64 * 1024


def make_inputs(name: str, seed: int, tiny: bool = False) -> dict:
    """The generated inputs of one workload: grids, sizes and trial seeds.

    The same ``(name, seed, tiny)`` always gives the same inputs; the
    seed only picks the simulation seeds, never the grid.  ``tiny`` is a
    seconds-long instance of the same workload for tests.
    """
    rng = random.Random(f"{name}:{seed}")

    def draw() -> int:
        return rng.randrange(1, 2**31)

    if name == "paper_sweep":
        clients, servers = ((2, 4), (2,)) if tiny else ((16, 64), (4, 16))
        points = [(n, m) for n in clients for m in servers]
        fig9 = [
            [impl, n, m, draw()]
            for impl in ("lwfs", "lustre-fpp", "lustre-shared")
            for n, m in points
            for _ in range(2)
        ]
        fig10 = [
            [impl, n, m, draw()]
            for impl in ("lwfs", "lustre-fpp")
            for n, m in points
            for _ in range(2)
        ]
        fault = ["lwfs", 8, 4, draw()] if tiny else ["lwfs", 16, 4, draw()]
        return {
            "fig9": fig9,
            "fig10": fig10,
            "fault": fault,
            "state_mb": 2 if tiny else 64,
            "fault_state_mb": 8 if tiny else 64,
            "creates": 4 if tiny else 32,
        }
    if name == "scale_restart":
        return {
            "clients": 256 if tiny else 10368,
            "servers": 16 if tiny else 320,
            "state_mb": 4 if tiny else 64,
            "seed": draw(),
            "data_seed": draw(),
            "trio_clients": 32 if tiny else 128,
            "trio_servers": 8 if tiny else 32,
            "trio_state_mb": 8,
            "trio_seed": draw(),
        }
    if name == "tenant_traffic":
        return {
            "tenants": 10_000 if tiny else 1_000_000,
            "rate": 600.0 if tiny else 1500.0,
            "horizon": 24.0 if tiny else 120.0,
            "quantum": 2.0,
            "representatives": 4,
            "servers": 4 if tiny else 16,
            "seed": draw(),
        }
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def _trial(name: str, value: float, unit: str, events: int, sim_s: float,
           error: str = "") -> dict:
    """One trial's simulated outputs and its correctness verdict."""
    return {
        "name": name,
        "value": value,
        "unit": unit,
        "events": events,
        "sim_s": sim_s,
        "error": error,
    }


def _paper_sweep(inputs: dict, jobs: int, stats: dict) -> List[dict]:
    exact = RunOptions(**EXACT)
    specs = [
        checkpoint_spec(impl, n, m, seed=s, state_bytes=inputs["state_mb"] * MiB,
                        options=exact)
        for impl, n, m, s in inputs["fig9"]
    ]
    specs += [
        create_spec(impl, n, m, seed=s, creates_per_client=inputs["creates"],
                    options=exact)
        for impl, n, m, s in inputs["fig10"]
    ]
    impl, n, m, s = inputs["fault"]
    specs.append(
        checkpoint_spec(impl, n, m, seed=s, state_bytes=inputs["fault_state_mb"] * MiB,
                        options=RunOptions(faults=FAULT_PLAN, **EXACT))
    )
    start = time.monotonic()
    outcomes = run_sweep(specs, jobs=jobs, label="perfbench", record=False, cache=False)
    wall = time.monotonic() - start
    workers = min(jobs, len(specs))
    stats["executor_idle_s"] = workers * wall - sum(o.wall_clock_s for o in outcomes)
    stats["executor_trials"] = len(outcomes)
    trials = []
    for o in outcomes:
        sp = o.spec
        name = f"{sp.kind}:{sp.impl}:{sp.n_clients}x{sp.n_servers}:{sp.seed}"
        error = ""
        if not o.value > 0.0:
            error = f"figure of merit {o.value!r} is not positive"
        if o.fault_summary is not None:
            name += ":faults"
            stats["rpc_retries"] += o.fault_summary.get("retries", 0.0)
            if o.fault_summary.get("faults_injected", 0.0) < 1:
                error = "the fault plan injected nothing"
        trials.append(_trial(name, o.value, o.unit, o.events_processed, o.sim_seconds, error))
    return trials


def _probe_equal(recovered, state) -> bool:
    """Structural equality plus real bytes at four windows of the state."""
    if not data_equal(recovered, state):
        return False
    size = piece_len(state)
    width = min(RESTART_PROBE_BYTES // 4, size)
    for start in (0, size // 3, (2 * size) // 3, size - width):
        a = piece_bytes(piece_slice(recovered, start, start + width))
        b = piece_bytes(piece_slice(state, start, start + width))
        if a != b:
            return False
    return True


def _dump_restart(inputs: dict, stats: dict) -> List[dict]:
    """Checkpoint every rank, restart every rank, compare the state."""
    n, m = inputs["clients"], inputs["servers"]
    state_bytes = inputs["state_mb"] * MiB
    data_seed = inputs["data_seed"]
    opts = RunOptions(**SCALE).resolved()
    spec = red_storm()
    cluster = SimCluster(
        spec, SimConfig(seed=inputs["seed"], flow=True),
        compute_nodes=min(spec.compute_nodes, n), io_nodes=spec.io_nodes,
        service_nodes=1, options=opts,
    )
    deployment = LWFSDeployment(cluster, n_storage_servers=m)
    checkpointer = LWFSCheckpointer(deployment)
    plan = collapse_plan(n, lambda r: checkpointer.collapse_key(r, state_bytes))
    app = ParallelApp(cluster.env, cluster.fabric, cluster.compute_nodes,
                      n_ranks=n, collapse=plan)

    def main(ctx):
        yield from checkpointer.setup(ctx)
        state = SyntheticData(state_bytes, seed=data_seed + ctx.rank,
                              origin=ctx.rank * state_bytes)
        dump = yield from checkpointer.checkpoint(ctx, state, path="/ckpt/perfbench")
        yield from ctx.barrier()
        recovered, restart = yield from checkpointer.restart(ctx, "/ckpt/perfbench")
        return state, recovered, dump.elapsed, restart.elapsed

    results = app.run(main)
    env = cluster.env
    mismatched = [
        ctx.rank for ctx, (state, recovered, _, _) in zip(app.contexts, results)
        if not _probe_equal(recovered, state)
    ]
    mults = [ctx.multiplicity for ctx in app.contexts]
    stats["ranks_simulated"] += len(mults)
    stats["max_multiplicity"] = max(stats["max_multiplicity"], max(mults))
    total_mb = n * state_bytes / MiB
    dump_s = max(r[2] for r in results)
    restart_s = max(r[3] for r in results)
    error = f"restarted state differs on ranks {mismatched[:8]}" if mismatched else ""
    return [
        _trial(f"dump:lwfs:{n}x{m}", total_mb / dump_s, "MB/s",
               env.events_processed, env.now, error),
        _trial(f"restart:lwfs:{n}x{m}", total_mb / restart_s, "MB/s",
               env.events_processed, env.now, error),
    ]


def _buffer_trio(inputs: dict, stats: dict) -> List[dict]:
    """Burst-buffer crossover: direct, buffer fits, drain-limited (metered)."""
    n, m = inputs["trio_clients"], inputs["trio_servers"]
    points = (
        ("direct", RunOptions(**SCALE)),
        ("buffer_fits", RunOptions(
            tiers=TierSpec(mode="buffer", placement="node-local", capacity_bytes=2 * GiB),
            **SCALE)),
        ("drain_limited", RunOptions(
            tiers=TierSpec(mode="buffer", placement="node-local", capacity_bytes=2 * MiB),
            collapse=True, flow=True, metrics=True)),
    )
    trials = []
    results = {}
    for label, options in points:
        r = run_checkpoint_trial(
            "lwfs", n, m, state_bytes=inputs["trio_state_mb"] * MiB,
            seed=inputs["trio_seed"], spec=red_storm(), options=options,
        )
        results[label] = r
        e = r.extra
        stats["ranks_simulated"] += int(e.get("ranks_simulated", 0))
        stats["max_multiplicity"] = max(stats["max_multiplicity"],
                                        int(e.get("max_multiplicity", 0)))
        stats["buffer_drained_mb"] += e.get("buffer_drained_mb", 0.0)
        trials.append(_trial(f"buffer:{label}:{n}x{m}", r.throughput_mb_s, "MB/s",
                             int(e["events_processed"]), e["sim_seconds"]))
    fits, limited = results["buffer_fits"].extra, results["drain_limited"].extra
    checks = {
        "buffer_fits": (
            results["buffer_fits"].throughput_mb_s > results["direct"].throughput_mb_s
            and fits["buffer_backpressure_s"] == 0.0
            and fits["buffer_drained_mb"] == fits["buffer_absorbed_mb"],
            "the fitting burst was not absorbed without backpressure",
        ),
        "drain_limited": (
            limited["buffer_backpressure_s"] > 0.0
            and limited["buffer_drain_limited"] == 1.0
            and results["drain_limited"].metrics is not None,
            "the undersized buffer showed no drain-limited backpressure",
        ),
    }
    for trial in trials:
        for label, (ok, why) in checks.items():
            if f":{label}:" in trial["name"] and not ok:
                trial["error"] = why
    return trials


def _tenant_traffic(inputs: dict, stats: dict) -> List[dict]:
    workload = diurnal_mixed(
        tenants=inputs["tenants"], rate=inputs["rate"], horizon=inputs["horizon"],
        quantum=inputs["quantum"], representatives=inputs["representatives"],
    )
    r = run_workload_trial(
        workload=workload, n_servers=inputs["servers"], seed=inputs["seed"],
        spec=red_storm(), options=RunOptions(tenant_collapse=True, metrics=False),
    )
    e = r.extra
    stats["ranks_simulated"] += int(e["sessions_simulated"])
    stats["max_multiplicity"] = max(stats["max_multiplicity"],
                                    int(e["max_class_multiplicity"]))
    failed = sum(v for k, v in e.items() if k.startswith("wl.") and k.endswith(".failed"))
    rel = abs(e["ops_per_s"] - inputs["rate"]) / inputs["rate"]
    error = ""
    if failed:
        error = f"{failed:.0f} operations failed"
    elif rel > RATE_REL_TOL:
        error = f"completed {e['ops_per_s']:.1f} ops/s, {rel:.1%} off the offered rate"
    return [
        _trial(f"traffic:{inputs['tenants']}:{inputs['servers']}", e["ops_per_s"],
               "ops/s", int(e["events_processed"]), e["sim_seconds"], error)
    ]


def new_stats() -> Dict[str, float]:
    """Per-run counters the workloads report next to their trials."""
    return {
        "executor_idle_s": 0.0,
        "executor_trials": 0,
        "rpc_retries": 0.0,
        "ranks_simulated": 0,
        "max_multiplicity": 0,
        "buffer_drained_mb": 0.0,
    }


def run_workload(name: str, inputs: dict, jobs: int = 1):
    """Run one workload on its generated inputs.

    Returns ``(trials, stats)``: one output record per trial (figure of
    merit, event count, simulated seconds, and an error string that is
    empty when every correctness check on it passed) and the counters
    of :func:`new_stats`.
    """
    stats = new_stats()
    if name == "paper_sweep":
        trials = _paper_sweep(inputs, jobs, stats)
    elif name == "scale_restart":
        trials = _dump_restart(inputs, stats) + _buffer_trio(inputs, stats)
    elif name == "tenant_traffic":
        trials = _tenant_traffic(inputs, stats)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return trials, stats
