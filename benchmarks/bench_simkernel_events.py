"""Simkernel micro-benchmark: event-loop throughput (events/second).

Two workloads:

* **uncontended** — 64 clients paired into 32 disjoint (sender, receiver)
  lanes, each lane moving 200 × 1 MiB messages over the fabric with no
  contention: the shape the batched-timeout fast path targets.
* **timer-race** — an RPC-heavy create storm where every call arms a
  timeout timer that the reply then wins and cancels: the shape lazy
  event cancellation targets (tombstones skipped at pop instead of
  O(n) heap surgery).

Figures land in ``results/simkernel_events.json`` /
``results/simkernel_timer_race.json``.  These are single-shot readings
of one host; the exact event budgets of comparable trials are pinned in
``tests/sim/test_work_budget.py``.
"""

import time

import pytest

from repro.bench import run_create_trial, save_json
from repro.machine.presets import dev_cluster
from repro.network import Message
from repro.sim.cluster import SimCluster
from repro.sim.config import SimConfig
from repro.trace import kernel_stats
from repro.units import MiB

from conftest import run_once

N_CLIENTS = 64
MSGS_PER_LANE = 200

#: Timer-race workload size: every RPC arms + cancels one timeout timer.
RPC_CLIENTS = 32
RPC_SERVERS = 8
CREATES_PER_CLIENT = 64


def _run_uncontended():
    spec = dev_cluster()
    cluster = SimCluster(
        spec, SimConfig(seed=7), compute_nodes=N_CLIENTS,
        io_nodes=spec.io_nodes, service_nodes=1,
    )
    env, fabric = cluster.env, cluster.fabric
    nodes = cluster.compute_nodes

    def lane(a, b):
        for _ in range(MSGS_PER_LANE):
            yield from fabric.transfer(
                Message(src=a.node_id, dst=b.node_id, size=1 * MiB, tag="bench")
            )

    for i in range(0, N_CLIENTS, 2):
        env.process(lane(nodes[i], nodes[i + 1]))

    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    messages = fabric.counters["messages"]
    kernel = kernel_stats(env)
    return {
        "wall_s": wall,
        "events": kernel["events_processed"],
        "events_per_s": kernel["events_processed"] / wall,
        "messages": messages,
        "messages_per_s": messages / wall,
        "events_skipped_cancelled": kernel["events_skipped_cancelled"],
        "peak_event_queue": kernel["peak_event_queue"],
        "sim_seconds": kernel["sim_seconds"],
    }


def _run_timer_race():
    start = time.perf_counter()
    result = run_create_trial(
        "lwfs", RPC_CLIENTS, RPC_SERVERS, creates_per_client=CREATES_PER_CLIENT, seed=7
    )
    wall = time.perf_counter() - start
    extra = result.extra
    return {
        "wall_s": wall,
        "events": int(extra["events_processed"]),
        "events_per_s": extra["events_processed"] / wall,
        "events_skipped_cancelled": int(extra.get("events_skipped_cancelled", 0)),
        "peak_event_queue": int(extra["peak_event_queue"]),
        "sim_seconds": extra["sim_seconds"],
        "creates_per_s": extra["creates_per_s"],
    }


def test_simkernel_event_rate(benchmark):
    stats = run_once(benchmark, _run_uncontended)
    print()
    print(
        f"simkernel: {stats['events']} events in {stats['wall_s']:.3f}s "
        f"-> {stats['events_per_s']:,.0f} events/s, "
        f"{stats['messages_per_s']:,.0f} msgs/s"
    )
    save_json("simkernel_events", stats)
    assert stats["messages"] == (N_CLIENTS // 2) * MSGS_PER_LANE
    # Determinism probe: the simulated clock must be workload-defined.
    assert stats["sim_seconds"] == pytest.approx(0.8725652173912996, rel=1e-9)


def test_simkernel_timer_race(benchmark):
    stats = run_once(benchmark, _run_timer_race)
    print()
    print(
        f"timer-race: {stats['events']} events in {stats['wall_s']:.3f}s "
        f"-> {stats['events_per_s']:,.0f} events/s, "
        f"{stats['events_skipped_cancelled']} cancelled timers skipped"
    )
    save_json("simkernel_timer_race", stats)
    # Every create RPC arms a timer its reply then cancels; those MUST
    # surface as pop-time skips.
    assert stats["events_skipped_cancelled"] > 0
    # Figure-of-merit sanity: the workload really ran.
    assert stats["events"] > RPC_CLIENTS * CREATES_PER_CLIENT
