"""Simkernel micro-benchmark: event-loop throughput (events/second).

Three workloads:

* **uncontended** — 64 clients paired into 32 disjoint (sender, receiver)
  lanes, each lane moving 200 × 1 MiB messages over the fabric with no
  contention: the shape the batched-timeout fast path targets.
* **timer-race** — an RPC-heavy create storm where every call arms a
  timeout timer that the reply then wins and cancels: the shape lazy
  event cancellation targets (tombstones skipped at pop instead of
  O(n) heap surgery).
* **fast-forward** — a 256-client Red Storm checkpoint slice run with the
  analytic epoch-skip engine on (the default): steady flow epochs retire
  as closed-form completions instead of per-chunk events.  Guarded by
  ranks simulated per wall-second (fixed work / wall), because a broken
  fast-forward path processes *more* events per second while taking far
  longer — events/s cannot see that regression.

Figures land in ``results/simkernel_events.json`` /
``results/simkernel_timer_race.json``, and every workload is measured
with the lazy-cancellation path ON and OFF (``REPRO_KERNEL_LAZY``
reference) into ``BENCH_kernel.json`` at the repo root, which
``benchmarks/check_kernel_perf.py`` uses as its regression baseline.
"""

import json
import os
import sys
import time

import pytest

from repro.bench import run_checkpoint_trial, run_create_trial, save_json
from repro.machine.presets import dev_cluster, red_storm
from repro.sim.config import RunOptions
from repro.sim.cluster import SimCluster
from repro.sim.config import SimConfig
from repro.trace import kernel_stats
from repro.units import MiB

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import run_once  # noqa: E402

N_CLIENTS = 64
MSGS_PER_LANE = 200

#: Timer-race workload size: every RPC arms + cancels one timeout timer.
RPC_CLIENTS = 32
RPC_SERVERS = 8
CREATES_PER_CLIENT = 64

KERNEL_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_kernel.json")
KERNEL_SCHEMA = "repro-bench-kernel/v1"


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
            yield fabric.send(a.node_id, b.node_id, 1 * MiB, tag="bench")

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


#: Fast-forward workload size: a CI-scaled Red Storm slice.
FF_CLIENTS = 256
FF_SERVERS = 32
FF_STATE = 16 * MiB


def _run_fast_forward():
    start = time.perf_counter()
    result = run_checkpoint_trial(
        "lwfs", FF_CLIENTS, FF_SERVERS, state_bytes=FF_STATE, seed=7,
        spec=red_storm(),
        options=RunOptions(collapse=True, flow=True),
    )
    wall = time.perf_counter() - start
    extra = result.extra
    return {
        "wall_s": wall,
        "events": int(extra["events_processed"]),
        "events_per_s": extra["events_processed"] / wall,
        "events_skipped_cancelled": int(extra.get("events_skipped_cancelled", 0)),
        "events_fast_forwarded": int(extra.get("events_fast_forwarded", 0)),
        "peak_event_queue": int(extra["peak_event_queue"]),
        "sim_seconds": extra["sim_seconds"],
        # Fixed work per wall-second: the regression signal for paths
        # whose whole point is to do the same work with fewer events.
        "ranks_per_s": FF_CLIENTS / wall,
        "throughput_mb_s": result.throughput_mb_s,
    }


WORKLOADS = {
    "uncontended": _run_uncontended,
    "timer_race": _run_timer_race,
    "fast_forward": _run_fast_forward,
}

#: Per-workload regression metric for BENCH_kernel.json baselines.  The
#: event-loop micro-benchmarks guard raw events/s; the fast-forward path
#: guards fixed-work rate (a broken epoch-skip engine *raises* events/s
#: while multiplying wall-clock).
FIGURE_OF_MERIT = {"fast_forward": "ranks_per_s"}


def fom_key(workload):
    """BENCH_kernel.json metric guarded for *workload* (default events/s)."""
    return FIGURE_OF_MERIT.get(workload, "events_per_s")


def _with_lazy(flag, fn):
    """Run *fn* with the kernel's lazy-cancellation switch forced to *flag*.

    ``Environment`` resolves the module-global at construction, so the
    patch only affects environments the workload itself creates.
    """
    from repro.simkernel import core

    saved = core.LAZY
    core.LAZY = flag
    try:
        return fn()
    finally:
        core.LAZY = saved


def record_kernel_baseline(path=KERNEL_JSON, best_of=1):
    """Measure every workload lazy-ON and lazy-OFF into BENCH_kernel.json.

    The lazy=False rows are the pre-optimization reference (the eager
    O(n) cancellation path); lazy=True is the shipping configuration and
    the baseline the perf smoke guard compares against.

    A ``headline`` section written by :mod:`bench_fastforward` (the
    10k-rank speedup record) is preserved across reseeds.
    """
    headline = None
    try:
        with open(path, encoding="utf-8") as fh:
            headline = json.load(fh).get("headline")
    except (OSError, ValueError):
        pass
    entries = []
    for name, fn in WORKLOADS.items():
        key = fom_key(name)
        for lazy in (False, True):
            best = None
            for _ in range(best_of):
                stats = _with_lazy(lazy, fn)
                if best is None or stats[key] > best[key]:
                    best = stats
            entries.append({"workload": name, "lazy": lazy, **best})
    doc = {"schema": KERNEL_SCHEMA, "entries": entries}
    if headline is not None:
        doc["headline"] = headline
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


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
    if os.environ.get("REPRO_KERNEL_LAZY", "1") != "0":
        # Every create RPC arms a timer its reply then cancels; under
        # lazy cancellation those MUST surface as pop-time skips.
        assert stats["events_skipped_cancelled"] > 0
    # Figure-of-merit sanity: the workload really ran.
    assert stats["events"] > RPC_CLIENTS * CREATES_PER_CLIENT


if __name__ == "__main__":  # pragma: no cover - CLI for the perf guard
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--record", action="store_true",
                        help="write lazy on/off baselines to BENCH_kernel.json")
    parser.add_argument("--best-of", type=int, default=3)
    args = parser.parse_args()
    if args.record:
        doc = record_kernel_baseline(best_of=args.best_of)
        for e in doc["entries"]:
            key = fom_key(e["workload"])
            print(
                f"{e['workload']:12s} lazy={e['lazy']!s:5s} "
                f"{e[key]:12,.1f} {key} "
                f"(skipped {e['events_skipped_cancelled']})"
            )
    else:
        print(json.dumps({name: fn() for name, fn in WORKLOADS.items()}, indent=2))
