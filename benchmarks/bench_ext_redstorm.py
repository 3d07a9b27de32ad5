"""Extension experiment: the checkpoint on a Red Storm-class slice.

The paper's future work (§6): "The next logical step is to acquire more
compelling evidence by running experiments on Sandia's large production
machines."  The simulation can take that step: this bench runs the LWFS
and Lustre-like checkpoints on a slice of the Red Storm model (Table 2
parameters: 6 GB/s links, 400 MB/s RAID per I/O node, lightweight-kernel
compute nodes on a 3-D mesh) and checks the dev-cluster conclusions carry
over to the bigger, faster machine.

It also validates symmetric-client collapsing at this scale: every dump
row is run exact (128 simulated ranks) and collapsed (one representative
per equivalence class with multiplicity weights), asserting the collapsed
figure of merit lands within tolerance of the exact one at a fraction of
the wall-clock cost.
"""

import time

from repro.bench import format_rows, run_checkpoint_trial, run_create_trial, save_json
from repro.bench.executor import checkpoint_spec, run_sweep
from repro.machine import dev_cluster, red_storm
from repro.sim import SimConfig
from repro.sim.config import RunOptions
from repro.units import MiB

from conftest import run_once

N_CLIENTS = 128
N_SERVERS = 32
STATE = 64 * MiB

#: Exact-vs-collapsed tolerance on dump MB/s.  Measured at this grid
#: point: lwfs 0.83%, lustre-fpp 0.03%, lustre-shared 0.37%.
COLLAPSE_REL_TOL = 0.02
#: Collapsing must buy at least this wall-clock factor on the dump rows.
#: Measured: 3.1x (lwfs), 3.2x (fpp), 43.8x (shared).
COLLAPSE_MIN_SPEEDUP = 3.0

#: Flow-vs-exact tolerance on per-client bandwidth (both slices).
#: Measured: <=0.2% everywhere.
FLOW_REL_TOL = 0.01
#: Flow mode must buy at least this wall-clock factor on the bulky dump.
#: Measured: 8.0x (lwfs), with ~12x fewer kernel events.
FLOW_MIN_SPEEDUP = 5.0
#: The steady-state regime the flow engine targets: 64 chunks per rank.
FLOW_STATE = 256 * MiB


def _row(impl, fn=run_checkpoint_trial, collapse=False, flow=False, **kw):
    spec = red_storm()
    start = time.perf_counter()
    result = fn(
        impl,
        N_CLIENTS,
        N_SERVERS,
        spec=spec,
        config=SimConfig(seed=91),
        seed=91,
        options=RunOptions(collapse=collapse, flow=flow),
        **kw,
    )
    wall = time.perf_counter() - start
    if fn is run_checkpoint_trial:
        row = {
            "impl": impl,
            "metric": "dump MB/s",
            "value": round(result.throughput_mb_s, 1),
        }
    else:
        row = {
            "impl": impl,
            "metric": "creates/s",
            "value": round(result.extra["creates_per_s"]),
        }
    row["collapse"] = collapse
    row["flow"] = flow
    row["wall_s"] = round(wall, 3)
    row["events"] = result.extra.get("events_processed")
    if collapse:
        row["ranks_simulated"] = result.extra.get("ranks_simulated")
        row["max_multiplicity"] = result.extra.get("max_multiplicity")
    return row


def test_redstorm_slice(benchmark):
    def sweep():
        rows = [
            _row("lwfs", state_bytes=STATE),
            _row("lustre-fpp", state_bytes=STATE),
            _row("lustre-shared", state_bytes=STATE),
            _row("lwfs", fn=run_create_trial, creates_per_client=16),
            _row("lustre-fpp", fn=run_create_trial, creates_per_client=16),
            _row("lwfs", state_bytes=STATE, collapse=True),
            _row("lustre-fpp", state_bytes=STATE, collapse=True),
            _row("lustre-shared", state_bytes=STATE, collapse=True),
        ]
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(
        format_rows(
            f"Extension — Red Storm slice ({N_CLIENTS} clients / {N_SERVERS} I/O nodes)",
            rows,
        )
    )
    save_json("ext_redstorm", rows)

    dump = {
        r["impl"]: r for r in rows if r["metric"] == "dump MB/s" and not r["collapse"]
    }
    coll = {
        r["impl"]: r for r in rows if r["metric"] == "dump MB/s" and r["collapse"]
    }
    creates = {
        r["impl"]: r["value"] for r in rows if r["metric"] == "creates/s"
    }

    # 32 I/O nodes x 400 MB/s = 12.8 GB/s ceiling; the stacks should get
    # most of it (LWFS/fpp) or roughly half (shared) — same shape, bigger
    # machine.
    ceiling = 32 * 400
    assert 0.75 * ceiling <= dump["lwfs"]["value"] <= 1.02 * ceiling
    assert 0.75 * ceiling <= dump["lustre-fpp"]["value"] <= 1.02 * ceiling
    assert 0.3 <= dump["lustre-shared"]["value"] / dump["lustre-fpp"]["value"] <= 0.75

    # The metadata-server conclusion is machine-independent.
    assert creates["lwfs"] > 10 * creates["lustre-fpp"]

    # Symmetric-client collapsing: same physics from far fewer ranks.
    for impl, exact in dump.items():
        c = coll[impl]
        rel = abs(c["value"] - exact["value"]) / exact["value"]
        speedup = exact["wall_s"] / c["wall_s"] if c["wall_s"] > 0 else float("inf")
        print(
            f"collapse {impl}: {c['value']} vs exact {exact['value']} MB/s "
            f"(rel {rel:.4f}), {c['ranks_simulated']} of {N_CLIENTS} ranks, "
            f"{speedup:.1f}x wall speedup"
        )
        assert rel <= COLLAPSE_REL_TOL, (impl, c["value"], exact["value"])
        assert c["ranks_simulated"] < N_CLIENTS // 2
        assert speedup >= COLLAPSE_MIN_SPEEDUP, (impl, speedup)


def _flow_specs(flow, collapse=False):
    """Red Storm bulky-dump specs, run through the sweep executor so the
    exact/flow pairs join the sweep file (when ``REPRO_BENCH_SWEEP_JSON``
    names one) with wall clock and kernel event counts."""
    spec = red_storm()
    return [
        checkpoint_spec(
            impl, N_CLIENTS, N_SERVERS, seed=91,
            spec=spec, config=SimConfig(seed=91),
            state_bytes=FLOW_STATE,
            options=RunOptions(flow=flow, collapse=collapse),
        )
        for impl in ("lwfs", "lustre-fpp")
    ]


def test_flow_level_accuracy_and_speedup(benchmark):
    """The flow engine's headline contract, at the paper's target scale:

    * per-client bandwidth within FLOW_REL_TOL of the exact chunked run
      on both machine models (dev-cluster slice, 128-client Red Storm);
    * at least FLOW_MIN_SPEEDUP x less wall clock on the bulky dump;
    * multiplicative with symmetric-client collapsing.
    """

    def sweep():
        # Red Storm 128-client slice, exact vs flow, via the executor so
        # both sweeps can be recorded.
        exact = run_sweep(
            _flow_specs(False), jobs=1, label="redstorm-flow-exact", cache=False
        )
        flowed = run_sweep(
            _flow_specs(True), jobs=1, label="redstorm-flow", cache=False
        )
        both = run_sweep(
            _flow_specs(True, collapse=True), jobs=1,
            label="redstorm-flow-collapse", cache=False,
        )

        # Dev-cluster slice: same accuracy envelope on the slow machine.
        dev = {}
        for flow in (False, True):
            result = run_checkpoint_trial(
                "lwfs", 16, 8, spec=dev_cluster(), config=SimConfig(seed=91),
                seed=91, state_bytes=FLOW_STATE, options=RunOptions(flow=flow),
            )
            dev[flow] = result.throughput_mb_s
        return exact, flowed, both, dev

    exact, flowed, both, dev = run_once(benchmark, sweep)

    rows = []
    for e, f, b in zip(exact, flowed, both):
        rel = abs(f.value - e.value) / e.value
        speedup = e.wall_clock_s / f.wall_clock_s
        combined = e.wall_clock_s / b.wall_clock_s
        rows.append({
            "impl": e.spec.impl,
            "exact MB/s": round(e.value, 1),
            "flow MB/s": round(f.value, 1),
            "rel": round(rel, 5),
            "flow speedup": round(speedup, 1),
            "flow+collapse speedup": round(combined, 1),
            "events": f"{e.events_processed} -> {f.events_processed}",
        })
    dev_rel = abs(dev[True] - dev[False]) / dev[False]
    rows.append({
        "impl": "lwfs (dev-cluster 16/8)",
        "exact MB/s": round(dev[False], 1),
        "flow MB/s": round(dev[True], 1),
        "rel": round(dev_rel, 5),
        "flow speedup": None,
        "flow+collapse speedup": None,
        "events": None,
    })
    print()
    print(format_rows(
        f"Extension — flow-level engine ({N_CLIENTS} clients, "
        f"{FLOW_STATE // MiB} MiB/rank)", rows,
    ))
    save_json("ext_flow", rows)

    assert dev_rel <= FLOW_REL_TOL, (dev[True], dev[False])
    for e, f, b in zip(exact, flowed, both):
        rel = abs(f.value - e.value) / e.value
        assert rel <= FLOW_REL_TOL, (e.spec.impl, f.value, e.value)
        speedup = e.wall_clock_s / f.wall_clock_s
        assert speedup >= FLOW_MIN_SPEEDUP, (e.spec.impl, speedup)
        # Collapsing multiplies on top: fewer ranks AND fewer events per
        # rank.  The combined run must beat flow alone.
        assert b.wall_clock_s < f.wall_clock_s, (e.spec.impl,)
        assert f.events_processed < e.events_processed // 5
        assert b.events_processed < f.events_processed
