"""Headline speedup benchmark: one big run, fast-forwarded.

The acceptance workload for the scale-out path: a 10,368-rank Red Storm
checkpoint (64 MiB per rank over 320 storage servers, collapse + flow)
run two ways in one process:

* **baseline** — ``fastforward=False``: every flow epoch simulated with
  per-chunk discrete events (the pre-optimization reference).
* **fast-forward** — the analytic epoch-skip engine retires steady flow
  epochs as closed-form completions.  Must be **bit-identical** to the
  baseline and at least **3×** faster.

Both trials run through :func:`repro.bench.run_sweep` (serially, cache
off) so per-trial wall-clock and kernel stats land in
``BENCH_sweep.json``; the speedup summary is recorded under the
``headline`` key of ``BENCH_kernel.json`` (preserved across baseline
reseeds) and in ``results/fastforward.json``.
"""

import json
import os
import sys

import pytest

from repro.bench import checkpoint_spec, run_sweep, save_json
from repro.machine.presets import red_storm
from repro.sim.config import RunOptions
from repro.units import MiB

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import run_once  # noqa: E402
from bench_simkernel_events import KERNEL_JSON, KERNEL_SCHEMA  # noqa: E402

#: Red Storm at scale: 10,368 compute ranks (Table 2) over 320 servers.
HL_CLIENTS = 10368
HL_SERVERS = 320
HL_STATE = 64 * MiB
HL_SEED = 11

#: Gate floor from the scale-out acceptance criteria.
MIN_FF_SPEEDUP = 3.0

#: Execution order matters: the optimized path runs first so its
#: wall-clock is measured on a clean heap — the event-heavy baseline
#: fragments the allocator enough to slow everything that follows.
CONFIGS = (
    ("fast-forward", RunOptions(collapse=True, flow=True, fastforward=True)),
    ("baseline", RunOptions(collapse=True, flow=True, fastforward=False)),
)


def run_headline(record=True):
    """Run both configurations serially; return per-config rows."""
    specs = [
        checkpoint_spec(
            "lwfs", HL_CLIENTS, HL_SERVERS, seed=HL_SEED,
            state_bytes=HL_STATE, spec=red_storm(), options=options,
        )
        for _, options in CONFIGS
    ]
    # jobs=1 + cache=False: each wall-clock is a clean serial measurement
    # of one whole run, never a cache hit or a contended worker.
    outcomes = run_sweep(
        specs, jobs=1, label="fastforward-headline", record=record, cache=False
    )
    base = outcomes[[name for name, _ in CONFIGS].index("baseline")]
    rows = []
    for (name, _), o in zip(CONFIGS, outcomes):
        rows.append({
            "config": name,
            "wall_s": round(o.wall_clock_s, 3),
            "speedup": round(base.wall_clock_s / o.wall_clock_s, 2),
            "throughput_mb_s": o.value,
            "rel_err": abs(o.value - base.value) / base.value,
            "events_processed": o.events_processed,
            "events_fast_forwarded": o.events_fast_forwarded,
        })
    return rows


def record_headline(rows, path=KERNEL_JSON):
    """Write the speedup summary under BENCH_kernel.json's headline key."""
    doc = {"schema": KERNEL_SCHEMA, "entries": []}
    try:
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict) and existing.get("schema") == KERNEL_SCHEMA:
            doc = existing
    except (OSError, ValueError):
        pass
    doc["headline"] = {
        "workload": f"lwfs {HL_CLIENTS}x{HL_STATE // MiB}MiB/{HL_SERVERS} "
                    f"red_storm seed={HL_SEED} collapse+flow",
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _check(rows):
    ff = {r["config"]: r for r in rows}["fast-forward"]
    # Fast-forward is an exact transformation: same figure of merit to
    # the last bit, or the engine mis-simulated an epoch.
    assert ff["rel_err"] == 0.0, f"fast-forward not bit-identical: {ff}"
    assert ff["speedup"] >= MIN_FF_SPEEDUP, f"fast-forward below 3x: {ff}"


def test_fastforward_headline(benchmark):
    rows = run_once(benchmark, run_headline)
    print()
    for r in rows:
        print(
            f"{r['config']:12s} {r['wall_s']:8.2f}s  {r['speedup']:6.2f}x  "
            f"{r['throughput_mb_s']:11,.1f} MB/s  rel_err {r['rel_err']:.2e}"
        )
    save_json("fastforward", {"rows": rows})
    record_headline(rows)
    _check(rows)


if __name__ == "__main__":  # pragma: no cover - CLI for the perf record
    rows = run_headline()
    for r in rows:
        print(
            f"{r['config']:12s} {r['wall_s']:8.2f}s  {r['speedup']:6.2f}x  "
            f"{r['throughput_mb_s']:11,.1f} MB/s  rel_err {r['rel_err']:.2e}  "
            f"(ffwd {r['events_fast_forwarded']})"
        )
    save_json("fastforward", {"rows": rows})
    record_headline(rows)
    _check(rows)
    print("headline gates ok: fast-forward bit-identical and >= "
          f"{MIN_FF_SPEEDUP:.0f}x")
