"""Burst-buffer crossover benchmark: absorb-then-drain vs direct-to-OST.

The acceptance workload for the burst-buffer tier (ROADMAP item 2): the
128-client Red Storm slice (8 MiB per rank over 32 OSTs, collapse +
flow) run three ways —

* **direct** — the ordinary LWFS dump straight to the storage servers,
* **buffer-fits** — a node-local NVRAM tier large enough for the whole
  burst: wall time is set by the absorb speed and must beat direct by
  at least :data:`MIN_SPEEDUP`, with the drain completing asynchronously
  after the measured window,
* **drain-limited** — the same tier with the pool smaller than the
  burst: absorbs block on pool space (visible backpressure) and
  throughput collapses back toward the direct path.

All three run through :func:`repro.bench.run_sweep` (serially, cache
off) so per-trial wall-clock, kernel stats, and the buffer drain stats
land in ``BENCH_sweep.json``; the summary is recorded under the
``buffer`` key of ``BENCH_kernel.json`` and in
``results/buffer_crossover.json``.  The same three points are checked
live in tier-1 by
``tests/storage/test_buffer.py::TestRedStormCrossover``.
"""

import json
import os
import sys

from repro.bench import run_sweep, save_json
from repro.bench.executor import BUFFER_MIN_SPEEDUP, _buffer_grid

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import run_once  # noqa: E402
from bench_simkernel_events import KERNEL_JSON, KERNEL_SCHEMA  # noqa: E402

#: Buffer-fits must beat direct by at least this factor (the paper-style
#: crossover claim recorded in BENCH_kernel.json).
MIN_SPEEDUP = BUFFER_MIN_SPEEDUP

_POINTS = ("direct", "buffer_fits", "drain_limited")


def run_crossover(record=True):
    """Run the three crossover points; return per-point rows."""
    outcomes = run_sweep(
        _buffer_grid(), jobs=1, label="buffer-crossover", record=record, cache=False
    )
    rows = []
    for point, o in zip(_POINTS, outcomes):
        row = {
            "point": point,
            "throughput_mb_s": o.value,
            "wall_s": round(o.wall_clock_s, 3),
            "events_processed": o.events_processed,
        }
        if o.buffer_summary is not None:
            for k in ("buffer_absorbed_mb", "buffer_drained_mb",
                      "buffer_drain_tail_s", "buffer_drain_goodput_mb_s",
                      "buffer_backpressure_s", "buffer_drain_limited"):
                row[k] = round(o.buffer_summary[k], 6)
        rows.append(row)
    return rows


def record_buffer(rows, path=KERNEL_JSON):
    """Write the crossover summary under BENCH_kernel.json's buffer key."""
    doc = {"schema": KERNEL_SCHEMA, "entries": []}
    try:
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict) and existing.get("schema") == KERNEL_SCHEMA:
            doc = existing
    except (OSError, ValueError):
        pass
    direct, fits, limited = rows
    doc["buffer"] = {
        "workload": "lwfs 128 clients x 8 MiB over 32 servers red_storm "
                    "seed=600 collapse+flow, node-local NVRAM tier",
        "direct_mb_s": direct["throughput_mb_s"],
        "buffer_fits_mb_s": fits["throughput_mb_s"],
        "drain_limited_mb_s": limited["throughput_mb_s"],
        "absorb_speedup": round(fits["throughput_mb_s"] / direct["throughput_mb_s"], 3),
        "min_speedup": MIN_SPEEDUP,
        "drain_tail_s": fits["buffer_drain_tail_s"],
        "drain_goodput_mb_s": fits["buffer_drain_goodput_mb_s"],
        "drain_limited_backpressure_s": limited["buffer_backpressure_s"],
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _check(rows):
    direct, fits, limited = rows
    speedup = fits["throughput_mb_s"] / direct["throughput_mb_s"]
    assert speedup >= MIN_SPEEDUP, (
        f"buffer-fits only {speedup:.2f}x over direct (need {MIN_SPEEDUP:g}x)"
    )
    assert fits["buffer_backpressure_s"] == 0.0, f"fits regime backpressured: {fits}"
    assert fits["buffer_drained_mb"] == fits["buffer_absorbed_mb"], fits
    assert limited["buffer_backpressure_s"] > 0.0, f"no backpressure: {limited}"
    assert limited["buffer_drain_limited"] == 1.0, limited
    # Past capacity the drain sets the pace: throughput falls back to the
    # same order as direct, far below the absorb-limited regime.
    assert limited["throughput_mb_s"] < 0.5 * fits["throughput_mb_s"], rows


def _print(rows):
    for r in rows:
        extra = ""
        if "buffer_backpressure_s" in r:
            extra = (f"  tail {r['buffer_drain_tail_s']:6.2f}s  "
                     f"backpressure {r['buffer_backpressure_s']:6.2f}s")
        print(f"{r['point']:>14}  {r['throughput_mb_s']:10.0f} MB/s  "
              f"{r['wall_s']:6.2f}s wall{extra}")


def test_buffer_crossover(benchmark):
    rows = run_once(benchmark, run_crossover)
    print()
    _print(rows)
    save_json("buffer_crossover", {"rows": rows})
    record_buffer(rows)
    _check(rows)


if __name__ == "__main__":  # pragma: no cover - CLI for the perf record
    rows = run_crossover()
    _print(rows)
    save_json("buffer_crossover", {"rows": rows})
    record_buffer(rows)
    _check(rows)
    speedup = rows[1]["throughput_mb_s"] / rows[0]["throughput_mb_s"]
    print(f"buffer gates ok: {speedup:.1f}x absorb speedup, drain tail "
          f"{rows[1]['buffer_drain_tail_s']:.2f}s, drain-limited backpressure "
          f"{rows[2]['buffer_backpressure_s']:.2f}s")
