"""Headline speedup benchmark: one big run, fast-forwarded.

The acceptance workload for the scale-out path: a 10,368-rank Red Storm
checkpoint (64 MiB per rank over 320 storage servers, collapse + flow)
run two ways in one process:

* **fast-forward** — the shipping flow engine re-shares one connected
  component per arrival or departure and retires steady flow epochs as
  closed-form completions.
* **baseline** — the same trial under the test suite's global-refill
  oracle (``tests/reference.py::reference_flows``), which re-shares
  every active flow at every arrival and departure.  The shipping engine
  must be **bit-identical** to it here and at least **3×** faster.

Both trials run through :func:`repro.bench.run_sweep` (serially and in
this process, so the oracle's patch applies; cache off), so per-trial
wall-clock and kernel stats join the sweep file when
``REPRO_BENCH_SWEEP_JSON`` names one; the speedup summary lands in
``results/fastforward.json``.
"""

import contextlib
import os
import sys

import pytest

from repro.bench import checkpoint_spec, run_sweep, save_json
from repro.machine.presets import red_storm
from repro.sim.config import RunOptions
from repro.units import MiB

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, HERE)
# The oracle lives in the test suite, one directory up.
sys.path.insert(0, os.path.dirname(HERE))
from conftest import run_once  # noqa: E402
from tests.reference import reference_flows  # noqa: E402

#: Red Storm at scale: 10,368 compute ranks (Table 2) over 320 servers.
HL_CLIENTS = 10368
HL_SERVERS = 320
HL_STATE = 64 * MiB
HL_SEED = 11

#: Gate floor from the scale-out acceptance criteria.
MIN_FF_SPEEDUP = 3.0

#: Config name -> the flow engine it runs on.  Execution order matters:
#: the shipping engine runs first so its wall-clock is measured on a
#: clean heap — the event-heavy baseline fragments the allocator enough
#: to slow everything that follows.
CONFIGS = (
    ("fast-forward", contextlib.nullcontext),
    ("baseline", reference_flows),
)


def run_headline(record=True):
    """Run both configurations serially; return per-config rows."""
    spec = checkpoint_spec(
        "lwfs", HL_CLIENTS, HL_SERVERS, seed=HL_SEED, state_bytes=HL_STATE,
        spec=red_storm(), options=RunOptions(collapse=True, flow=True),
    )
    outcomes = []
    for _, engine in CONFIGS:
        # jobs=1 + cache=False: each wall-clock is a clean serial
        # measurement of one whole run in this process, never a cache
        # hit or a contended worker.
        with engine():
            outcomes += run_sweep(
                [spec], jobs=1, label="fastforward-headline", record=record,
                cache=False,
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


def _check(rows):
    ff = {r["config"]: r for r in rows}["fast-forward"]
    # At this scale the two engines agree to the last bit, or the
    # shipping engine mis-simulated an epoch.
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
    _check(rows)
    print("headline gates ok: fast-forward bit-identical and >= "
          f"{MIN_FF_SPEEDUP:.0f}x")
