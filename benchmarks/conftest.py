"""Shared configuration for the paper-reproduction benchmarks.

Every benchmark prints the series/rows it regenerates (run pytest with
``-s`` to see them) and writes JSON under ``results/``.  Scale knobs:

* ``REPRO_BENCH_QUICK=1``  — a fast smoke sweep (CI-sized).
* default                  — the full client/server grid of the paper at a
  reduced per-client state size (throughput is size-invariant; see
  tests/bench/test_harness.py::test_throughput_roughly_size_invariant).
* ``REPRO_BENCH_FULL=1``   — the paper's full 512 MB per client.

Parallelism: sweeps fan trials out over ``REPRO_BENCH_JOBS`` worker
processes (default: CPU count) via :mod:`repro.bench.executor`; results
are bit-identical to a serial run.  Set ``REPRO_BENCH_SWEEP_JSON=FILE``
to record per-trial wall-clock/event stats there.
"""

import os

import pytest

from repro.bench import PAPER_STATE_BYTES, resolve_jobs
from repro.units import MiB


def _scale():
    if os.environ.get("REPRO_BENCH_FULL"):
        return {
            "clients": (2, 4, 8, 16, 32, 48, 64),
            "servers": (2, 4, 8, 16),
            "state_bytes": PAPER_STATE_BYTES,
            "trials": 5,
            "creates_per_client": 32,
        }
    if os.environ.get("REPRO_BENCH_QUICK"):
        return {
            "clients": (2, 8, 32),
            "servers": (2, 16),
            "state_bytes": 16 * MiB,
            "trials": 2,
            "creates_per_client": 16,
        }
    return {
        "clients": (2, 4, 8, 16, 32, 48, 64),
        "servers": (2, 4, 8, 16),
        "state_bytes": 32 * MiB,
        "trials": 3,
        "creates_per_client": 32,
    }


@pytest.fixture(scope="session")
def scale():
    return _scale()


@pytest.fixture(scope="session")
def jobs():
    """Worker-process count for sweeps (REPRO_BENCH_JOBS or CPU count)."""
    return resolve_jobs()


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark.

    A 'trial' here is a whole simulated sweep; re-running it for timing
    statistics would multiply minutes of work for no insight (the
    simulation is deterministic), so pedantic mode pins one round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
