"""Parallel sweep executor: fan independent trials out over processes.

The paper's evaluation is a grid sweep — implementations × client counts
× server counts × trials — and every trial is a fully independent,
deterministic simulation.  This module runs those trials over a
:class:`~concurrent.futures.ProcessPoolExecutor` and reassembles the
results *keyed by input position*, never by completion order, so a
parallel sweep is bit-identical to a serial one.

Knobs
-----
* ``jobs=`` argument (or ``--jobs``/``-j`` on ``python -m repro fig9|fig10``),
* ``REPRO_BENCH_JOBS`` environment variable,
* default: ``os.cpu_count()``.

``jobs=1`` (or a pool that cannot be created — missing ``fork``,
sandboxed semaphores, unpicklable trial parameters) falls back to plain
in-process execution, which is also the reference the determinism tests
compare against.

Each trial returns the harness's one record,
:class:`~repro.bench.harness.TrialResult`; the executor sets its
``spec``, ``wall_clock_s`` and ``cached`` fields.  Sweep recording is
opt-in: when ``REPRO_BENCH_SWEEP_JSON`` names a file, every sweep
appends one row per trial, built from the record, to it (the dashboard's
``--sweep FILE`` panel reads it back).  Nothing is written otherwise.

Trials are deterministic, so finished records persist in a
content-addressed cache (:mod:`repro.bench.cache`, keyed on the spec,
the resolved options and the simulator source) under
``results/.trial-cache/`` and re-running an unchanged sweep point costs a
file read instead of a simulation.  Disable with ``cache=False``
(``--no-cache`` on ``python -m repro fig9|fig10``) or
``REPRO_BENCH_CACHE=0``; sweep records report ``cache_hits`` /
``cache_misses`` so warm runs are visible in the recorded file.
"""

from __future__ import annotations

import gc
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pickle import PicklingError
from typing import Any, Dict, List, Optional, Sequence

from ..sim.config import env_str
from .harness import TrialResult, run_checkpoint_trial, run_create_trial, run_workload_trial

__all__ = [
    "TrialSpec",
    "checkpoint_spec",
    "create_spec",
    "workload_spec",
    "resolve_jobs",
    "run_trials",
    "run_sweep",
    "sweep_json_path",
]

#: Schema marker written into the sweep file; bump it when the row
#: format changes.  Sweeps recorded under older schemas are dropped on
#: the next write (with a count).
SWEEP_SCHEMA = "repro-bench-sweep/v6"

#: Cap on recorded sweep entries kept in the sweep file.
SWEEP_HISTORY = 50


@dataclass
class TrialSpec:
    """One independent simulation to run: what, at which point, which seed."""

    kind: str  # "checkpoint" (Fig. 9), "create" (Fig. 10), or "workload"
    impl: str
    n_clients: int
    n_servers: int
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> tuple:
        """Stable identity used for result assembly and JSON records."""
        return (self.kind, self.impl, self.n_clients, self.n_servers, self.seed)


def checkpoint_spec(impl: str, n_clients: int, n_servers: int, seed: int, **params) -> TrialSpec:
    """A Fig. 9 dump-phase trial (figure of merit: MB/s)."""
    return TrialSpec("checkpoint", impl, n_clients, n_servers, seed, params)


def create_spec(impl: str, n_clients: int, n_servers: int, seed: int, **params) -> TrialSpec:
    """A Fig. 10 create-phase trial (figure of merit: creates/s)."""
    return TrialSpec("create", impl, n_clients, n_servers, seed, params)


def workload_spec(workload, n_servers: int, seed: int, **params) -> TrialSpec:
    """An open-loop multi-tenant traffic trial (figure of merit: ops/s).

    ``workload`` is a :class:`~repro.workload.WorkloadSpec` or a JSON
    path.  A path is loaded here, so the trial-cache key holds the mix's
    content, never a file name, and a cached outcome never answers for a
    different mix.  ``n_clients`` records the simulated tenant
    population, not a session count.
    """
    from ..workload.spec import as_workload

    workload = as_workload(workload)
    return TrialSpec(
        "workload", "lwfs", workload.total_tenants, n_servers, seed,
        dict(params, workload=workload),
    )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: argument > ``REPRO_BENCH_JOBS`` > cores."""
    if jobs is None:
        raw = env_str("REPRO_BENCH_JOBS").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(f"REPRO_BENCH_JOBS={raw!r} is not an integer") from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _run_trial(spec: TrialSpec) -> TrialResult:
    """Execute one trial (runs in a worker process or in-process)."""
    start = time.perf_counter()
    if spec.kind == "checkpoint":
        result = run_checkpoint_trial(
            spec.impl, spec.n_clients, spec.n_servers, seed=spec.seed, **spec.params
        )
    elif spec.kind == "create":
        result = run_create_trial(
            spec.impl, spec.n_clients, spec.n_servers, seed=spec.seed, **spec.params
        )
    elif spec.kind == "workload":
        result = run_workload_trial(n_servers=spec.n_servers, seed=spec.seed, **spec.params)
    else:
        raise ValueError(f"unknown trial kind {spec.kind!r}")
    # The finished trial's machine (environment, processes, servers) is
    # cyclic garbage, and allocations alone rarely trigger a full
    # collection now that the hot path leaves no cycles: free it here so
    # a worker's dead trials do not pile up ahead of its next one.
    gc.collect()
    result.spec = spec
    result.wall_clock_s = time.perf_counter() - start
    return result


def _pool_context():
    """Prefer fork (inherits sys.path / env) where the platform has it."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _resolve_cache(cache):
    """Map the ``cache`` argument to a TrialCache or None.

    ``None`` (default) consults ``REPRO_BENCH_CACHE``; ``False`` disables
    for this call; ``True`` forces the default store; a
    :class:`~repro.bench.cache.TrialCache` instance is used as-is.
    """
    from .cache import TrialCache, cache_enabled

    if cache is None:
        return TrialCache() if cache_enabled() else None
    if cache is False:
        return None
    if cache is True:
        return TrialCache()
    return cache


#: Keys of one-shot executor warnings that already fired this process.
#: Convention: every "warn once" site registers a short string key here
#: via :func:`_warn_once` instead of growing its own module-level flag.
_WARNED_KEYS: set = set()


def _warn_once(key: str, message: str, stacklevel: int = 3) -> bool:
    """Emit *message* as a RuntimeWarning once per process per *key*.

    Returns whether the warning fired, so callers (and tests) can tell a
    fresh warning from a deduplicated repeat.
    """
    if key in _WARNED_KEYS:
        return False
    _WARNED_KEYS.add(key)
    import warnings

    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)
    return True


def run_trials(
    specs: Sequence[TrialSpec], jobs: Optional[int] = None, cache=None
) -> List[TrialResult]:
    """Run every trial and return the records in input order.

    With ``jobs > 1`` the trials run on a process pool; the merge is keyed
    by input position, so the output is bit-identical to the serial path
    regardless of which worker finishes first.  Pool-infrastructure
    failures (no fork, no semaphores, unpicklable params) degrade to the
    in-process path; real trial errors propagate either way.

    Specs with a warm entry in the persistent trial cache are answered
    from disk (``cached=True`` on the record) and never reach the pool;
    fresh results are written back.  Pass ``cache=False`` to bypass.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    store = _resolve_cache(cache)

    merged: Dict[int, TrialResult] = {}
    pending: List[int] = []
    if store is not None:
        for i, spec in enumerate(specs):
            t0 = time.perf_counter()
            hit = store.get(spec)
            if hit is not None:
                hit.spec, hit.cached = spec, True
                hit.wall_clock_s = time.perf_counter() - t0
                merged[i] = hit
            else:
                pending.append(i)
    else:
        pending = list(range(len(specs)))

    def finish(i: int, outcome: TrialResult) -> None:
        merged[i] = outcome
        if store is not None:
            store.put(specs[i], outcome)

    if jobs <= 1 or len(pending) <= 1:
        for i in pending:
            finish(i, _run_trial(specs[i]))
        return [merged[i] for i in range(len(specs))]

    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)), mp_context=_pool_context()
        ) as pool:
            futures = {pool.submit(_run_trial, specs[i]): i for i in pending}
            for future in as_completed(futures):
                finish(futures[future], future.result())
        return [merged[i] for i in range(len(specs))]
    except (OSError, PicklingError, ImportError, PermissionError) as exc:
        # The pool itself is unavailable; the sweep still has to finish.
        _warn_once(
            f"pool-fallback:{type(exc).__name__}",
            f"process pool unavailable ({type(exc).__name__}: {exc}); "
            "falling back to in-process execution",
        )
        for i in pending:
            if i not in merged:
                finish(i, _run_trial(specs[i]))
        return [merged[i] for i in range(len(specs))]


def sweep_json_path() -> Optional[str]:
    """The file sweeps are recorded to (``REPRO_BENCH_SWEEP_JSON``), or
    ``None`` when recording is off (the default)."""
    return env_str("REPRO_BENCH_SWEEP_JSON") or None


def run_sweep(
    specs: Sequence[TrialSpec],
    jobs: Optional[int] = None,
    label: str = "sweep",
    record: bool = True,
    cache=None,
) -> List[TrialResult]:
    """Run a whole sweep; with ``record`` and a :func:`sweep_json_path`,
    append its stats to that file."""
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()
    outcomes = run_trials(specs, jobs=jobs, cache=cache)
    wall = time.perf_counter() - start
    path = sweep_json_path()
    if record and path:
        _record_sweep(path, label, jobs, wall, outcomes)
    return outcomes


def _trial_record(o: TrialResult) -> Dict[str, Any]:
    """One per-trial JSON row: identity, figure of merit, kernel stats."""
    row: Dict[str, Any] = {
        "kind": o.spec.kind,
        "impl": o.spec.impl,
        "n_clients": o.spec.n_clients,
        "n_servers": o.spec.n_servers,
        "seed": o.spec.seed,
        "value": o.value,
        "unit": o.unit,
        "wall_clock_s": round(o.wall_clock_s, 6),
        "events_processed": o.events_processed,
        "peak_event_queue": o.peak_event_queue,
        "sim_seconds": round(o.sim_seconds, 9),
        "events_fast_forwarded": o.events_fast_forwarded,
        "cached": o.cached,
    }
    if o.tenants_simulated:
        row["tenants_simulated"] = o.tenants_simulated
        row["max_class_multiplicity"] = o.max_class_multiplicity
    if o.trace_summary is not None:
        row["trace_summary"] = o.trace_summary
    if o.fault_summary is not None:
        row["fault_summary"] = o.fault_summary
    if o.buffer_summary is not None:
        row["buffer_summary"] = o.buffer_summary
    if o.metrics_summary is not None:
        row["metrics_summary"] = o.metrics_summary
    return row


def _record_sweep(
    path: str, label: str, jobs: int, wall: float, outcomes: List[TrialResult]
) -> None:
    doc: Dict[str, Any] = {"schema": SWEEP_SCHEMA, "sweeps": []}
    try:
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict) and isinstance(existing.get("sweeps"), list):
            if existing.get("schema") == SWEEP_SCHEMA:
                doc = existing
            else:
                # Rows written under an older schema are stale by
                # construction (the trial key changed); keeping them
                # would mix incomparable generations in one file.
                print(
                    f"[bench] dropping {len(existing['sweeps'])} sweep(s) recorded "
                    f"under {existing.get('schema')!r} (current: {SWEEP_SCHEMA!r})"
                )
    except (OSError, ValueError):
        pass

    serial_s = sum(o.wall_clock_s for o in outcomes)
    hits = sum(1 for o in outcomes if o.cached)
    doc["sweeps"].append(
        {
            "label": label,
            "jobs": jobs,
            "trials": len(outcomes),
            "wall_clock_s": round(wall, 6),
            "serial_trial_s": round(serial_s, 6),
            "speedup": round(serial_s / wall, 3) if wall > 0 else None,
            "cache_hits": hits,
            "cache_misses": len(outcomes) - hits,
            "events_processed": sum(o.events_processed for o in outcomes),
            "per_trial": [_trial_record(o) for o in outcomes],
        }
    )
    doc["sweeps"] = doc["sweeps"][-SWEEP_HISTORY:]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError:  # pragma: no cover - read-only checkout
        pass


#: Buffer crossover: with the burst fitting the buffer, the dump must
#: beat direct-to-OST by at least this factor on the Red Storm slice
#: (asserted by benchmarks/bench_buffer.py and tests/storage/test_buffer.py).
BUFFER_MIN_SPEEDUP = 5.0


def _buffer_grid() -> List[TrialSpec]:
    """The burst-buffer crossover points: the 128-client Red Storm slice
    direct, buffered with the burst fitting the pool (absorb-limited),
    and buffered with the pool smaller than the burst (drain-limited)."""
    from ..machine.presets import red_storm
    from ..sim.config import RunOptions
    from ..storage.buffer import TierSpec
    from ..units import GiB, MiB

    spec = red_storm()
    base = dict(collapse=True, flow=True)
    fits = TierSpec(mode="buffer", placement="node-local", capacity_bytes=2 * GiB)
    limited = TierSpec(mode="buffer", placement="node-local", capacity_bytes=2 * MiB)
    return [
        checkpoint_spec(
            "lwfs", 128, 32, seed=600, state_bytes=8 * MiB, spec=spec,
            options=RunOptions(**base),
        ),
        checkpoint_spec(
            "lwfs", 128, 32, seed=600, state_bytes=8 * MiB, spec=spec,
            options=RunOptions(tiers=fits, **base),
        ),
        checkpoint_spec(
            "lwfs", 128, 32, seed=600, state_bytes=8 * MiB, spec=spec,
            options=RunOptions(tiers=limited, **base),
        ),
    ]
