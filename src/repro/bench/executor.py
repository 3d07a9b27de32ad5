"""Parallel sweep executor: fan independent trials out over processes.

The paper's evaluation is a grid sweep — implementations × client counts
× server counts × trials — and every trial is a fully independent,
deterministic simulation.  This module runs those trials over a
:class:`~concurrent.futures.ProcessPoolExecutor` and reassembles the
results *keyed by input position*, never by completion order, so a
parallel sweep is bit-identical to a serial one.

Knobs
-----
* ``jobs=`` argument (or ``--jobs``/``-j`` on the CLI),
* ``REPRO_BENCH_JOBS`` environment variable,
* default: ``os.cpu_count()``.

``jobs=1`` (or a pool that cannot be created — missing ``fork``,
sandboxed semaphores, unpicklable trial parameters) falls back to plain
in-process execution, which is also the reference the determinism tests
compare against.

Every recorded sweep appends per-trial wall-clock and event-loop stats to
``BENCH_sweep.json`` at the repository root (override the path with
``REPRO_BENCH_SWEEP_JSON``), so speedups are measurable across PRs.

Trials are deterministic, so finished outcomes persist in a
content-addressed cache (:mod:`repro.bench.cache`) under
``results/.trial-cache/`` and re-running an unchanged sweep point costs a
file read instead of a simulation.  Disable with ``--no-cache`` or
``REPRO_BENCH_CACHE=0``; sweep records report ``cache_hits`` /
``cache_misses`` so warm runs are visible in BENCH_sweep.json.
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

__all__ = [
    "TrialSpec",
    "TrialOutcome",
    "checkpoint_spec",
    "create_spec",
    "workload_spec",
    "resolve_jobs",
    "run_trials",
    "run_sweep",
    "sweep_json_path",
]

#: Schema marker written into BENCH_sweep.json.  Jumped v1 -> v4 to join
#: the trial cache's generation numbering (repro-trial-cache/v4): both
#: stores grew the metrics summary in the same change, and one shared
#: generation is easier to audit than two drifting ones.  v5: open-loop
#: workload trials (kind="workload") joined the sweep, and per-trial
#: rows grew tenants_simulated / max_class_multiplicity.  v6: the
#: burst-buffer tier signature joined the trial key (repro-trial-cache/v6)
#: and buffered rows carry the buffer_* drain stats; sweeps recorded
#: under older schemas are dropped on the next write (with a count).
SWEEP_SCHEMA = "repro-bench-sweep/v6"

#: Cap on recorded sweep entries kept in BENCH_sweep.json.
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


@dataclass
class TrialOutcome:
    """A finished trial: the figure of merit plus executor-side stats.

    ``value``/``unit`` are the deterministic simulation outputs;
    ``wall_clock_s`` is host time and intentionally kept out of every
    aggregate that must be reproducible.
    """

    spec: TrialSpec
    value: float
    unit: str
    wall_clock_s: float
    events_processed: int
    peak_event_queue: int
    sim_seconds: float = 0.0
    #: Flow completions the analytic fast-forward engine retired without
    #: per-chunk event scheduling (0 when the engine is off or unused).
    events_fast_forwarded: int = 0
    #: Conservative-sync barrier crossings summed over the run's shards
    #: (0 for single-process runs).
    window_barriers: int = 0
    #: Completed span list when the spec carried ``trace=True`` (spans
    #: pickle cleanly, so traced trials survive the process pool).
    trace: Optional[list] = None
    #: Compact per-kind summary of the trace, sized for BENCH_sweep.json.
    trace_summary: Optional[Dict[str, Any]] = None
    #: Fault-recovery counters + log when the spec carried a fault plan
    #: (``retries``, ``recovered_ops``, ``goodput_degraded``, ...).
    fault_summary: Optional[Dict[str, Any]] = None
    fault_log: Optional[list] = None
    #: Full exported metrics document when the spec carried
    #: ``RunOptions(metrics=True)`` (see :mod:`repro.metrics.export`);
    #: plain JSON dict, so it survives the pool and the trial cache.
    metrics: Optional[Dict[str, Any]] = None
    #: Compact series summary + SLO verdict, sized for BENCH_sweep.json.
    metrics_summary: Optional[Dict[str, Any]] = None
    #: Burst-buffer drain stats when the spec carried a tier
    #: (``buffer_absorbed_mb``, ``buffer_drain_tail_s``,
    #: ``buffer_backpressure_s``, ...; None on the direct path).
    buffer_summary: Optional[Dict[str, float]] = None
    #: Open-loop workload trials: how many tenants the run stood for and
    #: the largest tenant multiplicity one representative session carried
    #: (0 for the closed-loop checkpoint/create kinds).
    tenants_simulated: int = 0
    max_class_multiplicity: int = 0
    #: ``True`` when the outcome came from the persistent trial cache
    #: (``wall_clock_s`` is then the cache lookup, not a simulation).
    cached: bool = False


def checkpoint_spec(impl: str, n_clients: int, n_servers: int, seed: int, **params) -> TrialSpec:
    """A Fig. 9 dump-phase trial (figure of merit: MB/s)."""
    return TrialSpec("checkpoint", impl, n_clients, n_servers, seed, params)


def create_spec(impl: str, n_clients: int, n_servers: int, seed: int, **params) -> TrialSpec:
    """A Fig. 10 create-phase trial (figure of merit: creates/s)."""
    return TrialSpec("create", impl, n_clients, n_servers, seed, params)


def workload_spec(workload, n_servers: int, seed: int, **params) -> TrialSpec:
    """An open-loop multi-tenant traffic trial (figure of merit: ops/s).

    ``workload`` is a :class:`~repro.workload.WorkloadSpec`, a JSON path,
    or a spec document; its content signature joins the trial-cache key
    through ``RunOptions.describe``/``params``, so cached outcomes never
    answer for a different mix.  ``n_clients`` records the simulated
    tenant population, not a session count.
    """
    from ..workload.spec import WorkloadSpec

    n_clients = 0
    if isinstance(workload, WorkloadSpec):
        n_clients = workload.total_tenants
    return TrialSpec(
        "workload", "lwfs", n_clients, n_servers, seed,
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


def _run_trial(spec: TrialSpec) -> TrialOutcome:
    """Execute one trial (runs in a worker process or in-process)."""
    from .harness import run_checkpoint_trial, run_create_trial

    start = time.perf_counter()
    if spec.kind == "checkpoint":
        result = run_checkpoint_trial(
            spec.impl, spec.n_clients, spec.n_servers, seed=spec.seed, **spec.params
        )
        value, unit = result.throughput_mb_s, "MB/s"
    elif spec.kind == "create":
        result = run_create_trial(
            spec.impl, spec.n_clients, spec.n_servers, seed=spec.seed, **spec.params
        )
        value, unit = result.extra["creates_per_s"], "ops/s"
    elif spec.kind == "workload":
        from ..workload.engine import run_workload_trial

        result = run_workload_trial(
            n_servers=spec.n_servers, seed=spec.seed, **spec.params
        )
        value, unit = result.extra["ops_per_s"], "ops/s"
    else:
        raise ValueError(f"unknown trial kind {spec.kind!r}")
    # The finished trial's machine (environment, processes, servers) is
    # cyclic garbage, and allocations alone rarely trigger a full
    # collection now that the hot path leaves no cycles: free it here so
    # a worker's dead trials do not pile up ahead of its next one.
    gc.collect()
    wall = time.perf_counter() - start
    trace_summary = None
    if result.trace is not None:
        from ..trace import summarize

        trace_summary = summarize(result.trace)
    fault_summary = None
    if result.fault_log is not None:
        fault_summary = {
            k: result.extra[k]
            for k in (
                "faults_injected", "retries", "recovered_ops", "rpc_dropped",
                "rpc_duplicated", "degraded_seconds", "goodput_degraded",
            )
            if k in result.extra
        }
        fault_summary["fault_log_entries"] = len(result.fault_log)
    buffer_summary = {
        k: v for k, v in result.extra.items() if k.startswith("buffer_")
    } or None
    metrics_summary = None
    if result.metrics is not None:
        from ..metrics import metrics_summary as summarize_metrics

        metrics_summary = summarize_metrics(result.metrics)
    return TrialOutcome(
        spec=spec,
        value=value,
        unit=unit,
        wall_clock_s=wall,
        events_processed=int(result.extra.get("events_processed", 0)),
        peak_event_queue=int(result.extra.get("peak_event_queue", 0)),
        sim_seconds=float(result.extra.get("sim_seconds", 0.0)),
        events_fast_forwarded=int(result.extra.get("events_fast_forwarded", 0)),
        window_barriers=int(result.extra.get("window_barriers", 0)),
        trace=result.trace,
        trace_summary=trace_summary,
        fault_summary=fault_summary,
        buffer_summary=buffer_summary,
        fault_log=result.fault_log,
        metrics=result.metrics,
        metrics_summary=metrics_summary,
        tenants_simulated=int(result.extra.get("tenants_simulated", 0)),
        max_class_multiplicity=int(result.extra.get("max_class_multiplicity", 0)),
    )


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


def _outcome_payload(o: TrialOutcome) -> Dict[str, Any]:
    """The deterministic slice of an outcome, as stored in the cache."""
    payload = {
        "value": o.value,
        "unit": o.unit,
        "events_processed": o.events_processed,
        "peak_event_queue": o.peak_event_queue,
        "sim_seconds": o.sim_seconds,
        "events_fast_forwarded": o.events_fast_forwarded,
        "window_barriers": o.window_barriers,
    }
    if o.tenants_simulated:
        payload["tenants_simulated"] = o.tenants_simulated
        payload["max_class_multiplicity"] = o.max_class_multiplicity
    if o.buffer_summary is not None:
        payload["buffer_summary"] = o.buffer_summary
    if o.metrics is not None:
        payload["metrics"] = o.metrics
        payload["metrics_summary"] = o.metrics_summary
    return payload


def _cached_outcome(spec: TrialSpec, payload: Dict[str, Any], wall: float) -> TrialOutcome:
    metrics = payload.get("metrics")
    return TrialOutcome(
        spec=spec,
        value=float(payload["value"]),
        unit=str(payload["unit"]),
        wall_clock_s=wall,
        events_processed=int(payload.get("events_processed", 0)),
        peak_event_queue=int(payload.get("peak_event_queue", 0)),
        sim_seconds=float(payload.get("sim_seconds", 0.0)),
        events_fast_forwarded=int(payload.get("events_fast_forwarded", 0)),
        window_barriers=int(payload.get("window_barriers", 0)),
        metrics=metrics if isinstance(metrics, dict) else None,
        metrics_summary=payload.get("metrics_summary"),
        buffer_summary=payload.get("buffer_summary"),
        tenants_simulated=int(payload.get("tenants_simulated", 0)),
        max_class_multiplicity=int(payload.get("max_class_multiplicity", 0)),
        cached=True,
    )


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


def _clamp_jobs_for_shards(jobs: int, specs: Sequence[TrialSpec]) -> int:
    """Cap ``jobs`` so trial workers x shard workers fit the machine.

    A sharded trial forks its own worker per shard, so a pool of J
    sharded trials runs J x S simulation processes.  Oversubscribing
    cores that way is strictly slower than a narrower pool (the shards
    within one trial must advance in lockstep, so preempting them
    stretches every window).  Warns once per process when it clamps.
    """
    from .cache import _resolved_options

    max_shards = 1
    for spec in specs:
        try:
            max_shards = max(max_shards, _resolved_options(spec).shards)
        except (TypeError, ValueError):  # pragma: no cover - exotic params
            continue
    if max_shards <= 1:
        return jobs
    cores = os.cpu_count() or 1
    if jobs * max_shards <= cores:
        return jobs
    capped = max(1, cores // max_shards)
    if capped < jobs:
        _warn_once(
            "shard-clamp",
            f"jobs={jobs} x shards={max_shards} oversubscribes "
            f"{cores} cores; capping jobs at {capped}",
            stacklevel=4,
        )
    return min(jobs, capped)


def run_trials(
    specs: Sequence[TrialSpec], jobs: Optional[int] = None, cache=None
) -> List[TrialOutcome]:
    """Run every trial and return outcomes in input order.

    With ``jobs > 1`` the trials run on a process pool; the merge is keyed
    by input position, so the output is bit-identical to the serial path
    regardless of which worker finishes first.  Pool-infrastructure
    failures (no fork, no semaphores, unpicklable params) degrade to the
    in-process path; real trial errors propagate either way.

    Specs with a warm entry in the persistent trial cache are answered
    from disk (``cached=True`` on the outcome) and never reach the pool;
    fresh results are written back.  Pass ``cache=False`` to bypass.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    jobs = _clamp_jobs_for_shards(jobs, specs)
    store = _resolve_cache(cache)

    merged: Dict[int, TrialOutcome] = {}
    pending: List[int] = []
    if store is not None:
        for i, spec in enumerate(specs):
            t0 = time.perf_counter()
            payload = store.get(spec)
            if payload is not None:
                merged[i] = _cached_outcome(spec, payload, time.perf_counter() - t0)
            else:
                pending.append(i)
    else:
        pending = list(range(len(specs)))

    def finish(i: int, outcome: TrialOutcome) -> None:
        merged[i] = outcome
        if store is not None:
            store.put(specs[i], _outcome_payload(outcome))

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


def sweep_json_path() -> str:
    """Where sweep trajectories are recorded (``REPRO_BENCH_SWEEP_JSON``)."""
    override = env_str("REPRO_BENCH_SWEEP_JSON")
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "..", "BENCH_sweep.json"))


def run_sweep(
    specs: Sequence[TrialSpec],
    jobs: Optional[int] = None,
    label: str = "sweep",
    record: bool = True,
    cache=None,
) -> List[TrialOutcome]:
    """Run a whole sweep, optionally recording stats to BENCH_sweep.json."""
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()
    outcomes = run_trials(specs, jobs=jobs, cache=cache)
    wall = time.perf_counter() - start
    if record:
        _record_sweep(label, jobs, wall, outcomes)
    return outcomes


def _trial_record(o: TrialOutcome) -> Dict[str, Any]:
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
        "window_barriers": o.window_barriers,
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


def _record_sweep(label: str, jobs: int, wall: float, outcomes: List[TrialOutcome]) -> None:
    path = sweep_json_path()
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


def _quick_grid() -> List[TrialSpec]:
    """The CI smoke sweep: a reduced Fig. 9 + Fig. 10 grid."""
    from ..units import MiB

    specs: List[TrialSpec] = []
    for impl in ("lwfs", "lustre-fpp"):
        for m in (2, 16):
            for n in (2, 8):
                for t in range(2):
                    specs.append(
                        checkpoint_spec(impl, n, m, seed=100 + t, state_bytes=8 * MiB)
                    )
    for m in (2, 16):
        for n in (2, 8):
            for t in range(2):
                specs.append(create_spec("lwfs", n, m, seed=200 + t, creates_per_client=8))
    return specs


def _flow_grid(flow: bool) -> List[TrialSpec]:
    """The flow accuracy gate: bulky dumps (> 2 chunks per rank), so the
    steady-state middle actually rides the flow engine, run with the flag
    both ways at otherwise identical points."""
    from ..units import MiB

    specs: List[TrialSpec] = []
    for impl in ("lwfs", "lustre-fpp"):
        for n, m in ((4, 2), (8, 4)):
            specs.append(
                checkpoint_spec(
                    impl, n, m, seed=300, state_bytes=32 * MiB, flow=flow
                )
            )
    return specs


#: Flow-vs-exact gate: maximum relative error on the figure of merit.
FLOW_REL_TOL = 0.01

#: Fast-forward gate: the analytic engine must match the reference flow
#: arithmetic to floating-point noise, not merely to model tolerance.
FF_REL_TOL = 1e-9

#: Sharded-vs-single gate: maximum relative error on the figure of merit
#: (the mean-field service split and per-shard jitter draws bound this).
SHARD_REL_TOL = 0.01


def _ff_grid(fastforward: bool) -> List[TrialSpec]:
    """The fast-forward equivalence gate: flow-mode dumps big enough to
    keep many concurrent flows live, with the engine forced on or off."""
    from ..sim.config import RunOptions
    from ..units import MiB

    specs: List[TrialSpec] = []
    for impl in ("lwfs", "lustre-fpp"):
        for n, m in ((8, 4), (16, 8)):
            specs.append(
                checkpoint_spec(
                    impl, n, m, seed=400, state_bytes=32 * MiB,
                    options=RunOptions(flow=True, fastforward=fastforward),
                )
            )
    return specs


def _shard_grid(shards: int) -> List[TrialSpec]:
    """The shard accuracy gate: the 128-client Red Storm slice, sharded
    versus single-process at otherwise identical points."""
    from ..machine.presets import red_storm
    from ..sim.config import RunOptions
    from ..units import MiB

    return [
        checkpoint_spec(
            "lwfs", 128, 32, seed=500, state_bytes=8 * MiB,
            spec=red_storm(),
            options=RunOptions(collapse=True, flow=True, shards=shards),
        )
    ]


#: Buffer crossover gate: with the burst fitting the buffer, the dump
#: must beat direct-to-OST by at least this factor on the Red Storm slice.
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


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.bench.executor``: smoke-run the parallel sweep.

    Runs the quick grid with the requested job count, optionally re-runs
    it serially and asserts bit-identical results, and records both runs
    in BENCH_sweep.json.  This is what ``make bench-quick`` / CI invokes.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.executor",
        description="Smoke-run the parallel sweep executor on a reduced grid.",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_BENCH_JOBS or CPU count)",
    )
    parser.add_argument(
        "--check-determinism", action="store_true",
        help="re-run the sweep with jobs=1 and require bit-identical results",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent trial cache (results/.trial-cache)",
    )
    parser.add_argument(
        "--check-cache", action="store_true",
        help="re-run the sweep warm and require identical results from cache hits",
    )
    parser.add_argument(
        "--check-flow", action="store_true",
        help="run the flow accuracy grid exact and flow-level and require "
             f"relative error <= {FLOW_REL_TOL:.0%} at every point",
    )
    parser.add_argument(
        "--check-fastforward", action="store_true",
        help="run the flow grid with the analytic fast-forward engine on "
             f"and off and require relative error <= {FF_REL_TOL:g}",
    )
    parser.add_argument(
        "--check-buffer", action="store_true",
        help="run the burst-buffer crossover points (direct vs buffer-fits "
             f"vs drain-limited) and require a >= {BUFFER_MIN_SPEEDUP:g}x "
             "absorb speedup plus visible drain-limited backpressure",
    )
    parser.add_argument(
        "--check-shard", action="store_true",
        help="run the 128-client Red Storm slice sharded and single-process "
             f"and require relative error <= {SHARD_REL_TOL:.0%}, plus "
             "bit-identical repeat of the sharded run",
    )
    args = parser.parse_args(argv)

    cache = False if args.no_cache else None
    jobs = resolve_jobs(args.jobs)
    specs = _quick_grid()
    start = time.perf_counter()
    outcomes = run_sweep(specs, jobs=jobs, label=f"quick(jobs={jobs})", cache=cache)
    wall = time.perf_counter() - start
    hits = sum(1 for o in outcomes if o.cached)
    print(
        f"quick sweep: {len(outcomes)} trials, jobs={jobs}, "
        f"{wall:.2f}s wall, {sum(o.events_processed for o in outcomes)} events, "
        f"{hits} cache hits"
    )

    if args.check_cache:
        if args.no_cache:
            print("--check-cache is meaningless with --no-cache")
            return 2
        warm_start = time.perf_counter()
        warm = run_sweep(specs, jobs=jobs, label=f"quick-warm(jobs={jobs})", cache=cache)
        warm_wall = time.perf_counter() - warm_start
        warm_hits = sum(1 for o in warm if o.cached)
        bad = [
            (o.spec.key(), o.value, w.value)
            for o, w in zip(outcomes, warm)
            if o.value != w.value
        ]
        if bad or warm_hits != len(specs):
            for key, cold_v, warm_v in bad[:10]:
                print(f"CACHE MISMATCH {key}: cold={cold_v!r} warm={warm_v!r}")
            print(f"cache check FAILED: {warm_hits}/{len(specs)} hits, {len(bad)} mismatches")
            return 1
        ratio = wall / warm_wall if warm_wall > 0 else float("inf")
        print(
            f"cache ok: {warm_hits}/{len(specs)} warm hits, identical aggregates, "
            f"{wall:.2f}s cold vs {warm_wall:.2f}s warm ({ratio:.1f}x)"
        )

    if args.check_flow:
        exact = run_sweep(
            _flow_grid(False), jobs=jobs, label="flow-gate-exact", cache=cache
        )
        flowed = run_sweep(
            _flow_grid(True), jobs=jobs, label="flow-gate-flow", cache=cache
        )
        worst = 0.0
        bad = []
        for e, f in zip(exact, flowed):
            rel = abs(f.value - e.value) / e.value if e.value else 0.0
            worst = max(worst, rel)
            if rel > FLOW_REL_TOL:
                bad.append((e.spec.key(), e.value, f.value, rel))
        ev_exact = sum(o.events_processed for o in exact)
        ev_flow = sum(o.events_processed for o in flowed)
        if bad:
            for key, ev, fv, rel in bad:
                print(f"FLOW DRIFT {key}: exact={ev:.3f} flow={fv:.3f} rel={rel:.4f}")
            print(f"flow gate FAILED: {len(bad)} points over {FLOW_REL_TOL:.0%}")
            return 1
        ratio = ev_exact / ev_flow if ev_flow else float("inf")
        print(
            f"flow gate ok: {len(flowed)} points within {FLOW_REL_TOL:.0%} "
            f"(worst {worst:.4%}), {ev_exact} -> {ev_flow} events ({ratio:.1f}x fewer)"
        )

    if args.check_fastforward:
        reference = run_sweep(
            _ff_grid(False), jobs=jobs, label="ff-gate-reference", cache=cache
        )
        fast = run_sweep(
            _ff_grid(True), jobs=jobs, label="ff-gate-fast", cache=cache
        )
        worst = 0.0
        bad = []
        for r, f in zip(reference, fast):
            rel = abs(f.value - r.value) / r.value if r.value else 0.0
            worst = max(worst, rel)
            if rel > FF_REL_TOL:
                bad.append((r.spec.key(), r.value, f.value, rel))
        if bad:
            for key, rv, fv, rel in bad:
                print(f"FF DRIFT {key}: reference={rv!r} fast={fv!r} rel={rel:.3e}")
            print(f"fast-forward gate FAILED: {len(bad)} points over {FF_REL_TOL:g}")
            return 1
        ffwd = sum(o.events_fast_forwarded for o in fast)
        print(
            f"fast-forward gate ok: {len(fast)} points within {FF_REL_TOL:g} "
            f"(worst {worst:.3e}), {ffwd} completions fast-forwarded"
        )

    if args.check_buffer:
        direct, fits, limited = run_sweep(
            _buffer_grid(), jobs=jobs, label="buffer-crossover", cache=cache
        )
        speedup = fits.value / direct.value if direct.value else 0.0
        fs = fits.buffer_summary or {}
        ls = limited.buffer_summary or {}
        ok = (
            speedup >= BUFFER_MIN_SPEEDUP
            and fs.get("buffer_backpressure_s", 1.0) == 0.0
            and fs.get("buffer_drain_incomplete", 1.0) == 0.0
            and ls.get("buffer_backpressure_s", 0.0) > 0.0
            and ls.get("buffer_drain_limited", 0.0) == 1.0
        )
        print(
            f"buffer crossover: direct={direct.value:.0f} MB/s, "
            f"buffer-fits={fits.value:.0f} MB/s ({speedup:.1f}x, drain tail "
            f"{fs.get('buffer_drain_tail_s', 0.0):.2f}s), drain-limited="
            f"{limited.value:.0f} MB/s (backpressure "
            f"{ls.get('buffer_backpressure_s', 0.0):.2f}s)"
        )
        if not ok:
            print(f"buffer gate FAILED (need >= {BUFFER_MIN_SPEEDUP:g}x and "
                  "drain-limited backpressure)")
            return 1
        print(f"buffer gate ok: {speedup:.1f}x >= {BUFFER_MIN_SPEEDUP:g}x")

    if args.check_shard:
        single = run_sweep(
            _shard_grid(1), jobs=jobs, label="shard-gate-single", cache=cache
        )
        sharded = run_sweep(
            _shard_grid(2), jobs=jobs, label="shard-gate-sharded", cache=cache
        )
        # Sharded runs must also be reproducible run-over-run: the window
        # schedule is deterministic and the barrier carries no state.
        repeat = run_sweep(
            _shard_grid(2), jobs=jobs, label="shard-gate-repeat", cache=False
        )
        rel = (
            abs(sharded[0].value - single[0].value) / single[0].value
            if single[0].value else 0.0
        )
        if rel > SHARD_REL_TOL:
            print(
                f"SHARD DRIFT: single={single[0].value:.3f} "
                f"sharded={sharded[0].value:.3f} rel={rel:.4f}"
            )
            print(f"shard gate FAILED: over {SHARD_REL_TOL:.0%}")
            return 1
        if repeat[0].value != sharded[0].value:
            print(
                f"SHARD NONDETERMINISM: {sharded[0].value!r} vs "
                f"{repeat[0].value!r} across repeated runs"
            )
            return 1
        print(
            f"shard gate ok: rel {rel:.4%} <= {SHARD_REL_TOL:.0%}, repeat "
            f"bit-identical, {sharded[0].window_barriers} window barriers"
        )

    if args.check_determinism:
        serial = run_sweep(specs, jobs=1, label="quick(jobs=1)", cache=False)
        mismatches = [
            (o.spec.key(), o.value, s.value)
            for o, s in zip(outcomes, serial)
            if o.value != s.value
        ]
        if mismatches:
            for key, par, ser in mismatches[:10]:
                print(f"MISMATCH {key}: parallel={par!r} serial={ser!r}")
            return 1
        print(f"determinism ok: {len(serial)} trials bit-identical at jobs={jobs} vs jobs=1")

    print(f"recorded -> {sweep_json_path()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
