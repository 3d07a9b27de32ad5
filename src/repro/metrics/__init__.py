"""Time-series metrics & health: sampled observability for one trial.

``env.metrics`` is ``None`` by default and a registry of typed
instruments on metered trials; a simulated-time sampler snapshots them
onto a canonical tick grid, and the result exports as one JSON document
per trial that the health layer, CLI, cache, and dashboard all consume.

Metrics only observe: every instrument is a pull probe over state the
simulator already keeps, registered by the harness
(:func:`install_standard_instruments`) and by the workload engine, which
exposes its per-class latency tally and byte count.  No model code
writes to the registry; spans (:mod:`repro.trace`) are the model's only
instrumentation hook.

Quick use::

    from repro.metrics import MetricsRegistry, Sampler, default_period
    from repro.metrics import install_standard_instruments, build_doc

    registry = MetricsRegistry.install(env)
    install_standard_instruments(registry, cluster, deployment)
    sampler = Sampler(registry, period=default_period(horizon)).start()
    ...  # run the workload
    sampler.finish()
    doc = build_doc(registry, sampler)

The contracts — zero simulated-time perturbation, the
``repro-metrics/v1`` schema, the health layer's time-to-recovery — are
pinned by ``tests/metrics``; the sampler's host-time overhead bound by
``benchmarks/bench_trace_overhead.py::test_metrics_overhead``.
"""

from .export import (
    METRICS_SCHEMA,
    build_doc,
    format_metrics,
    metrics_summary,
    series_times,
    sparkline,
    validate_metrics_doc,
    write_csv,
    write_json,
)
from .health import GOODPUT_METRICS, HealthReport, evaluate_health, goodput_rates
from .instruments import PER_SERVER_CAP, install_standard_instruments
from .registry import Gauge, Histogram, LinearGauge, MetricsRegistry, Series
from .sampler import MAX_STRIDE, MIN_PERIOD, TARGET_SAMPLES, Sampler, default_period

__all__ = [
    "GOODPUT_METRICS",
    "Gauge",
    "HealthReport",
    "Histogram",
    "LinearGauge",
    "MAX_STRIDE",
    "METRICS_SCHEMA",
    "MIN_PERIOD",
    "MetricsRegistry",
    "PER_SERVER_CAP",
    "Sampler",
    "Series",
    "TARGET_SAMPLES",
    "build_doc",
    "default_period",
    "evaluate_health",
    "format_metrics",
    "goodput_rates",
    "install_standard_instruments",
    "metrics_summary",
    "series_times",
    "sparkline",
    "validate_metrics_doc",
    "write_csv",
    "write_json",
]
