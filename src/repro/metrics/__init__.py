"""Time-series metrics & health: sampled observability for one trial.

The package mirrors :mod:`repro.trace`'s shape — ``env.metrics`` is
``None`` by default (zero overhead when disabled), a registry of typed
instruments when enabled, a simulated-time sampler snapshots them onto a
canonical tick grid, and the result exports as one JSON document per
trial that the health layer, CLI, cache, and dashboard all consume.

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
    tenant_class_rows,
    validate_metrics_doc,
    write_csv,
    write_json,
)
from .health import GOODPUT_METRICS, HealthReport, SloConfig, evaluate_health, goodput_rates
from .instruments import PER_SERVER_CAP, install_standard_instruments, tenant_group
from .registry import Gauge, Histogram, LinearGauge, MCounter, MetricsRegistry, Series
from .sampler import MAX_STRIDE, MIN_PERIOD, TARGET_SAMPLES, Sampler, default_period

__all__ = [
    "GOODPUT_METRICS",
    "Gauge",
    "HealthReport",
    "Histogram",
    "LinearGauge",
    "MAX_STRIDE",
    "MCounter",
    "METRICS_SCHEMA",
    "MIN_PERIOD",
    "MetricsRegistry",
    "PER_SERVER_CAP",
    "Sampler",
    "Series",
    "SloConfig",
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
    "tenant_class_rows",
    "tenant_group",
    "validate_metrics_doc",
    "write_csv",
    "write_json",
]
