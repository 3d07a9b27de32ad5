"""Export and terminal rendering of sampled metric series.

One JSON document per trial (schema ``repro-metrics/v1``) carries every
instrument's ring-buffered series on the canonical tick grid, the
sampler's bookkeeping, and (when a fault plan ran) the health layer's
SLO verdict.  The document is what lands in ``TrialResult.metrics``,
the trial cache, the ``repro metrics`` CLI, and the dashboard
generator — one schema for all consumers, validated by
:func:`validate_metrics_doc` (in ``tests/metrics`` and by the
``repro metrics`` command).
"""

from __future__ import annotations

import csv
import math
from typing import Dict, List, Optional

from .registry import MetricsRegistry
from .sampler import Sampler

__all__ = [
    "METRICS_SCHEMA",
    "build_doc",
    "format_metrics",
    "metrics_summary",
    "sparkline",
    "validate_metrics_doc",
    "write_csv",
    "write_json",
]

#: Schema marker of the exported document; bump on layout changes.
METRICS_SCHEMA = "repro-metrics/v1"

_SPARK = "▁▂▃▄▅▆▇█"


def build_doc(
    registry: MetricsRegistry,
    sampler: Sampler,
    health: Optional[dict] = None,
) -> dict:
    """The exported document for one finished trial."""
    instruments = []
    for name, inst in registry.instruments.items():
        items = inst.series.items()
        entry = {
            "name": name,
            "kind": inst.kind,
            "unit": inst.unit,
            "scope": inst.scope,
            "series": {
                "indices": [i for i, _ in items],
                "values": [v for _, v in items],
                "dropped": inst.series.dropped,
            },
            "final": sampler.final_values.get(name, inst.series.last_value()),
        }
        if inst.kind == "histogram":
            # Distribution summary of the backing Tally: the series only
            # carries the cumulative count, so percentiles must be
            # computed here, while the samples are still in memory.
            tally = inst.tally
            p50, p99 = tally.percentiles((0.50, 0.99))
            entry["tally"] = {
                "count": tally.count,
                "total": tally.total,
                "mean": tally.mean,
                "p50": p50,
                "p99": p99,
            }
        instruments.append(entry)
    doc = {
        "schema": METRICS_SCHEMA,
        "t0": sampler.t0,
        "period": sampler.period,
        "t_end": sampler.t_end if sampler.t_end is not None else sampler.t0,
        "sampler": {
            "ticks": sampler.ticks,
            "samples": sampler.samples,
            "synthesized": sampler.synthesized,
            "max_stride": sampler.max_stride,
        },
        "instruments": instruments,
    }
    if health is not None:
        doc["health"] = health
    return doc


def validate_metrics_doc(doc) -> List[str]:
    """Structural validation; returns human-readable errors (empty = ok)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != METRICS_SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, expected {METRICS_SCHEMA!r}")
    for key in ("t0", "period", "t_end"):
        if not isinstance(doc.get(key), (int, float)):
            errors.append(f"{key} missing or not a number")
    if isinstance(doc.get("period"), (int, float)) and doc["period"] <= 0:
        errors.append(f"period must be positive, got {doc['period']!r}")
    sampler = doc.get("sampler")
    if not isinstance(sampler, dict):
        errors.append("sampler block missing")
    else:
        for key in ("ticks", "samples", "synthesized"):
            if not isinstance(sampler.get(key), int) or sampler[key] < 0:
                errors.append(f"sampler.{key} missing or negative")
    instruments = doc.get("instruments")
    if not isinstance(instruments, list):
        return errors + ["instruments missing or not a list"]
    seen = set()
    for pos, inst in enumerate(instruments):
        where = f"instruments[{pos}]"
        if not isinstance(inst, dict):
            errors.append(f"{where} is not an object")
            continue
        name = inst.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where} has no name")
        elif name in seen:
            errors.append(f"{where}: duplicate instrument {name!r}")
        else:
            seen.add(name)
        # "counter" is no longer written, but older exports carry it.
        if inst.get("kind") not in ("counter", "gauge", "linear", "histogram"):
            errors.append(f"{where} ({name}): bad kind {inst.get('kind')!r}")
        if inst.get("scope") not in ("model", "kernel"):
            errors.append(f"{where} ({name}): bad scope {inst.get('scope')!r}")
        series = inst.get("series")
        if not isinstance(series, dict):
            errors.append(f"{where} ({name}): series missing")
            continue
        indices = series.get("indices")
        values = series.get("values")
        if not isinstance(indices, list) or not isinstance(values, list):
            errors.append(f"{where} ({name}): series indices/values missing")
            continue
        if len(indices) != len(values):
            errors.append(f"{where} ({name}): {len(indices)} indices vs {len(values)} values")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            errors.append(f"{where} ({name}): indices not strictly increasing")
    return errors


def series_times(doc: dict, inst: dict) -> List[float]:
    """Materialize an instrument's canonical sample timestamps."""
    t0, period = float(doc["t0"]), float(doc["period"])
    return [t0 + i * period for i in inst["series"]["indices"]]


def metrics_summary(doc: dict) -> Dict[str, object]:
    """The compact slice for recorded sweep rows (``TrialResult.metrics_summary``).

    Totals for model-scope instruments plus the sampler's footprint and
    the SLO verdict — small enough to embed per trial without dragging
    the full series along.
    """
    totals: Dict[str, float] = {}
    for inst in doc["instruments"]:
        if inst["scope"] != "model":
            continue
        final = inst.get("final")
        if isinstance(final, (int, float)) and not math.isnan(final) and final != 0:
            totals[inst["name"]] = float(final)
    out: Dict[str, object] = {
        "samples": doc["sampler"]["samples"],
        "synthesized": doc["sampler"]["synthesized"],
        "period": doc["period"],
        "totals": totals,
    }
    health = doc.get("health")
    if isinstance(health, dict):
        out["slo_verdict"] = health.get("verdict")
        out["degraded_seconds"] = health.get("degraded_seconds")
    return out


def write_json(doc: dict, path: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_csv(doc: dict, path: str) -> None:
    """Long-format CSV: one row per (instrument, sample)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instrument", "kind", "scope", "unit", "t", "value"])
        for inst in doc["instruments"]:
            times = series_times(doc, inst)
            for t, value in zip(times, inst["series"]["values"]):
                writer.writerow(
                    [inst["name"], inst["kind"], inst["scope"], inst["unit"],
                     f"{t:.9f}", repr(value)]
                )


def sparkline(values: List[float], width: int = 24) -> str:
    """Down-sampled unicode sparkline of a series (empty-safe)."""
    values = [v for v in values if not math.isnan(v)]
    if not values:
        return ""
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(k * stride)] for k in range(width)]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[0] * len(values)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in values)


def _rate_view(doc: dict, inst: dict) -> List[float]:
    """Per-window rates for cumulative series, raw values for levels."""
    values = inst["series"]["values"]
    if inst["kind"] not in ("counter", "linear") and not inst["name"].endswith("bytes"):
        return list(values)
    period = float(doc["period"])
    indices = inst["series"]["indices"]
    rates = []
    for k in range(1, len(values)):
        dt = (indices[k] - indices[k - 1]) * period
        rates.append((values[k] - values[k - 1]) / dt if dt > 0 else 0.0)
    return rates


def format_metrics(doc: dict, max_rows: int = 40) -> str:
    """Terminal summary: per-instrument sparkline + final value table."""
    lines = [
        f"metrics: {len(doc['instruments'])} instruments, "
        f"{doc['sampler']['samples']} samples "
        f"({doc['sampler']['synthesized']} synthesized in "
        f"{doc['sampler']['ticks']} ticks), period {doc['period']:.3g} s, "
        f"span [{doc['t0']:.3f}, {doc['t_end']:.3f}] s"
    ]
    name_w = max((len(i["name"]) for i in doc["instruments"]), default=4)
    shown = 0
    for inst in doc["instruments"]:
        if shown >= max_rows:
            lines.append(f"  ... {len(doc['instruments']) - shown} more instruments")
            break
        final = inst.get("final")
        final_s = f"{final:.6g}" if isinstance(final, (int, float)) else "-"
        spark = sparkline(_rate_view(doc, inst))
        unit = f" {inst['unit']}" if inst["unit"] else ""
        lines.append(
            f"  {inst['name']:<{name_w}}  {spark:<24}  final {final_s}{unit}"
            + ("" if inst["scope"] == "model" else "  [kernel]")
        )
        shown += 1
    health = doc.get("health")
    if isinstance(health, dict):
        lines.append(
            f"health: {health.get('verdict')}, baseline "
            f"{health.get('baseline_rate', 0.0):.6g} B/s, degraded "
            f"{health.get('degraded_seconds', 0.0):.4f} s over "
            f"{len(health.get('degraded_windows', []))} window(s)"
        )
        for rec in health.get("time_to_recovery", []):
            lines.append(
                f"  {rec['kind']} @ {rec['target']}: injected t={rec['t_inject']:.4f}, "
                f"goodput restored t={rec['t_recover']:.4f} "
                f"(TTR {rec['time_to_recovery']:.4f} s)"
            )
    return "\n".join(lines)
