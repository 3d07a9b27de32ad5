"""Result formatting and persistence for the benchmark harness.

Benchmarks print the paper's series as ASCII tables (one row per sweep
point, one column per server count — the same series the figures plot)
and drop machine-readable JSON under ``results/`` so EXPERIMENTS.md can
cite exact numbers.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Sequence

from ..sim.config import env_str
from .harness import SweepPoint

__all__ = ["format_series_table", "format_rows", "save_json", "results_dir"]


def results_dir() -> str:
    """The repository's results directory (created on demand)."""
    root = env_str("REPRO_RESULTS_DIR") or None
    if root is None:
        here = os.path.dirname(os.path.abspath(__file__))
        root = os.path.normpath(os.path.join(here, "..", "..", "..", "results"))
    os.makedirs(root, exist_ok=True)
    return root


def format_series_table(
    title: str,
    points: Sequence[SweepPoint],
    value: str = "mean",
) -> str:
    """Render a sweep as clients-by-servers table (one figure panel)."""
    clients = sorted({p.n_clients for p in points})
    servers = sorted({p.n_servers for p in points})
    unit = points[0].unit if points else ""
    by_key: Dict[tuple, SweepPoint] = {(p.n_clients, p.n_servers): p for p in points}

    header = ["clients"] + [f"{m} servers" for m in servers]
    rows: List[List[str]] = []
    for n in clients:
        row = [str(n)]
        for m in servers:
            p = by_key.get((n, m))
            if p is None:
                row.append("-")
            elif value == "mean":
                row.append(f"{p.mean:.1f} ±{p.stdev:.1f}")
            else:
                row.append(f"{getattr(p, value):.1f}")
        rows.append(row)

    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = [f"== {title} ({unit}) =="]
    lines.append("  ".join(h.rjust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_rows(title: str, rows: Iterable[dict]) -> str:
    """Render a list of homogeneous dicts as an aligned table."""
    rows = list(rows)
    if not rows:
        return f"== {title} ==\n(no rows)"
    cols = list(rows[0])
    cells = [[_fmt(r.get(c)) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    lines = [f"== {title} =="]
    lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(cols)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def save_json(name: str, payload) -> str:
    """Write *payload* to ``results/<name>.json``; returns the path."""
    path = os.path.join(results_dir(), f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_jsonify)
    return path


def _jsonify(obj):
    if isinstance(obj, SweepPoint):
        return {
            "impl": obj.impl,
            "n_clients": obj.n_clients,
            "n_servers": obj.n_servers,
            "mean": obj.mean,
            "stdev": obj.stdev,
            "unit": obj.unit,
            "trials": obj.trials,
        }
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    raise TypeError(f"cannot serialize {type(obj).__name__}")
