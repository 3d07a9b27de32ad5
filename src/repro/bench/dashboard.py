"""Static HTML dashboard: metric timelines + cross-trial regression.

Dependency-free reporting for the metrics subsystem: inline SVG, no
JavaScript, one self-contained file that CI can archive as an artifact
and a browser can open from disk.  Two kinds of panel:

* **Trial timelines** — the sampled series of one metered trial
  (:mod:`repro.metrics.export` document): goodput rate over simulated
  time with the health layer's degraded windows shaded, plus a compact
  per-instrument table with sparklines.
* **Regression plots** — the figure of merit of every recorded sweep in
  a sweep file (see :func:`repro.bench.executor.sweep_json_path`)
  grouped by trial identity, one polyline per
  (kind, impl, clients, servers, seed) across sweep history.  A trial
  whose latest value strays more than :data:`REGRESSION_TOL` from its
  history median is flagged.

``python -m repro.bench.dashboard`` renders ``results/dashboard.html``
from the sweep file and any ``--metrics export.json`` documents.
"""

from __future__ import annotations

import argparse
import html
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "REGRESSION_TOL",
    "build_dashboard",
    "render_metrics_doc",
    "render_sweeps",
    "write_dashboard",
]

#: Relative deviation of a trial's latest figure of merit from its sweep
#: history median that gets the row flagged in the regression panel.
REGRESSION_TOL = 0.05

_PLOT_W = 640
_PLOT_H = 160
_PAD = 8

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       color: #222; max-width: 60em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; font-size: 0.85em; }
th, td { padding: 2px 10px; text-align: right; border-bottom: 1px solid #eee; }
th { border-bottom: 1px solid #999; }
td.name, th.name { text-align: left; font-family: monospace; }
.ok { color: #2a7d2a; } .bad { color: #c0392b; font-weight: bold; }
.spark { font-family: monospace; white-space: pre; }
svg { background: #fafafa; border: 1px solid #ddd; }
.caption { font-size: 0.8em; color: #666; }
"""


def _scale(
    xs: Sequence[float], ys: Sequence[float], w: int, h: int
) -> List[Tuple[float, float]]:
    """Map data points into SVG pixel space (y grows downward)."""
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    return [
        (
            _PAD + (x - x0) / dx * (w - 2 * _PAD),
            h - _PAD - (y - y0) / dy * (h - 2 * _PAD),
        )
        for x, y in zip(xs, ys)
    ]


def _polyline(
    xs: Sequence[float], ys: Sequence[float], w: int, h: int, color: str
) -> str:
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in _scale(xs, ys, w, h))
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{pts}"/>'
    )


def _shade(
    t_lo: float,
    t_hi: float,
    x0: float,
    x1: float,
    w: int,
    h: int,
) -> str:
    dx = (x1 - x0) or 1.0
    a = _PAD + (max(t_lo, x0) - x0) / dx * (w - 2 * _PAD)
    b = _PAD + (min(t_hi, x1) - x0) / dx * (w - 2 * _PAD)
    if b <= a:
        return ""
    return (
        f'<rect x="{a:.1f}" y="0" width="{b - a:.1f}" height="{h}" '
        f'fill="#c0392b" opacity="0.15"/>'
    )


def render_metrics_doc(doc: Dict[str, Any], title: str = "trial") -> str:
    """One trial's panel: goodput timeline + instrument table."""
    from ..metrics.export import metrics_summary, sparkline
    from ..metrics.health import goodput_rates

    times, rates = goodput_rates(doc)
    parts: List[str] = [f"<h2>{html.escape(title)}</h2>"]
    health = doc.get("health") or {}
    summary = metrics_summary(doc)
    verdict = health.get("verdict", "n/a")
    cls = "ok" if verdict == "ok" else ("bad" if verdict == "degraded" else "")
    parts.append(
        f'<p>verdict <span class="{cls}">{html.escape(str(verdict))}</span>'
        f" &middot; {summary['samples']} samples"
        f" ({summary['synthesized']} synthesized)"
        f" &middot; period {summary['period']:.3g}s"
        f" &middot; degraded {float(health.get('degraded_seconds', 0.0)):.4g}s</p>"
    )
    if times:
        svg = [
            f'<svg width="{_PLOT_W}" height="{_PLOT_H}" '
            f'viewBox="0 0 {_PLOT_W} {_PLOT_H}">'
        ]
        for w in health.get("degraded_windows", ()):
            svg.append(
                _shade(
                    float(w["t_start"]), float(w["t_end"]),
                    times[0], times[-1], _PLOT_W, _PLOT_H,
                )
            )
        svg.append(_polyline(times, rates, _PLOT_W, _PLOT_H, "#2c6fb3"))
        svg.append("</svg>")
        parts.append("".join(svg))
        parts.append(
            '<p class="caption">goodput rate over simulated time; shaded = '
            "degraded SLO windows</p>"
        )
    for entry in health.get("time_to_recovery", ()):
        parts.append(
            "<p class=\"caption\">fault {kind} on {target}: injected at "
            "{t_inject:.4g}s, goodput restored at {t_recover:.4g}s "
            "(TTR {ttr:.4g}s)</p>".format(
                kind=html.escape(str(entry.get("kind", "?"))),
                target=html.escape(str(entry.get("target", "?"))),
                t_inject=float(entry.get("t_inject", 0.0)),
                t_recover=float(entry.get("t_recover", 0.0)),
                ttr=float(entry.get("time_to_recovery", 0.0)),
            )
        )
    rows = [
        "<table><tr><th class=\"name\">instrument</th><th>kind</th>"
        "<th>final</th><th class=\"name\">series</th></tr>"
    ]
    for inst in doc.get("instruments", ()):
        values = inst["series"]["values"]
        rows.append(
            "<tr><td class=\"name\">{name}</td><td>{kind}</td>"
            "<td>{final:.6g}</td><td class=\"spark\">{spark}</td></tr>".format(
                name=html.escape(inst["name"]),
                kind=html.escape(inst["kind"]),
                final=float(inst.get("final", 0.0)),
                spark=html.escape(sparkline(values)),
            )
        )
    rows.append("</table>")
    parts.append("".join(rows))
    return "\n".join(parts)


def _trial_identity(row: Dict[str, Any]) -> str:
    return "{kind}/{impl} c{n_clients} s{n_servers} seed{seed}".format(
        kind=row.get("kind", "?"), impl=row.get("impl", "?"),
        n_clients=row.get("n_clients", "?"),
        n_servers=row.get("n_servers", "?"), seed=row.get("seed", "?"),
    )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def render_sweeps(sweep_doc: Dict[str, Any]) -> str:
    """The cross-trial regression panel over recorded sweep history."""
    sweeps = sweep_doc.get("sweeps", [])
    history: Dict[str, List[Tuple[int, float, str]]] = {}
    for i, sweep in enumerate(sweeps):
        for row in sweep.get("per_trial", ()):
            value = row.get("value")
            if not isinstance(value, (int, float)):
                continue
            key = _trial_identity(row)
            history.setdefault(key, []).append(
                (i, float(value), str(row.get("unit", "")))
            )
    if not history:
        return "<h2>regression</h2><p>no recorded sweeps</p>"
    parts = ["<h2>cross-trial regression</h2>"]
    parts.append(
        '<p class="caption">figure of merit per trial identity across the '
        f"last {len(sweeps)} recorded sweeps; flagged when the latest value "
        f"strays &gt;{REGRESSION_TOL:.0%} from the history median</p>"
    )
    svg = [
        f'<svg width="{_PLOT_W}" height="{_PLOT_H}" '
        f'viewBox="0 0 {_PLOT_W} {_PLOT_H}">'
    ]
    palette = ("#2c6fb3", "#b35a2c", "#2cb36f", "#8e2cb3", "#b32c50", "#50b32c")
    # Normalize each identity by its own median so unrelated magnitudes
    # share one canvas — the *shape* (drift) is what the panel shows.
    for n, (key, points) in enumerate(sorted(history.items())):
        if len(points) < 2:
            continue
        med = _median([v for _, v, _ in points]) or 1.0
        xs = [float(i) for i, _, _ in points]
        ys = [v / med for _, v, _ in points]
        svg.append(_polyline(xs, ys, _PLOT_W, _PLOT_H, palette[n % len(palette)]))
    svg.append("</svg>")
    parts.append("".join(svg))
    rows = [
        "<table><tr><th class=\"name\">trial</th><th>sweeps</th>"
        "<th>median</th><th>latest</th><th>drift</th><th></th></tr>"
    ]
    for key, points in sorted(history.items()):
        values = [v for _, v, _ in points]
        unit = points[-1][2]
        med = _median(values)
        latest = values[-1]
        drift = (latest - med) / med if med else 0.0
        flagged = abs(drift) > REGRESSION_TOL and len(values) > 1
        rows.append(
            "<tr><td class=\"name\">{key}</td><td>{n}</td>"
            "<td>{med:.6g}</td><td>{latest:.6g} {unit}</td>"
            "<td>{drift:+.1%}</td><td class=\"{cls}\">{flag}</td></tr>".format(
                key=html.escape(key), n=len(values), med=med, latest=latest,
                unit=html.escape(unit), drift=drift,
                cls="bad" if flagged else "ok",
                flag="REGRESSION" if flagged else "ok",
            )
        )
    rows.append("</table>")
    parts.append("".join(rows))
    return "\n".join(parts)


def build_dashboard(
    metrics_docs: Iterable[Tuple[str, Dict[str, Any]]] = (),
    sweep_doc: Optional[Dict[str, Any]] = None,
    title: str = "repro metrics dashboard",
) -> str:
    """The full self-contained HTML page."""
    body: List[str] = [f"<h1>{html.escape(title)}</h1>"]
    for name, doc in metrics_docs:
        body.append(render_metrics_doc(doc, title=name))
    if sweep_doc is not None:
        body.append(render_sweeps(sweep_doc))
    if len(body) == 1:
        body.append("<p>nothing to show: no metrics documents, no sweeps</p>")
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title><style>{_CSS}</style></head>"
        "<body>\n" + "\n".join(body) + "\n</body></html>\n"
    )


def write_dashboard(
    path: str,
    metrics_docs: Iterable[Tuple[str, Dict[str, Any]]] = (),
    sweep_doc: Optional[Dict[str, Any]] = None,
) -> str:
    """Render and write the dashboard; returns *path*."""
    page = build_dashboard(metrics_docs, sweep_doc)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(page)
    return path


def main(argv: Optional[List[str]] = None) -> int:
    from .executor import sweep_json_path

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.dashboard",
        description="Render the metrics/regression dashboard to HTML.",
    )
    parser.add_argument(
        "--sweep", default=None,
        help="recorded sweep file for the regression panel (default: the "
             "file sweeps are being recorded to, if any)",
    )
    parser.add_argument(
        "--metrics", action="append", default=[], metavar="EXPORT_JSON",
        help="metrics export document(s) to render as trial timelines",
    )
    parser.add_argument(
        "-o", "--output", default=os.path.join("results", "dashboard.html"),
    )
    args = parser.parse_args(argv)

    sweep_doc = None
    sweep_path = args.sweep or sweep_json_path()
    if sweep_path:
        try:
            with open(sweep_path, encoding="utf-8") as fh:
                sweep_doc = json.load(fh)
        except (OSError, ValueError):
            sweep_doc = None

    docs: List[Tuple[str, Dict[str, Any]]] = []
    for path in args.metrics:
        with open(path, encoding="utf-8") as fh:
            docs.append((os.path.basename(path), json.load(fh)))

    out = write_dashboard(args.output, docs, sweep_doc)
    print(f"dashboard: {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
