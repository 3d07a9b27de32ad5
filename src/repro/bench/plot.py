"""ASCII rendering of the paper's figures.

No plotting stack is assumed (the target environment is offline); these
charts draw the Fig. 9/10 series as terminal line plots so the *shape* —
the thing the reproduction is about — is visible at a glance.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .harness import SweepPoint

__all__ = ["ascii_chart", "chart_sweep"]

#: Series glyphs, one per server count (matches the paper's four series).
GLYPHS = "ox*#@+%&"


def ascii_chart(
    series: Dict[str, List[tuple]],
    title: str = "",
    width: int = 64,
    height: int = 18,
    y_label: str = "",
    x_label: str = "",
    log_y: bool = False,
) -> str:
    """Render named series of (x, y) pairs as an ASCII line chart."""
    import math

    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)"
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if log_y:
        y_min = max(y_min, 1e-12)
        transform = math.log10
    else:
        y_min = min(0.0, y_min)
        transform = float
    ty_min, ty_max = transform(max(y_min, 1e-12) if log_y else y_min), transform(y_max)
    if ty_max == ty_min:
        ty_max = ty_min + 1.0
    if x_max == x_min:
        x_max = x_min + 1

    grid = [[" "] * width for _ in range(height)]

    def plot(x: float, y: float, glyph: str) -> None:
        col = round((x - x_min) / (x_max - x_min) * (width - 1))
        row = round((transform(max(y, 1e-12) if log_y else y) - ty_min) / (ty_max - ty_min) * (height - 1))
        grid[height - 1 - row][col] = glyph

    legend = []
    for i, (name, pts) in enumerate(series.items()):
        glyph = GLYPHS[i % len(GLYPHS)]
        legend.append(f"{glyph}={name}")
        for x, y in sorted(pts):
            plot(x, y, glyph)

    lines = []
    if title:
        lines.append(title)
    scale = "log" if log_y else "linear"
    top_label = f"{y_max:,.0f}" if y_max >= 10 else f"{y_max:.3g}"
    bot_label = f"{y_min:,.0f}" if abs(y_min) >= 10 else f"{y_min:.3g}"
    lines.append(f"{top_label:>10} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{bot_label:>10} ┤" + "".join(grid[-1]))
    lines.append(" " * 10 + " └" + "─" * width)
    lines.append(
        " " * 12 + f"{x_min:<10g}{x_label.center(max(0, width - 20))}{x_max:>10g}"
    )
    lines.append(" " * 12 + f"[{scale} y: {y_label}]  " + "  ".join(legend))
    return "\n".join(lines)


def chart_sweep(
    points: Sequence[SweepPoint],
    title: str,
    log_y: bool = False,
    width: int = 64,
    height: int = 18,
) -> str:
    """Chart a Fig. 9/10-style sweep: one series per server count."""
    series: Dict[str, List[tuple]] = {}
    for p in sorted(points, key=lambda p: (p.n_servers, p.n_clients)):
        series.setdefault(f"{p.n_servers} servers", []).append((p.n_clients, p.mean))
    unit = points[0].unit if points else ""
    return ascii_chart(
        series,
        title=title,
        width=width,
        height=height,
        y_label=unit,
        x_label="clients",
        log_y=log_y,
    )
