"""Terminal chart rendering for experiment results.

The paper's evaluation is figures; :func:`line_chart` turns result series
into compact ASCII line charts so ``poiagg run fig6 --chart`` looks like
the figure it reproduces, without any plotting dependency.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["line_chart"]

_BLOCKS = " .:-=+*#%@"


def _scale(values: Sequence[float], lo: float, hi: float, size: int) -> list[int]:
    if hi <= lo:
        return [0 for _ in values]
    return [
        min(size - 1, max(0, int((v - lo) / (hi - lo) * (size - 1)))) for v in values
    ]


def line_chart(
    series: dict[str, Sequence[tuple[float, float]]],
    width: int = 60,
    height: int = 14,
    y_label: str = "",
) -> str:
    """Render named (x, y) series as an ASCII chart.

    Each series gets a distinct marker character; the legend maps markers
    back to names.  Y is auto-scaled across all series, X per the union of
    x values.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    canvas = [[" "] * width for _ in range(height)]
    markers = "o+x*#@%&$~"
    legend = []
    for (name, pts), marker in zip(series.items(), markers):
        legend.append(f"{marker} = {name}")
        if not pts:
            continue
        cols = _scale([p[0] for p in pts], x_lo, x_hi, width)
        rows = _scale([p[1] for p in pts], y_lo, y_hi, height)
        ordered = sorted(zip(cols, rows))
        # Draw segments between consecutive points, then the markers.
        for (c0, r0), (c1, r1) in zip(ordered, ordered[1:]):
            steps = max(abs(c1 - c0), abs(r1 - r0), 1)
            for s in range(steps + 1):
                c = round(c0 + (c1 - c0) * s / steps)
                r = round(r0 + (r1 - r0) * s / steps)
                if canvas[r][c] == " ":
                    canvas[r][c] = "."
        for c, r in ordered:
            canvas[r][c] = marker

    lines = []
    for i, row in enumerate(reversed(canvas)):
        y_val = y_hi - (y_hi - y_lo) * i / (height - 1)
        prefix = f"{y_val:8.3g} |" if i % 3 == 0 else " " * 8 + " |"
        lines.append(prefix + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + f"{x_lo:<.4g}" + " " * max(1, width - 12) + f"{x_hi:>.4g}")
    if y_label:
        lines.insert(0, f"[{y_label}]")
    lines.append("  " + "   ".join(legend))
    return "\n".join(lines)
