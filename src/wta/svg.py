"""Minimal native SVG charts (polyline / rect / circle primitives).

Diagnostic figures only; no plotting dependency. Output is deterministic
for identical input data.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import writing

__all__ = ["line_chart", "bar_chart", "scatter_chart"]

WIDTH = 720
HEIGHT = 440
MARGIN = 56
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
# a log-scale line chart plots values below this (zero entropy) at it
LOG_FLOOR = 1e-16


def _bounds(values, pad_frac=0.05):
    """The padded range of the finite values, or of [0, 1] if none is."""
    finite = [v for v in values if math.isfinite(v)] or [0.0]
    lo = min(finite)
    hi = max(finite)
    if hi == lo:
        hi = lo + 1.0
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


class _Canvas:
    def __init__(self, title, x_label, y_label, x_range, y_range):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if title:
            self.parts.append(
                f'<text x="{WIDTH / 2:.1f}" y="22" font-size="15" '
                f'text-anchor="middle" font-family="sans-serif">{title}</text>'
            )
        if x_label:
            self.parts.append(
                f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 10}" font-size="12" '
                f'text-anchor="middle" font-family="sans-serif">{x_label}</text>'
            )
        if y_label:
            self.parts.append(
                f'<text x="16" y="{HEIGHT / 2:.1f}" font-size="12" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{y_label}</text>'
            )
        # axes box
        self.parts.append(
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333"/>'
        )
        self._ticks()

    def px(self, x):
        span = self.x1 - self.x0
        return MARGIN + (x - self.x0) / span * (WIDTH - 2 * MARGIN)

    def py(self, y):
        span = self.y1 - self.y0
        return HEIGHT - MARGIN - (y - self.y0) / span * (HEIGHT - 2 * MARGIN)

    def _ticks(self):
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            self.parts.append(
                f'<text x="{self.px(xv):.1f}" y="{HEIGHT - MARGIN + 16}" '
                f'font-size="10" text-anchor="middle" '
                f'font-family="sans-serif">{xv:.3g}</text>'
            )
            self.parts.append(
                f'<text x="{MARGIN - 6}" y="{self.py(yv) + 3:.1f}" font-size="10" '
                f'text-anchor="end" font-family="sans-serif">{yv:.3g}</text>'
            )

    def polyline(self, xs, ys, color, width=1.2, dashed=False):
        """A line through the points whose coordinates are both finite."""
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys)
                       if math.isfinite(x) and math.isfinite(y))
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
            f"{dash} points=\"{pts}\"/>"
        )

    def circle(self, x, y, r, color):
        self.parts.append(
            f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" r="{r}" '
            f'fill="{color}" fill-opacity="0.55" stroke="none"/>'
        )

    def rect_vbar(self, x_center, bar_w, y_top, color):
        x = self.px(x_center) - bar_w / 2
        y = self.py(y_top)
        h = self.py(self.y0 if self.y0 > 0 else 0.0) - y
        if h < 0:
            y, h = y + h, -h
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
            f'fill="{color}"/>'
        )

    def marker_star(self, x, y, color="#d62728"):
        self.parts.append(
            f'<text x="{self.px(x):.2f}" y="{self.py(y) + 5:.2f}" font-size="20" '
            f'text-anchor="middle" fill="{color}" font-family="sans-serif">*</text>'
        )

    def save(self, path) -> None:
        with writing(path, "SVG path") as path, open(path, "w") as fh:
            fh.write("\n".join(self.parts + ["</svg>"]) + "\n")


def line_chart(
    series: Sequence[tuple],  # (xs, ys) pairs
    path,
    title: str = "",
    x_label: str = "t",
    y_label: str = "",
    log_y: bool = False,
):
    """Polyline chart; with log_y the y data is plotted as log10(max(y, LOG_FLOOR))."""
    all_x = [float(x) for xs, _ys in series for x in xs]
    ys_t = []
    for xs, ys in series:
        vals = [float(v) for v in ys]
        if log_y:
            vals = [math.log10(max(v, LOG_FLOOR)) for v in vals]
        ys_t.append(vals)
    all_y = [v for vals in ys_t for v in vals]
    cv = _Canvas(title, x_label, y_label, _bounds(all_x), _bounds(all_y))
    for k, ((xs, _ys), vals) in enumerate(zip(series, ys_t)):
        cv.polyline([float(x) for x in xs], vals, PALETTE[k % len(PALETTE)])
    cv.save(path)


def bar_chart(values, path, title: str = "", x_label: str = "agent", y_label: str = ""):
    vals = [float(v) for v in values]
    n = len(vals)
    cv = _Canvas(title, x_label, y_label, (-0.5, n - 0.5), _bounds([0.0] + vals))
    bar_w = max(1.0, 0.8 * (WIDTH - 2 * MARGIN) / n)
    for i, v in enumerate(vals):
        cv.rect_vbar(i, bar_w, v, PALETTE[0])
    cv.save(path)


def scatter_chart(
    points: Sequence[tuple],  # (x, y)
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    ref_lines: Sequence[tuple] = (),  # (slope, intercept) dotted lines
    star: Optional[tuple] = None,
):
    xs = [float(x) for x, _y in points]
    ys = [float(y) for _x, y in points]
    xr = _bounds(xs)
    ref_ys = [s * x + b for s, b in ref_lines for x in xr]
    yr = _bounds(ys + ref_ys)
    cv = _Canvas(title, x_label, y_label, xr, yr)
    for k, (slope, intercept) in enumerate(ref_lines):
        cv.polyline(
            list(xr),
            [slope * x + intercept for x in xr],
            "#555",
            width=1.0,
            dashed=True,
        )
    for x, y in points:
        cv.circle(float(x), float(y), 2.2, PALETTE[0])
    if star is not None:
        cv.marker_star(float(star[0]), float(star[1]))
    cv.save(path)
