"""Static SVG learning-curve plots: metric scatter plus a fitted curve on a
log-scaled size axis.  Output is plain markup with no scripting, built
deterministically so identical inputs give identical bytes."""

from __future__ import annotations

import math
from html import escape
from typing import Sequence

from .errors import InputError
from .io import atomic_write

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 36, 48


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _LogAxes:
    def __init__(self, n_min, n_max):
        # compare the logs: exp(log n) may round above n, giving a zero-width axis
        if n_min < 1 or math.log(n_max) <= math.log(n_min):
            raise InputError("need a positive size range spanning more than one value")
        self.x0, self.x1 = math.log(n_min), math.log(n_max)

    def x(self, n: float) -> float:
        frac = (math.log(n) - self.x0) / (self.x1 - self.x0)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def y(self, v: float) -> float:
        return _MARGIN_T + (1.0 - v) * (_HEIGHT - _MARGIN_T - _MARGIN_B)


def curve_plot_svg(
    scatter: Sequence[tuple[float, float]],
    curve: Sequence[tuple[float, float]],
    title: str,
    y_label: str,
) -> str:
    """Assemble the SVG document text."""
    sizes = [n for n, _ in scatter] + [n for n, _ in curve]
    if not sizes:
        raise InputError("nothing to plot")
    lo, hi = min(sizes), max(sizes)
    axes = _LogAxes(lo, hi)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>',
    ]
    # frame and y grid
    plot_box = (
        _MARGIN_L,
        _MARGIN_T,
        _WIDTH - _MARGIN_R,
        _HEIGHT - _MARGIN_B,
    )
    parts.append(
        f'<rect x="{plot_box[0]}" y="{plot_box[1]}" '
        f'width="{plot_box[2] - plot_box[0]}" height="{plot_box[3] - plot_box[1]}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = axes.y(tick)
        parts.append(
            f'<line x1="{plot_box[0]}" y1="{y:.1f}" x2="{plot_box[2]}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{plot_box[0] - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    # x ticks at the distinct scatter sizes (or the curve's ends), at integers
    # inside the frame: a non-integer end truncated outward would lie outside it
    ticks = {int(n) for n, _ in scatter} or {math.ceil(lo), math.floor(hi)}
    for n in sorted(n for n in ticks if lo <= n <= hi):
        x = axes.x(n)
        parts.append(
            f'<line x1="{x:.1f}" y1="{plot_box[3]}" x2="{x:.1f}" y2="{plot_box[3] + 5}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{plot_box[3] + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{n}</text>'
        )
    parts.append(
        f'<text x="{(plot_box[0] + plot_box[2]) / 2:.0f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"training images per class (log scale)</text>"
    )
    parts.append(
        f'<text x="16" y="{(plot_box[1] + plot_box[3]) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(plot_box[1] + plot_box[3]) / 2:.0f})">{escape(y_label, quote=False)}</text>'
    )
    for n, v in scatter:
        parts.append(
            f'<circle cx="{axes.x(n):.2f}" cy="{axes.y(v):.2f}" r="2.4" '
            f'fill="#1f77b4" fill-opacity="0.45"/>'
        )
    if curve:
        points = " ".join(f"{axes.x(n):.2f},{axes.y(v):.2f}" for n, v in curve)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#d62728" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_curve_plot(path: str, scatter, curve, title: str, y_label: str):
    text = curve_plot_svg(scatter, curve, title, y_label)
    with atomic_write(path) as handle:
        handle.write(text)
