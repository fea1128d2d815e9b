"""Minimal native SVG line plots (no plotting dependency).

Polyline-based plots with linear or log10 axes, enough for the study
artifacts: output overlays, relative differences, distance scatter and
singular-value plots.
"""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _finite(points, xlog, ylog):
    out = []
    for x, y in points:
        if x is None or y is None:
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        if xlog and x <= 0:
            continue
        if ylog and y <= 0:
            continue
        out.append((x, y))
    return out


def _ticks(lo, hi, log):
    if log:
        lo_d = math.floor(math.log10(lo))
        hi_d = math.ceil(math.log10(hi))
        return [10.0 ** d for d in range(lo_d, hi_d + 1)]
    if hi == lo:
        return [lo]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(t)
        t += step
    return ticks


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def line_plot(path, series, *, title="", xlabel="", ylabel="",
              xlog=False, ylog=False):
    """Write an SVG with one polyline per (label, xs, ys) triple."""
    cleaned = []
    for label, xs, ys in series:
        pts = _finite(list(zip(xs, ys)), xlog, ylog)
        cleaned.append((label, pts))
    allpts = [p for _, pts in cleaned for p in pts]
    if not allpts:
        allpts = [(1.0, 1.0)]
    xs = [p[0] for p in allpts]
    ys = [p[1] for p in allpts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if not xlog:
        pad = 0.05 * ((x_hi - x_lo) or 1.0)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    if not ylog:
        pad = 0.05 * ((y_hi - y_lo) or 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if xlog and x_lo == x_hi:
        x_hi = x_lo * 10
    if ylog and y_lo == y_hi:
        y_hi = y_lo * 10

    def sx(x):
        if xlog:
            f = (math.log10(x) - math.log10(x_lo)) / \
                (math.log10(x_hi) - math.log10(x_lo))
        else:
            f = (x - x_lo) / (x_hi - x_lo)
        return _ML + f * (_W - _ML - _MR)

    def sy(y):
        if ylog:
            f = (math.log10(y) - math.log10(y_lo)) / \
                (math.log10(y_hi) - math.log10(y_lo))
        else:
            f = (y - y_lo) / (y_hi - y_lo)
        return _H - _MB - f * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#444"/>')
    for t in _ticks(x_lo, x_hi, xlog):
        if t < x_lo or t > x_hi:
            continue
        px = sx(t)
        parts.append(f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" '
                     f'y2="{_H - _MB + 5}" stroke="#444"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi, ylog):
        if t < y_lo or t > y_hi:
            continue
        py = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" '
                     f'y2="{py:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_fmt(t)}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_H / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {_H / 2})">{ylabel}</text>')
    for idx, (label, pts) in enumerate(cleaned):
        if not pts:
            continue
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.4"/>')
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 14 * idx}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    # imported here: cli imports this module
    from .cli import atomic_write
    return atomic_write(path, "\n".join(parts) + "\n")
