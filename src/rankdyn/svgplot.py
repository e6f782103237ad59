"""Tiny dependency-free SVG line charts for the CLI's --svg option."""

from __future__ import annotations

import numpy as np

_PALETTE = [
    "#4063d8", "#d8432c", "#2c8c50", "#c78f1e", "#7a4dbf",
    "#3aa4c7", "#b03a6e", "#6b6b6b",
]

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 34, 44


def _ticks(lo: float, hi: float, count: int = 5):
    raw = np.linspace(lo, hi, count)
    return [float(v) for v in raw]


def line_chart(x, series, labels=None, title="", x_label="t", y_label="") -> str:
    """The SVG text of a polyline chart of one or more series over a common x grid.

    ``series`` is an iterable of 1-d arrays matching ``x`` in length; at
    most 40 series are drawn (thin lines) to keep files small.
    """
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series][:40]
    if not series:
        raise ValueError("need at least one series to plot")
    ymin = min(float(np.nanmin(s)) for s in series)
    ymax = max(float(np.nanmax(s)) for s in series)
    if ymax <= ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    xmin, xmax = float(x.min()), float(x.max())
    if xmax <= xmin:
        xmax = xmin + 1.0

    iw, ih = _W - _ML - _MR, _H - _MT - _MB

    def sx(v):
        return _ML + (v - xmin) / (xmax - xmin) * iw

    def sy(v):
        return _MT + (ymax - v) / (ymax - ymin) * ih

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{iw}" height="{ih}" fill="none" stroke="#999"/>',
    ]
    for tx in _ticks(xmin, xmax):
        out.append(
            f'<line x1="{sx(tx):.1f}" y1="{_MT + ih}" x2="{sx(tx):.1f}" '
            f'y2="{_MT + ih + 4}" stroke="#999"/>'
        )
        out.append(
            f'<text x="{sx(tx):.1f}" y="{_MT + ih + 16}" text-anchor="middle">{tx:.3g}</text>'
        )
    for ty in _ticks(ymin, ymax):
        out.append(
            f'<line x1="{_ML - 4}" y1="{sy(ty):.1f}" x2="{_ML}" y2="{sy(ty):.1f}" stroke="#999"/>'
        )
        out.append(
            f'<text x="{_ML - 7}" y="{sy(ty) + 3:.1f}" text-anchor="end">{ty:.3g}</text>'
        )
    out.append(
        f'<text x="{_ML + iw / 2:.0f}" y="{_H - 8}" text-anchor="middle">{x_label}</text>'
    )
    if y_label:
        out.append(
            f'<text x="14" y="{_MT + ih / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {_MT + ih / 2:.0f})">{y_label}</text>'
        )
    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        ok = np.isfinite(s)
        pts = " ".join(f"{sx(xv):.1f},{sy(sv):.1f}" for xv, sv in zip(x[ok], s[ok]))
        width = 1.6 if len(series) <= len(_PALETTE) else 0.8
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )
        if labels is not None and k < len(labels) and len(series) <= len(_PALETTE):
            out.append(
                f'<text x="{_W - _MR - 4}" y="{_MT + 14 + 13 * k}" text-anchor="end" '
                f'fill="{color}">{labels[k]}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
