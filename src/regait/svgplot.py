"""Minimal deterministic SVG line plots.

No plotting dependency: CLI runs emit diagnostics as hand-rolled SVG so the
bytes are reproducible run-to-run (fixed axis limits must be supplied by the
caller; autoscaled axes would couple the output to solver noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_PALETTE = ("#1f6f8b", "#c1403d", "#4e8a4e", "#8a6d3b", "#6b5b95")
WIDTH, HEIGHT = 640, 400   # every figure's size in pixels


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("series x and y must be 1-d arrays of equal length")


@dataclass
class Figure:
    title: str
    xlabel: str
    ylabel: str
    xlim: tuple[float, float]
    ylim: tuple[float, float]
    series: list[Series] = field(default_factory=list)

    def add(self, x, y, label: str = "") -> None:
        self.series.append(Series(np.asarray(x), np.asarray(y), label))


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def render_svg(fig: Figure) -> str:
    ml, mr, mt, mb = 62, 16, 34, 46
    pw = WIDTH - ml - mr
    ph = HEIGHT - mt - mb
    x0, x1 = fig.xlim
    y0, y1 = fig.ylim
    if not (x1 > x0 and y1 > y0):
        raise ValueError("axis limits must be increasing")

    def sx(v):
        return ml + (v - x0) / (x1 - x0) * pw

    def sy(v):
        return mt + (y1 - v) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{fig.title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444" stroke-width="1"/>',
    ]
    for tx in np.linspace(x0, x1, 5):
        px = sx(tx)
        out.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" '
                   f'y2="{mt + ph + 4}" stroke="#444"/>')
        out.append(f'<text x="{px:.1f}" y="{mt + ph + 16}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="10">{_fmt(tx)}</text>')
    for ty in np.linspace(y0, y1, 5):
        py = sy(ty)
        out.append(f'<line x1="{ml - 4}" y1="{py:.1f}" x2="{ml}" '
                   f'y2="{py:.1f}" stroke="#444"/>')
        out.append(f'<text x="{ml - 7}" y="{py + 3:.1f}" text-anchor="end" '
                   f'font-family="monospace" font-size="10">{_fmt(ty)}</text>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 10}" '
               f'text-anchor="middle" font-family="monospace" '
               f'font-size="11">{fig.xlabel}</text>')
    out.append(f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
               f'font-family="monospace" font-size="11" transform="rotate(-90 '
               f'14 {mt + ph / 2:.1f})">{fig.ylabel}</text>')

    for i, s in enumerate(fig.series):
        color = _PALETTE[i % len(_PALETTE)]
        keep = np.isfinite(s.x) & np.isfinite(s.y)
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}"
                       for a, b in zip(s.x[keep], s.y[keep]))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.3"/>')
        if s.label:
            ly = mt + 14 + 14 * i
            out.append(f'<line x1="{ml + pw - 86}" y1="{ly - 4}" '
                       f'x2="{ml + pw - 66}" y2="{ly - 4}" stroke="{color}" '
                       f'stroke-width="1.3"/>')
            out.append(f'<text x="{ml + pw - 60}" y="{ly}" '
                       f'font-family="monospace" font-size="10">{s.label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_svg(fig: Figure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(fig))
