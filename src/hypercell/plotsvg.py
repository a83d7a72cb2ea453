"""Self-contained SVG emission for log-log diagnostics.

No plotting dependency: the experiment outputs are simple enough
(scatter, fitted line, reference slopes) that writing the SVG elements
directly keeps the artifact reproducible byte for byte.
"""
from __future__ import annotations

import math

WIDTH, HEIGHT = 720, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 60

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _ticks(lo: float, hi: float):
    first = math.ceil(lo - 1e-9)
    return [k for k in range(first, math.floor(hi + 1e-9) + 1)]


class _Canvas:
    """Plot area with linear data ranges, collecting SVG elements in drawing order."""

    def __init__(self, x_range, y_range):
        self.xlo, self.xhi = x_range
        self.ylo, self.yhi = y_range
        self.parts: list[str] = []

    def x(self, v: float) -> float:
        span = self.xhi - self.xlo or 1.0
        return MARGIN_L + (v - self.xlo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v: float) -> float:
        span = self.yhi - self.ylo or 1.0
        return HEIGHT - MARGIN_B - (v - self.ylo) / span * (HEIGHT - MARGIN_T - MARGIN_B)

    def add(self, element: str) -> None:
        self.parts.append(element)

    def frame(self) -> None:
        """The plot-area border."""
        self.add(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
            f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#333" stroke-width="1"/>'
        )

    def y_ticks(self) -> None:
        """Grid lines and 1e{k} labels at the integer (log10) y values."""
        for k in _ticks(self.ylo, self.yhi):
            py = self.y(k)
            self.add(f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{WIDTH - MARGIN_R}" y2="{py:.1f}" stroke="#ddd"/>')
            self.add(f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" font-size="12">1e{k}</text>')

    def fit(self, x0: float, y0: float, x1: float, y1: float, label: str) -> None:
        """The fitted line between two data points and its label in the top right corner."""
        self.add(
            f'<line x1="{self.x(x0):.1f}" y1="{self.y(y0):.1f}" '
            f'x2="{self.x(x1):.1f}" y2="{self.y(y1):.1f}" stroke="#d62728" stroke-width="2"/>'
        )
        self.add(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16}" text-anchor="end" '
            f'font-size="12" fill="#d62728">{label}</text>'
        )

    def scatter(self, series: list, to_plot) -> None:
        """One colour per series; to_plot maps a data point to plot coordinates, or None to skip it."""
        for i, (label, pts) in enumerate(series):
            color = PALETTE[i % len(PALETTE)]
            for x, yv in pts:
                xy = to_plot(x, yv)
                if xy is not None:
                    self.add(
                        f'<circle cx="{self.x(xy[0]):.1f}" cy="{self.y(xy[1]):.1f}" r="3.2" '
                        f'fill="{color}" fill-opacity="0.8"/>'
                    )
            self.add(
                f'<text x="{MARGIN_L + 8}" y="{MARGIN_T + 16 + 15 * i}" font-size="12" '
                f'fill="{color}">{label}</text>'
            )

    def write(self, path: str, title: str, xlabel: str, ylabel: str) -> None:
        """Add the title and axis labels, and write the document."""
        self.add(f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>')
        self.add(
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 16}" text-anchor="middle" '
            f'font-size="13">{xlabel}</text>'
        )
        self.add(
            f'<text x="20" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" text-anchor="middle" '
            f'font-size="13" transform="rotate(-90 20 {(MARGIN_T + HEIGHT - MARGIN_B) / 2})">{ylabel}</text>'
        )
        body = "\n".join(self.parts)
        doc = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="100%" height="100%" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )
        with open(path, "w") as fh:
            fh.write(doc)


def _log_point(x: float, y: float):
    return (math.log10(x), math.log10(y)) if x > 0 and y > 0 else None


def _semilog_point(x: float, y: float):
    return (x, math.log10(y)) if y > 0 else None


def loglog_svg(
    path: str,
    series: list,
    title: str,
    xlabel: str,
    ylabel: str,
    fit: tuple | None = None,
    reference_slopes: list | None = None,
) -> None:
    """Write a log-log scatter plot.

    `series`: list of (label, points) with positive (x, y) pairs.
    `fit`: (slope, intercept) of a least-squares line in natural-log
    coordinates, drawn across the data range.  `reference_slopes`:
    (slope, label) guide lines anchored at the data centroid.
    """
    pts_all = [p for _, pts in series for x, y in pts if (p := _log_point(x, y)) is not None]
    if not pts_all:
        raise ValueError("nothing to plot: no positive points")
    xs = [p[0] for p in pts_all]
    ys = [p[1] for p in pts_all]
    pad = 0.15
    cv = _Canvas(
        (min(xs) - pad, max(xs) + pad),
        (min(ys) - pad, max(ys) + pad),
    )
    cv.frame()
    for k in _ticks(cv.xlo, cv.xhi):
        px = cv.x(k)
        cv.add(f'<line x1="{px:.1f}" y1="{MARGIN_T}" x2="{px:.1f}" y2="{HEIGHT - MARGIN_B}" stroke="#ddd"/>')
        cv.add(
            f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-size="12">1e{k}</text>'
        )
    cv.y_ticks()

    xc = sum(xs) / len(xs)
    yc = sum(ys) / len(ys)
    for slope, label in reference_slopes or []:
        x0, x1 = cv.xlo + 0.05, cv.xhi - 0.05
        y0 = yc + slope * (x0 - xc)
        y1 = yc + slope * (x1 - xc)
        cv.add(
            f'<line x1="{cv.x(x0):.1f}" y1="{cv.y(y0):.1f}" x2="{cv.x(x1):.1f}" y2="{cv.y(y1):.1f}" '
            f'stroke="#999" stroke-dasharray="6,4" stroke-width="1"/>'
        )
        cv.add(
            f'<text x="{cv.x(x1) - 4:.1f}" y="{cv.y(y1) - 5:.1f}" text-anchor="end" '
            f'font-size="11" fill="#777">{label}</text>'
        )

    if fit is not None:
        slope, intercept = fit
        # natural-log fit: log10 y = slope*log10 x + intercept/ln(10)
        b10 = intercept / math.log(10.0)
        x0, x1 = min(xs), max(xs)
        cv.fit(x0, slope * x0 + b10, x1, slope * x1 + b10, f"fit slope {slope:.3f}")
    cv.scatter(series, _log_point)
    cv.write(path, title, xlabel, ylabel)


def semilog_svg(path: str, series: list, title: str, xlabel: str, ylabel: str, fit=None) -> None:
    """Linear x, log10 y scatter (tail-decay diagnostics)."""
    pts_all = [p for _, pts in series for x, y in pts if (p := _semilog_point(x, y)) is not None]
    if not pts_all:
        raise ValueError("nothing to plot: no positive points")
    xs = [p[0] for p in pts_all]
    ys = [p[1] for p in pts_all]
    padx = 0.05 * (max(xs) - min(xs) or 1.0)
    cv = _Canvas((min(xs) - padx, max(xs) + padx), (min(ys) - 0.15, max(ys) + 0.15))
    cv.frame()
    cv.y_ticks()
    step = max(1, round((max(xs) - min(xs)) / 8))
    tick = math.ceil(min(xs))
    while tick <= max(xs):
        px = cv.x(tick)
        cv.add(f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" font-size="12">{tick:g}</text>')
        tick += step
    if fit is not None:
        slope, intercept = fit
        x0, x1 = min(xs), max(xs)
        b10 = intercept / math.log(10.0)
        s10 = slope / math.log(10.0)
        cv.fit(x0, s10 * x0 + b10, x1, s10 * x1 + b10, f"fit slope {slope:.4f}/unit")
    cv.scatter(series, _semilog_point)
    cv.write(path, title, xlabel, ylabel)
