"""Static SVG renderings of simulation and estimation results.

The figures are hand-assembled SVG strings rather than matplotlib output
so that identical inputs produce identical bytes: no font metrics, no
backend or version drift, no timestamps.  Layout is deliberately plain.
Every coordinate goes through one fixed-precision formatter; callers that
need reproducible files only have to hold inputs fixed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, as_floats, check_integer

GLOBAL = "global"
BY_LEVEL = "by-level"

_WIDTH = 840
_LEFT, _RIGHT, _TOP, _BOTTOM = 64, 18, 28, 40
_PANEL_GAP = 10
_FONT = 'font-family="Helvetica, Arial, sans-serif"'

_DATA_STROKE = "#8a8f98"
_TREND_STROKE = "#1f5fbf"
_BAND_FILL = "#c7d7f2"
_NEEDLE_STROKE = "#1f5fbf"
_AXIS_STROKE = "#222222"
_ZERO_STROKE = "#bbbbbb"


def _px(v: float) -> str:
    return f"{float(v):.2f}"


def _num(v: float) -> str:
    return f"{float(v):.4g}"


class _Scale:
    """Affine map from data values to pixel coordinates."""

    def __init__(self, lo: float, hi: float, pix_lo: float, pix_hi: float):
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def __call__(self, v):
        frac = (np.asarray(v, dtype=np.float64) - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)

    def ticks(self, count: int = 5) -> np.ndarray:
        return np.linspace(self.lo, self.hi, count)


def _padded_range(*arrays: np.ndarray) -> tuple[float, float]:
    stacked = np.concatenate([a.ravel() for a in arrays])
    stacked = stacked[np.isfinite(stacked)]
    if stacked.size == 0:
        return -1.0, 1.0
    lo, hi = float(stacked.min()), float(stacked.max())
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    return lo - pad, hi + pad


def _polyline(xs, ys, stroke: str, width: float) -> str:
    pts = " ".join(f"{_px(x)},{_px(y)}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="{width}"/>'


def _text(x: float, y: float, s: str, anchor: str = "middle", size: int = 11) -> str:
    return (
        f'<text x="{_px(x)}" y="{_px(y)}" text-anchor="{anchor}" '
        f'font-size="{size}" {_FONT}>{s}</text>'
    )


def _line(x0: float, y0: float, x1: float, y1: float, stroke: str, width: float) -> str:
    return (
        f'<line x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x1)}" y2="{_px(y1)}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _frame(x0: float, y0: float, x1: float, y1: float) -> str:
    return (
        f'<rect x="{_px(x0)}" y="{_px(y0)}" width="{_px(x1 - x0)}" '
        f'height="{_px(y1 - y0)}" fill="none" stroke="{_AXIS_STROKE}" stroke-width="1"/>'
    )


def _x_axis(sx: _Scale, y: float) -> list[str]:
    out = []
    for v in sx.ticks():
        px = float(sx(v))
        out.append(_line(px, y, px, y + 4, _AXIS_STROKE, 1))
        out.append(_text(px, y + 16, _num(v)))
    return out


def _y_axis(sy: _Scale, x: float) -> list[str]:
    out = []
    for v in sy.ticks():
        py = float(sy(v))
        out.append(_line(x - 4, py, x, py, _AXIS_STROKE, 1))
        out.append(_text(x - 7, py + 3.5, _num(v), anchor="end", size=10))
    return out


def _document(height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">'
    )
    background = f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="#ffffff"/>'
    return "\n".join([head, background, *body, "</svg>"]) + "\n"


def trend_figure(
    data: np.ndarray,
    trend: np.ndarray,
    ci_lo: np.ndarray | None = None,
    ci_hi: np.ndarray | None = None,
) -> str:
    """Data line, fitted trend, and a shaded band when an interval exists.

    An interval is both bounds or neither; one bound alone is refused."""
    data = as_floats(data, "data", (None,))
    trend = as_floats(trend, "trend", data.shape)
    n = data.size
    height = 420
    x0, x1 = _LEFT, _WIDTH - _RIGHT
    y0, y1 = _TOP, height - _BOTTOM
    sx = _Scale(0.0, float(n - 1), x0, x1)
    if (ci_lo is None) != (ci_hi is None):
        raise DimensionMismatch(f"interval needs {'ci_hi' if ci_hi is None else 'ci_lo'} too")
    interval = [] if ci_lo is None else [as_floats(ci, "interval", (n,)) for ci in (ci_lo, ci_hi)]
    sy = _Scale(*_padded_range(data, trend, *interval), pix_lo=y1, pix_hi=y0)

    t = np.arange(n)
    body = [_text(_WIDTH / 2, 17, "trend estimate", size=13)]
    if interval:
        lo, hi = interval
        forward = " ".join(f"L {_px(v)} {_px(w)}" for v, w in zip(sx(t), sy(lo)))
        backward = " ".join(f"L {_px(v)} {_px(w)}" for v, w in zip(sx(t)[::-1], sy(hi)[::-1]))
        path = "M" + forward[1:] + " " + backward + " Z"
        body.append(f'<path d="{path}" fill="{_BAND_FILL}" stroke="none"/>')
    body.append(_polyline(sx(t), sy(data), _DATA_STROKE, 1.0))
    body.append(_polyline(sx(t), sy(trend), _TREND_STROKE, 2.0))
    body.append(_frame(x0, y0, x1, y1))
    body.extend(_x_axis(sx, y1))
    body.extend(_y_axis(sy, x0))
    body.append(_text((x0 + x1) / 2, height - 8, "time"))
    return _document(height, body)


def spectrum_figure(S: np.ndarray, scaling: str = GLOBAL) -> str:
    """One stacked panel per scale, finest at the bottom.

    scaling="global" shares one vertical range across panels so power is
    comparable between scales; "by-level" stretches each panel to its own
    range so weak scales stay readable.
    """
    S = as_floats(S, "spectrum matrix", (None, None))
    if scaling not in (GLOBAL, BY_LEVEL):
        raise DimensionMismatch(f"scaling must be {GLOBAL!r} or {BY_LEVEL!r}")
    levels, n = S.shape
    panel_h = 62
    height = _TOP + levels * panel_h + (levels - 1) * _PANEL_GAP + _BOTTOM
    x0, x1 = _LEFT, _WIDTH - _RIGHT
    sx = _Scale(0.0, float(n - 1), x0, x1)
    t = np.arange(n)
    global_lo, global_hi = _padded_range(S, np.zeros(1))

    body = [_text(_WIDTH / 2, 17, f"spectrum estimate ({scaling} scaling)", size=13)]
    for j in range(levels, 0, -1):
        row = S[j - 1]
        top = _TOP + (levels - j) * (panel_h + _PANEL_GAP)
        bottom = top + panel_h
        if scaling == GLOBAL:
            lo, hi = global_lo, global_hi
        else:
            lo, hi = _padded_range(row, np.zeros(1))
        sy = _Scale(lo, hi, bottom, top)
        zero_y = float(sy(0.0))
        body.append(_line(x0, zero_y, x1, zero_y, _ZERO_STROKE, 0.75))
        body.append(_polyline(sx(t), sy(row), _TREND_STROKE, 1.2))
        body.append(_frame(x0, top, x1, bottom))
        body.append(_text(x0 - 8, (top + bottom) / 2 + 4, f"scale {j}", anchor="end", size=10))
        body.append(_text(x1 - 2, top + 11, _num(hi), anchor="end", size=8))
    last_bottom = _TOP + levels * panel_h + (levels - 1) * _PANEL_GAP
    body.extend(_x_axis(sx, last_bottom))
    body.append(_text((x0 + x1) / 2, height - 8, "time"))
    return _document(height, body)


def lacf_figure(lacv: np.ndarray, times: list[int]) -> str:
    """Needle plots of the autocorrelation at the requested time rows."""
    lacv = as_floats(lacv, "autocovariance matrix", (None, None))
    n, lags = lacv.shape
    if not times:
        raise DimensionMismatch("need at least one time index")
    times = [check_integer(t, "time index", 0, n - 1, DimensionMismatch) for t in times]
    panel_h = 120
    height = _TOP + len(times) * panel_h + (len(times) - 1) * _PANEL_GAP + _BOTTOM
    x0, x1 = _LEFT, _WIDTH - _RIGHT
    sx = _Scale(0.0, float(lags - 1), x0, x1)

    body = [_text(_WIDTH / 2, 17, "local autocorrelation", size=13)]
    for i, t in enumerate(times):
        top = _TOP + i * (panel_h + _PANEL_GAP)
        bottom = top + panel_h
        row = lacv[t]
        acf = row / row[0] if row[0] > 0 else np.full(lags, np.nan)
        finite = acf[np.isfinite(acf)]
        lo = min(-0.2, float(finite.min()) if finite.size else -1.0) - 0.05
        hi = max(1.0, float(finite.max()) if finite.size else 1.0) + 0.05
        sy = _Scale(lo, hi, bottom, top)
        zero_y = float(sy(0.0))
        body.append(_line(x0, zero_y, x1, zero_y, _ZERO_STROKE, 0.75))
        for lag in range(lags):
            if not np.isfinite(acf[lag]):
                continue
            px = float(sx(lag))
            body.append(_line(px, zero_y, px, sy(acf[lag]), _NEEDLE_STROKE, 1.5))
        body.append(_frame(x0, top, x1, bottom))
        body.append(_text(x0 - 8, (top + bottom) / 2 + 4, f"t = {t}", anchor="end", size=10))
        body.extend(_y_axis(_Scale(lo, hi, bottom, top), x0) if i == 0 else [])
    body.extend(_x_axis(sx, _TOP + len(times) * panel_h + (len(times) - 1) * _PANEL_GAP))
    body.append(_text((x0 + x1) / 2, height - 8, "lag"))
    return _document(height, body)
