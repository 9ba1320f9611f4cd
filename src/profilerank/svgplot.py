"""Static SVG rendering of fitted expression trajectories.

Trajectories are plotted relative to the first condition, so every line
passes through zero at the left edge; that keeps genes with different
absolute levels comparable, which is all a two-colour design can measure
anyway. Output is deterministic: fixed palette, fixed coordinate
formatting, no timestamps.
"""

from __future__ import annotations

import numpy as np

from .design import ModelMatrix
from .fitting import GeneFit
from .profiles import ProfileSpec

__all__ = ["fitted_relative_profile", "render_profiles_svg"]

_PALETTE = (
    "#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b",
    "#148f77", "#a04000", "#2e4053", "#cb4335", "#2874a6",
    "#239b56", "#884ea0", "#9a7d0a", "#117864", "#6e2c00",
)

_WIDTH = 800
_HEIGHT = 500
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 170
_MARGIN_TOP = 48
_MARGIN_BOTTOM = 56
# Intervals the y axis is cut into before its tick spacing is rounded.
_TICK_INTERVALS = 5


def fitted_relative_profile(
    fit: GeneFit, profile: ProfileSpec, model: ModelMatrix
) -> np.ndarray:
    """Fitted mean at each condition, relative to the first condition.

    Coefficients dropped from the model (unestimable, unconstrained) are
    set to zero; they cancel in the subtraction regardless. The first
    entry is exactly 0 by construction.
    """
    if not fit.ok:
        raise ValueError(f"gene {fit.gene_id!r}: no fit to plot")
    full = np.zeros(profile.basis.shape[1])
    for pos, j in enumerate(model.coefficient_indices):
        full[j] = fit.gamma_hat[pos]
    mu = profile.basis @ full
    return mu - mu[0]


def _ticks(lo: float, hi: float) -> list[float]:
    # Round tick spacing to 1/2/5 x 10^k covering [lo, hi], where lo < hi.
    raw = (hi - lo) / _TICK_INTERVALS
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 else float(t))
        t += step
    return ticks


def _escape(text: str) -> str:
    # XML character data; xml.sax.saxutils.escape does the same but its
    # import (urllib.request and ~40 other modules) adds ~7 MB to every run.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_profiles_svg(
    genes: list[tuple[str, int, np.ndarray]],
    condition_labels: tuple[str, ...],
    title: str,
) -> str:
    """Render one panel of overlaid trajectories.

    ``genes`` holds (gene_id, rank, relative profile values) triples; one
    polyline is emitted per gene, plus a legend keyed by rank. Gene ids,
    labels and the title are XML-escaped.
    """
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    n_cond = len(condition_labels)
    values = [v for _, _, vals in genes for v in vals] or [0.0, 1.0]
    lo = min(min(values), 0.0)
    hi = max(max(values), 0.0)
    pad = 0.05 * (hi - lo or 1.0)
    lo -= pad
    hi += pad

    def sx(i: int) -> float:
        frac = i / (n_cond - 1) if n_cond > 1 else 0.5
        return _MARGIN_LEFT + frac * plot_w

    def sy(v: float) -> float:
        return _MARGIN_TOP + (hi - v) / (hi - lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN_LEFT}" y="28" font-family="sans-serif" '
        f'font-size="16" fill="#222">{_escape(title)}</text>',
    ]
    frame = (
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#999" stroke-width="1"/>'
    )
    out.append(frame)
    for tick in _ticks(lo, hi):
        y = sy(tick)
        dash = ' stroke-dasharray="3,4"' if tick != 0.0 else ""
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{y:.2f}" '
            f'stroke="#cccccc" stroke-width="1"{dash}/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#444">{tick:g}</text>'
        )
    for i, label in enumerate(condition_labels):
        x = sx(i)
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12" '
            f'fill="#444">{_escape(label)}</text>'
        )
    for idx, (gene_id, rank, vals) in enumerate(genes):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{sx(i):.2f},{sy(float(v)):.2f}" for i, v in enumerate(vals)
        )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
            f'points="{points}"/>'
        )
        ly = _MARGIN_TOP + 14 + 16 * idx
        lx = _MARGIN_LEFT + plot_w + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
            f'font-size="11" fill="#222">{rank}. {_escape(gene_id)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
