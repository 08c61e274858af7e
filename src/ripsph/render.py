"""Deterministic SVG rendering of diagrams and barcodes, plus text tables.

Output is plain SVG 1.1 built by string assembly: no plotting dependency,
byte-identical across runs for identical inputs, diff-able in tests.
Every coordinate is written with 6 significant digits ("%.6g"); those of
the pairs are computed a column at a time from the diagram's columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PersistenceDiagram
from .errors import EmptyDiagram

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class RenderOptions:
    width: int = 640
    height: int = 480
    colors: tuple[str, ...] = _PALETTE
    draw_diagonal: bool = True
    cap: float | None = None  # plot coordinate standing in for infinity
    margin: int = 40


def _colors(o: RenderOptions, dims: np.ndarray) -> list[str]:
    return [o.colors[k % len(o.colors)] for k in dims.tolist()]


_ARROW_DEF = ('<defs><marker id="arrow" markerWidth="8" markerHeight="8" '
              'refX="6" refY="3" orient="auto">'
              '<path d="M0,0 L6,3 L0,6 z"/></marker></defs>')


def _frame(d: PersistenceDiagram, o: RenderOptions) -> tuple:
    """Set-up shared by both plots: the cap standing in for infinity, the
    scale -> x map (of a scalar or a column), the inner height, and the
    opening elements (svg tag, background, x-axis).

    The cap is positive and lies beyond every finite birth and death (by
    default 1.05 times the largest, or 1.0 when that is not positive), so
    it bounds both axes and an essential class always runs rightwards, or
    upwards, to it.
    """
    if len(d) == 0:
        raise EmptyDiagram("cannot render an empty diagram")
    # death >= birth, so a pair's largest finite value is its death if finite
    top = float(np.where(np.isinf(d.deaths), d.births, d.deaths).max())
    cap = o.cap if o.cap is not None else (1.05 * top if top > 0 else 1.0)
    if not max(top, 0.0) < cap < math.inf:  # also rejects NaN
        raise ValueError("cap must be finite, positive and exceed every finite "
                         "birth and death")
    inner_w = o.width - 2 * o.margin

    def x_of(v):
        return o.margin + inner_w * v / cap

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{o.width}" height="{o.height}" '
             f'viewBox="0 0 {o.width} {o.height}">',
             f'<rect x="0" y="0" width="{o.width}" height="{o.height}" fill="white"/>',
             f'<line x1="{o.margin}" y1="{o.height - o.margin}" '
             f'x2="{o.width - o.margin}" y2="{o.height - o.margin}" stroke="black"/>']
    return cap, x_of, o.height - 2 * o.margin, parts


def render_barcode_svg(d: PersistenceDiagram, o: RenderOptions = RenderOptions()) -> str:
    """One horizontal bar per pair, grouped by dimension, x-axis = scale.

    Infinite bars run to the cap and end in an arrowhead.
    """
    cap, x_of, inner_h, parts = _frame(d, o)
    parts.insert(1, _ARROW_DEF)
    essential = np.isinf(d.deaths)
    # bars in diagram order: dimensions grouped, then birth/death
    y = (o.margin + inner_h / len(d) * (np.arange(len(d)) + 0.5)).tolist()
    bar = ('<line class="bar dim%d" x1="%.6g" y1="%.6g" x2="%.6g" y2="%.6g" '
           'stroke="%s" stroke-width="3"%s/>')
    parts += map(bar.__mod__, zip(
        d.dims.tolist(), x_of(d.births).tolist(), y,
        x_of(np.where(essential, cap, d.deaths)).tolist(), y, _colors(o, d.dims),
        np.where(essential, ' marker-end="url(#arrow)"', "").tolist()))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_diagram_svg(d: PersistenceDiagram, o: RenderOptions = RenderOptions()) -> str:
    """Scatter of (birth, death) points per dimension; essential classes sit
    on the cap line with a distinct (square) marker."""
    cap, x_of, inner_h, parts = _frame(d, o)

    def y_of(v):
        return o.height - o.margin - inner_h * v / cap

    parts.append(f'<line x1="{o.margin}" y1="{o.height - o.margin}" '
                 f'x2="{o.margin}" y2="{o.margin}" stroke="black"/>')
    if o.draw_diagonal:
        parts.append(
            f'<line class="diagonal" x1="{x_of(0.0):.6g}" y1="{y_of(0.0):.6g}" '
            f'x2="{x_of(cap):.6g}" y2="{y_of(cap):.6g}" '
            f'stroke="gray" stroke-dasharray="4 3"/>')
    parts.append(
        f'<line class="cap" x1="{x_of(0.0):.6g}" y1="{y_of(cap):.6g}" '
        f'x2="{x_of(cap):.6g}" y2="{y_of(cap):.6g}" '
        f'stroke="lightgray" stroke-dasharray="2 2"/>')
    essential = np.isinf(d.deaths)
    x, y = x_of(d.births), y_of(np.where(essential, cap, d.deaths))
    # an essential class is an 8 x 8 square centred on its point
    point = np.where(essential,
                     '<rect class="point dim%d essential" x="%.6g" y="%.6g" '
                     'width="8" height="8" fill="%s"/>',
                     '<circle class="point dim%d" cx="%.6g" cy="%.6g" r="4" fill="%s"/>')
    parts += map(str.__mod__, point.tolist(), zip(
        d.dims.tolist(), np.where(essential, x - 4, x).tolist(),
        np.where(essential, y - 4, y).tolist(), _colors(o, d.dims)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_betti_table(betti: tuple[int, ...]) -> str:
    """Aligned plain-text table of Betti numbers."""
    headers = [f"beta_{k}" for k in range(len(betti))]
    values = [str(b) for b in betti]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.rjust(w) for v, w in zip(values, widths))
    return head + "\n" + body + "\n"
