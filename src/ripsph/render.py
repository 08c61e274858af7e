"""Deterministic SVG rendering of diagrams and barcodes, plus text tables.

Output is plain SVG 1.1 built by string assembly: no plotting dependency,
byte-identical across runs for identical inputs, diff-able in tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def _fmt(x: float) -> str:
    """Fixed 6-significant-digit decimal formatting, no exponent surprises."""
    return format(float(x), ".6g")


def _color(o: RenderOptions, dim: int) -> str:
    return o.colors[dim % len(o.colors)]


_ARROW_DEF = ('<defs><marker id="arrow" markerWidth="8" markerHeight="8" '
              'refX="6" refY="3" orient="auto">'
              '<path d="M0,0 L6,3 L0,6 z"/></marker></defs>')


def _frame(d: PersistenceDiagram, o: RenderOptions) -> tuple:
    """Set-up shared by both plots: the cap standing in for infinity, the
    scale -> x map, the inner height, and the opening elements (svg tag,
    background, x-axis).

    The cap lies beyond every finite birth and death (by default 1.05 times
    the largest, or 1.0 when that is 0), so it bounds both axes and an
    essential class always runs rightwards, or upwards, to it.
    """
    if len(d) == 0:
        raise EmptyDiagram("cannot render an empty diagram")
    # death >= birth, so a pair's largest finite value is its death if finite
    top = max(p.birth if p.is_essential else p.death for p in d)
    cap = o.cap if o.cap is not None else (1.05 * top if top else 1.0)
    if not top < cap < math.inf:  # also rejects NaN
        raise ValueError("cap must be finite and exceed every finite birth and death")
    inner_w = o.width - 2 * o.margin

    def x_of(v: float) -> float:
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
    step = inner_h / len(d)
    for i, p in enumerate(d):  # sorted: dimensions grouped, then birth/death
        y = o.margin + step * (i + 0.5)
        x1 = x_of(p.birth)
        x2 = x_of(cap if p.is_essential else p.death)
        marker = ' marker-end="url(#arrow)"' if p.is_essential else ""
        parts.append(
            f'<line class="bar dim{p.dimension}" x1="{_fmt(x1)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y)}" stroke="{_color(o, p.dimension)}" '
            f'stroke-width="3"{marker}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_diagram_svg(d: PersistenceDiagram, o: RenderOptions = RenderOptions()) -> str:
    """Scatter of (birth, death) points per dimension; essential classes sit
    on the cap line with a distinct (square) marker."""
    cap, x_of, inner_h, parts = _frame(d, o)

    def y_of(v: float) -> float:
        return o.height - o.margin - inner_h * v / cap

    parts.append(f'<line x1="{o.margin}" y1="{o.height - o.margin}" '
                 f'x2="{o.margin}" y2="{o.margin}" stroke="black"/>')
    if o.draw_diagonal:
        parts.append(
            f'<line class="diagonal" x1="{_fmt(x_of(0.0))}" y1="{_fmt(y_of(0.0))}" '
            f'x2="{_fmt(x_of(cap))}" y2="{_fmt(y_of(cap))}" '
            f'stroke="gray" stroke-dasharray="4 3"/>')
    parts.append(
        f'<line class="cap" x1="{_fmt(x_of(0.0))}" y1="{_fmt(y_of(cap))}" '
        f'x2="{_fmt(x_of(cap))}" y2="{_fmt(y_of(cap))}" '
        f'stroke="lightgray" stroke-dasharray="2 2"/>')
    for p in d:
        color = _color(o, p.dimension)
        if p.is_essential:
            x, y = x_of(p.birth), y_of(cap)
            parts.append(
                f'<rect class="point dim{p.dimension} essential" '
                f'x="{_fmt(x - 4)}" y="{_fmt(y - 4)}" width="8" height="8" '
                f'fill="{color}"/>')
        else:
            parts.append(
                f'<circle class="point dim{p.dimension}" cx="{_fmt(x_of(p.birth))}" '
                f'cy="{_fmt(y_of(p.death))}" r="4" fill="{color}"/>')
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
