"""Exact-coordinate SVG rendering of polygon overlays.

All geometry is emitted in integer user units obtained by clearing
denominators with one common multiple, so breakpoints land exactly where
the arithmetic says; the viewBox does the visual scaling.  Labels show the
exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import MufiltError
from .polygons import Polygon

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


def _frac_label(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text content; the html module would
    also load its entity tables."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_polygons(items, title: str = "") -> str:
    """Render [(polygon, label), ...] into a standalone SVG document.

    The title and labels are text content: &, < and > are escaped.
    """
    items = list(items)
    if not items:
        raise MufiltError("nothing to render")
    denoms = [1]
    xs = []
    ys = []
    for poly, _ in items:
        if not isinstance(poly, Polygon):
            raise MufiltError(f"expected a polygon, got {poly!r}")
        for x, y in poly.points:
            denoms.append(x.denominator)
            denoms.append(y.denominator)
            xs.append(x)
            ys.append(y)
    L = lcm(*denoms)
    max_x = max(xs)
    max_y = max(max(ys), Fraction(1))
    W = int(max_x * L)
    H = int(max_y * L)
    if W <= 0:
        raise MufiltError("degenerate polygon range")
    # keep vertical and horizontal units comparable
    y_stretch = max(1, round(Fraction(W, max(H, 1))))
    H = H * y_stretch
    margin = max(W // 8, 1)
    font = max(W // 40, 1)
    stroke = max(W // 300, 1)
    tick = max(W // 150, 1)

    def px(x: Fraction) -> int:
        return int(x * L)

    def py(y: Fraction) -> int:
        return H - int(y * L) * y_stretch

    parts = []
    total_w = W + 2 * margin
    total_h = H + 2 * margin + font * (len(items) + 2)
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="720" '
        f'height="{max(1, 720 * total_h // total_w)}" '
        f'viewBox="{-margin} {-margin - font * (len(items) + 1)} {total_w} {total_h}">'
    )
    parts.append(
        f'<rect x="{-margin}" y="{-margin - font * (len(items) + 1)}" '
        f'width="{total_w}" height="{total_h}" fill="white"/>'
    )
    # axes
    parts.append(
        f'<line x1="0" y1="{py(Fraction(0))}" x2="{W}" y2="{py(Fraction(0))}" '
        f'stroke="#888888" stroke-width="{stroke}"/>'
    )
    parts.append(
        f'<line x1="0" y1="{py(Fraction(0))}" x2="0" y2="{py(max_y)}" '
        f'stroke="#888888" stroke-width="{stroke}"/>'
    )
    if title:
        parts.append(
            f'<text x="0" y="{-margin - font * len(items)}" '
            f'font-size="{font}" fill="#000000">{_escape(title)}</text>'
        )
    tick_xs = sorted({x for poly, _ in items for x, _ in poly.points})
    for x in tick_xs:
        parts.append(
            f'<line x1="{px(x)}" y1="{py(Fraction(0)) - tick}" x2="{px(x)}" '
            f'y2="{py(Fraction(0)) + tick}" stroke="#888888" stroke-width="{stroke}"/>'
        )
        parts.append(
            f'<text x="{px(x)}" y="{py(Fraction(0)) + tick + font}" '
            f'font-size="{font}" text-anchor="middle" fill="#444444">{_frac_label(x)}</text>'
        )
    for idx, (poly, label) in enumerate(items):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{px(x)},{py(y)}" for x, y in poly.points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke * 2}"/>'
        )
        for x, y in poly.points:
            parts.append(
                f'<circle cx="{px(x)}" cy="{py(y)}" r="{tick}" fill="{color}"/>'
            )
        parts.append(
            f'<text x="0" y="{-margin - font * (len(items) - 1 - idx)}" '
            f'font-size="{font}" fill="{color}">{_escape(label)} '
            f'(ends at {_frac_label(poly.points[-1][0])}, '
            f'{_frac_label(poly.points[-1][1])})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
