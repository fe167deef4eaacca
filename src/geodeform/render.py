"""SVG output for configurations, in the flat style of hand-drawn
geometry figures: thin black segments, white point dots, small labels.

Model coordinates are mapped at 100 px per unit with the y axis flipped
(SVG grows downward).  All numbers are written with four decimals and
elements are emitted in a fixed order, so identical configurations give
byte-identical files.
"""

from __future__ import annotations

import math

from .configurations import Configuration
from .core import Circle, Point

__all__ = ["render_svg", "render"]

PX_PER_UNIT = 100.0
POINT_RADIUS_PX = 2.0
PAD_FRACTION = 0.05


def _escape(text: str) -> str:
    """`&`, `>` and `<` as XML entities, in that order (the order of
    xml.sax.saxutils.escape, which this module does without: importing it
    loads urllib, http and email into every run)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _bounds(config: Configuration) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for obj in config.objects.values():
        if isinstance(obj, Point):
            xs.append(obj.x)
            ys.append(obj.y)
        elif isinstance(obj, Circle):
            xs.extend((obj.center.x - obj.radius, obj.center.x + obj.radius))
            ys.extend((obj.center.y - obj.radius, obj.center.y + obj.radius))
    if not xs:
        raise ValueError("cannot render a configuration with no located objects")
    return min(xs), min(ys), max(xs), max(ys)


def render_svg(config: Configuration) -> str:
    """The complete SVG document for one configuration.  ValueError when
    the figure's pixel frame overflows."""
    xmin, ymin, xmax, ymax = _bounds(config)
    span = max(xmax - xmin, ymax - ymin)
    if span == 0.0:
        span = 1.0
    pad = PAD_FRACTION * span
    # pixel frame: x right, y down
    px0 = (xmin - pad) * PX_PER_UNIT
    py0 = -(ymax + pad) * PX_PER_UNIT
    width = (xmax - xmin + 2.0 * pad) * PX_PER_UNIT
    height = (ymax - ymin + 2.0 * pad) * PX_PER_UNIT
    if not all(map(math.isfinite, (px0, py0, px0 + width, py0 + height))):
        raise ValueError("the figure is too large to draw: its pixel "
                         "frame is not finite")

    def to_px(p: Point) -> tuple[float, float]:
        return p.x * PX_PER_UNIT, -p.y * PX_PER_UNIT

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="{_fmt(px0)} {_fmt(py0)} {_fmt(width)} {_fmt(height)}">',
    ]

    for a, b in config.edges:
        xa, ya = to_px(config.point(a))
        xb, yb = to_px(config.point(b))
        parts.append(f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" '
                     f'x2="{_fmt(xb)}" y2="{_fmt(yb)}" '
                     'stroke="black" stroke-width="1"/>')

    for obj in config.objects.values():
        if isinstance(obj, Circle):
            cx, cy = to_px(obj.center)
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                         f'r="{_fmt(obj.radius * PX_PER_UNIT)}" '
                         'fill="none" stroke="black" stroke-width="1"/>')

    for label, obj in config.objects.items():
        if not isinstance(obj, Point):
            continue
        x, y = to_px(obj)
        parts.append(f'<circle class="point" cx="{_fmt(x)}" cy="{_fmt(y)}" '
                     f'r="{_fmt(POINT_RADIUS_PX)}" '
                     'fill="white" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x + 4.0)}" y="{_fmt(y - 4.0)}" '
                     f'font-size="10" font-family="serif">'
                     f'{_escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(config: Configuration, path: str) -> None:
    """Write the configuration's SVG to `path` (UTF-8)."""
    document = render_svg(config)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(document)
