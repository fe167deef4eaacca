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


def _numbers(template: str, values: tuple) -> str:
    """`template % values`, its every number a `%.4f` (as f"{v:.4f}"), with
    -0.0000 written as 0.0000."""
    return (template % values).replace("-0.0000", "0.0000")


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

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        _numbers('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 'width="%.4f" height="%.4f" viewBox="%.4f %.4f %.4f %.4f">',
                 (width, height, px0, py0, width, height)),
    ]

    for a, b in config.edges:
        pa, pb = config.point(a), config.point(b)
        parts.append(_numbers(
            '<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" '
            'stroke="black" stroke-width="1"/>',
            (pa.x * PX_PER_UNIT, -pa.y * PX_PER_UNIT,
             pb.x * PX_PER_UNIT, -pb.y * PX_PER_UNIT)))

    for obj in config.objects.values():
        if isinstance(obj, Circle):
            parts.append(_numbers(
                '<circle cx="%.4f" cy="%.4f" r="%.4f" '
                'fill="none" stroke="black" stroke-width="1"/>',
                (obj.center.x * PX_PER_UNIT, -obj.center.y * PX_PER_UNIT,
                 obj.radius * PX_PER_UNIT)))

    for label, obj in config.objects.items():
        if not isinstance(obj, Point):
            continue
        x, y = obj.x * PX_PER_UNIT, -obj.y * PX_PER_UNIT
        parts.append(_numbers(
            '<circle class="point" cx="%.4f" cy="%.4f" r="%.4f" '
            'fill="white" stroke="black" stroke-width="1"/>',
            (x, y, POINT_RADIUS_PX)))
        # the label goes in after the numbers' fix, kept as given
        parts.append(_numbers('<text x="%.4f" y="%.4f" '
                              'font-size="10" font-family="serif">',
                              (x + 4.0, y - 4.0))
                     + _escape(label) + "</text>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(config: Configuration, path: str) -> None:
    """Write the configuration's SVG to `path` (UTF-8)."""
    data = render_svg(config).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
