"""Triangle centers and apex constructions.

The two Fermat points are built constructively (vertex-to-apex line
concurrency) rather than from trigonometric barycentrics, so their
conditioning is explicit: the pairwise meets of the three defining lines
must agree within the fixed guard GUARD or IllConditioned is raised.
The tests hold the first Fermat point against an independent Weiszfeld
iteration (`tests/fermat_oracle.py`).
"""

from __future__ import annotations

import enum
import math
from typing import Callable

from .core import (
    FLOOR,
    GUARD,
    Circle,
    CoincidentPoints,
    CollinearPoints,
    GeometryError,
    Line,
    Parallel,
    Point,
    _local_scale,
    circumcircle,
    diameter,
    dist,
    guard,
    intersect,
    least_squares_meet,
    line_through,
    maximum,
    midpoint,
    minimum,
    perp,
    signed_area,
    where,
)

__all__ = [
    "CenterKind",
    "Orientation",
    "IllConditioned",
    "triangle_center",
    "equilateral_apex",
    "right_isosceles_apex",
]


class CenterKind(enum.Enum):
    """Supported centers, named by their Kimberling index."""

    X1 = "incenter"
    X2 = "centroid"
    X3 = "circumcenter"
    X4 = "orthocenter"
    X5 = "nine_point_center"
    X13 = "first_fermat"
    X14 = "second_fermat"


class Orientation(enum.Enum):
    """Which side of a base segment an apex is erected on, relative to a
    reference point (ties with the reference on the base line resolve to
    the counterclockwise side)."""

    TOWARD_REFERENCE = "toward"
    AWAY_FROM_REFERENCE = "away"


class IllConditioned(GeometryError):
    """The defining lines of a constructed center do not pin it down to
    within the guard GUARD."""


def _pick_side(base1: Point, base2: Point, candidate_offset: Point,
               mid: Point, orientation: Orientation, reference: Point) -> Point:
    """Choose mid +/- offset so the result sits on the requested side."""
    plus = Point(mid.x + candidate_offset.x, mid.y + candidate_offset.y)
    # a side is the sign of the signed area, with 0.0 on the positive side
    same_side = ((signed_area(base1, base2, plus) < 0.0)
                 == (signed_area(base1, base2, reference) < 0.0))
    keep = same_side == (orientation is Orientation.TOWARD_REFERENCE)
    return Point(where(keep, plus.x, mid.x - candidate_offset.x),
                 where(keep, plus.y, mid.y - candidate_offset.y))


def equilateral_apex(base1: Point, base2: Point, orientation: Orientation,
                     reference: Point) -> Point:
    """Apex completing an equilateral triangle on the segment base1-base2."""
    d = dist(base1, base2)
    guard(d <= FLOOR * _local_scale(base1, base2), CoincidentPoints,
          "equilateral apex on a zero-length base")
    m = midpoint(base1, base2)
    offset = perp(base2 - base1) * (math.sqrt(3.0) / 2.0)
    return _pick_side(base1, base2, offset, m, orientation, reference)


def right_isosceles_apex(end1: Point, end2: Point, orientation: Orientation,
                         reference: Point) -> Point:
    """Apex O with |O-end1| = |O-end2| and a right angle at O."""
    d = dist(end1, end2)
    guard(d <= FLOOR * _local_scale(end1, end2), CoincidentPoints,
          "right-isosceles apex on a zero-length base")
    m = midpoint(end1, end2)
    offset = perp(end2 - end1) * 0.5
    return _pick_side(end1, end2, offset, m, orientation, reference)


def _require_triangle(a: Point, b: Point, c: Point) -> float:
    sides = dist(a, b), dist(b, c), dist(c, a)
    diam = maximum(*sides)
    guard(minimum(*sides) <= FLOOR * _local_scale(a, b, c), CoincidentPoints,
          "triangle with coincident vertices")
    guard(abs(signed_area(a, b, c)) <= FLOOR * diam * diam, CollinearPoints,
          "degenerate triangle {}, {}, {}", a, b, c)
    return diam


def _fermat_lines(a: Point, b: Point, c: Point,
                  orientation: Orientation) -> list[Line]:
    apex_a = equilateral_apex(b, c, orientation, a)
    apex_b = equilateral_apex(c, a, orientation, b)
    apex_c = equilateral_apex(a, b, orientation, c)
    try:
        return [line_through(a, apex_a),
                line_through(b, apex_b),
                line_through(c, apex_c)]
    except CoincidentPoints as exc:
        raise IllConditioned(f"fermat construction degenerates: {exc}") from exc


def _concurrent_point(lines: list[Line], diam: float) -> Point:
    """Least-squares meet of three concurrent lines, with a spread check."""
    meets = []
    for i in range(3):
        for j in range(i + 1, 3):
            try:
                meets.append(intersect(lines[i], lines[j]))
            except GeometryError as exc:
                raise IllConditioned(f"defining lines nearly parallel: {exc}") from exc
    spread = diameter(meets)
    guard(spread > GUARD * diam, IllConditioned,
          "defining lines meet with spread {:.3e} over scale {:.3e}",
          spread, diam)
    try:
        return least_squares_meet(lines, FLOOR)
    except Parallel as exc:
        raise IllConditioned("defining lines form a near-parallel pencil") from exc


def triangle_center(kind: CenterKind, a: Point, b: Point, c: Point,
                    circle: Callable[[], Circle] | None = None) -> Point:
    """The requested center of triangle abc (any vertex order).

    `circle`, when given, returns the circumcircle of abc, which X3, X4
    and X5 call for once the triangle is checked: a caller that keeps the
    circles of a figure passes its own copy."""
    diam = _require_triangle(a, b, c)
    if kind is CenterKind.X1:
        la, lb, lc = dist(b, c), dist(c, a), dist(a, b)
        s = la + lb + lc
        return Point((la * a.x + lb * b.x + lc * c.x) / s,
                     (la * a.y + lb * b.y + lc * c.y) / s)
    if kind is CenterKind.X2:
        return Point((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)
    if kind in (CenterKind.X3, CenterKind.X4, CenterKind.X5):
        o = (circumcircle(a, b, c) if circle is None else circle()).center
        if kind is CenterKind.X3:
            return o
        h = Point(a.x + b.x + c.x - 2.0 * o.x, a.y + b.y + c.y - 2.0 * o.y)
        return h if kind is CenterKind.X4 else midpoint(o, h)
    if kind is CenterKind.X13:
        lines = _fermat_lines(a, b, c, Orientation.AWAY_FROM_REFERENCE)
        return _concurrent_point(lines, diam)
    if kind is CenterKind.X14:
        lines = _fermat_lines(a, b, c, Orientation.TOWARD_REFERENCE)
        return _concurrent_point(lines, diam)
    raise ValueError(f"unsupported center kind {kind!r}")
