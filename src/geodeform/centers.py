"""Triangle centers and apex constructions.

The two Fermat points are built constructively (vertex-to-apex line
concurrency) rather than from trigonometric barycentrics, so their
conditioning is explicit: the pairwise meets of the three defining lines
must agree within the fixed guard GUARD or IllConditioned is raised.
The tests hold the first Fermat point against an independent Weiszfeld
iteration (`tests/fermat_oracle.py`).

Every construction builds the parts it reads by `core.shared`, so in a
`parts()` block those over one triangle share its check and circle, and
those on one ordered side its apex candidates.
"""

from __future__ import annotations

import enum
import math

from .core import (
    FLOOR,
    GUARD,
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
    shared,
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


def _below(base1: Point, base2: Point, point: Point):
    """Whether `point` lies on the negative side of base1 -> base2: a
    side is the sign of the signed area, with 0.0 on the positive side."""
    return signed_area(base1, base2, point) < 0.0


def _candidates(base1: Point, base2: Point, k: float) -> tuple:
    """The two apex candidates mid +/- k * perp(base2 - base1) on the
    segment base1-base2: the plus one as a point, the minus one as bare
    coordinates, which are checked only where they are picked, and
    whether plus lies on the negative side of base1 -> base2."""
    m = midpoint(base1, base2)
    offset = perp(base2 - base1) * k
    plus = Point(m.x + offset.x, m.y + offset.y)
    return plus, m.x - offset.x, m.y - offset.y, _below(base1, base2, plus)


def _equilateral_side(base1: Point, base2: Point) -> tuple:
    """The `_candidates` of the equilateral apexes on base1 -> base2, the
    part that every apex on that ordered side shares: a reversed side
    rounds the signed area of plus differently."""
    return _candidates(base1, base2, math.sqrt(3.0) / 2.0)


def _pick_side(side: tuple, orientation: Orientation,
               reference_below) -> Point:
    """The candidate of `side` (`_candidates` on a base) on the requested
    side of the base, given whether the reference is `_below` it."""
    plus, minus_x, minus_y, plus_below = side
    keep = (plus_below == reference_below
            if orientation is Orientation.TOWARD_REFERENCE
            else plus_below != reference_below)
    return Point(where(keep, plus.x, minus_x), where(keep, plus.y, minus_y))


def _apex(base1: Point, base2: Point, orientation: Orientation,
          reference: Point) -> Point:
    """The equilateral apex on the ordered side base1 -> base2, toward or
    away from `reference`, from the shared candidates of that side and
    the reference's side of it; the caller has checked that the base has
    a length."""
    return _pick_side(shared(_equilateral_side, base1, base2), orientation,
                      shared(_below, base1, base2, reference))


def equilateral_apex(base1: Point, base2: Point, orientation: Orientation,
                     reference: Point) -> Point:
    """Apex completing an equilateral triangle on the segment base1-base2."""
    guard(shared(dist, base1, base2) <= FLOOR * _local_scale(base1, base2),
          CoincidentPoints, "equilateral apex on a zero-length base")
    return _apex(base1, base2, orientation, reference)


def right_isosceles_apex(end1: Point, end2: Point, orientation: Orientation,
                         reference: Point) -> Point:
    """Apex O with |O-end1| = |O-end2| and a right angle at O."""
    d = dist(end1, end2)
    guard(d <= FLOOR * _local_scale(end1, end2), CoincidentPoints,
          "right-isosceles apex on a zero-length base")
    return _pick_side(_candidates(end1, end2, 0.5), orientation,
                      _below(end1, end2, reference))


def _require_triangle(a: Point, b: Point, c: Point) -> float:
    """The diameter of triangle abc, after checking that it has one."""
    sides = shared(dist, a, b), shared(dist, b, c), shared(dist, c, a)
    diam = maximum(*sides)
    guard(minimum(*sides) <= FLOOR * _local_scale(a, b, c), CoincidentPoints,
          "triangle with coincident vertices")
    guard(abs(signed_area(a, b, c)) <= FLOOR * diam * diam, CollinearPoints,
          "degenerate triangle {}, {}, {}", a, b, c)
    return diam


def _fermat_lines(points: tuple[Point, Point, Point],
                  orientation: Orientation) -> list[Line]:
    """The lines from each vertex of the checked triangle `points` to the
    equilateral apex on the opposite side.

    The apexes need no zero-length-base guard of their own: the side
    under one has the bits of a side of `_require_triangle`, whose floor
    is scaled by all three vertices, so its guard has marked every row
    theirs would, and raised first on floats."""
    a, b, c = points
    apexes = [_apex(b, c, orientation, a), _apex(c, a, orientation, b),
              _apex(a, b, orientation, c)]
    try:
        return [line_through(v, apex) for v, apex in zip(points, apexes)]
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


def triangle_center(kind: CenterKind, a: Point, b: Point, c: Point) -> Point:
    """The requested center of triangle abc (any vertex order)."""
    diam = shared(_require_triangle, a, b, c)
    if kind is CenterKind.X1:
        la, lb, lc = shared(dist, b, c), shared(dist, c, a), shared(dist, a, b)
        s = la + lb + lc
        return Point((la * a.x + lb * b.x + lc * c.x) / s,
                     (la * a.y + lb * b.y + lc * c.y) / s)
    if kind is CenterKind.X2:
        return Point((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)
    if kind in (CenterKind.X3, CenterKind.X4, CenterKind.X5):
        o = shared(circumcircle, a, b, c).center
        if kind is CenterKind.X3:
            return o
        h = Point(a.x + b.x + c.x - 2.0 * o.x, a.y + b.y + c.y - 2.0 * o.y)
        return h if kind is CenterKind.X4 else midpoint(o, h)
    if kind in (CenterKind.X13, CenterKind.X14):
        orientation = (Orientation.AWAY_FROM_REFERENCE
                       if kind is CenterKind.X13
                       else Orientation.TOWARD_REFERENCE)
        return _concurrent_point(
            _fermat_lines((a, b, c), orientation), diam)
    raise ValueError(f"unsupported center kind {kind!r}")
