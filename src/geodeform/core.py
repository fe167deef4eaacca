"""Plane-geometry primitives: points, lines, circles and the exact
constructions everything else is built from.

All operations are pure functions over immutable values.  Degenerate
inputs raise a :class:`GeometryError` subclass; near-degenerate cases are
decided with the fixed relative floor FLOOR scaled by the size of the
inputs, so the whole module behaves identically under translation,
rotation and uniform scaling of its inputs.  The degeneracy guards are
properties of double-precision arithmetic, not of what a caller accepts
as a theorem: no construction takes a tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "GeometryError",
    "NonFiniteInput",
    "CoincidentPoints",
    "CollinearPoints",
    "Parallel",
    "ConcentricCircles",
    "DegenerateAngleWarning",
    "FLOOR",
    "GUARD",
    "Point",
    "Line",
    "Circle",
    "dist",
    "diameter",
    "midpoint",
    "perp",
    "signed_area",
    "line_through",
    "circumcircle",
    "rotate",
    "reflect_point",
    "reflect_line",
    "intersect",
    "least_squares_meet",
    "angle_bisector",
    "radical_axis",
]


# ---------------------------------------------------------------------------
# errors and warnings

class GeometryError(Exception):
    """Base class for degenerate-input errors raised by constructions."""


class NonFiniteInput(GeometryError):
    """A coordinate, radius or scalar argument is NaN or infinite."""


class CoincidentPoints(GeometryError):
    """Two points that must be distinct coincide within the floor."""


class CollinearPoints(GeometryError):
    """Three points that must span a triangle are collinear within the floor."""


class Parallel(GeometryError):
    """Two lines that must meet are parallel within the floor."""


class ConcentricCircles(GeometryError):
    """Two circles share a center, so no radical axis / unique meet exists."""


class DegenerateAngleWarning(UserWarning):
    """Bisector of a straight angle: direction fixed perpendicular to the rays."""


# ---------------------------------------------------------------------------
# value types

# Degeneracy floor, relative to the size of the inputs: coincident points,
# collinear triples, parallel lines and tangencies are decided against it.
FLOOR = 1e-12
# Guard for constructions whose inputs carry roundoff from earlier steps:
# the spread of lines meant to be concurrent, a second intersection
# collapsing onto its origin, a flat anchor triple of a circle fit.
GUARD = 1e-9


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NonFiniteInput(f"non-finite point ({self.x}, {self.y})")

    def __add__(self, other: Point) -> Point:
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Point) -> Point:
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> Point:
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __truediv__(self, k: float) -> Point:
        return Point(self.x / k, self.y / k)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class Line:
    """Implicit line a*x + b*y + c = 0.

    The constructor normalizes so a**2 + b**2 == 1 and fixes the sign so
    a > 0, or a == 0 and b > 0.  `value(p)` is therefore the signed distance
    from p to the line.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise NonFiniteInput(f"non-finite line ({a}, {b}, {c})")
        n = math.hypot(a, b)
        if n == 0.0:
            raise NonFiniteInput("line normal vector is zero")
        a, b, c = a / n, b / n, c / n
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b, c = -a, -b, -c
        # avoid -0.0 so equal lines serialize identically
        a = a + 0.0 if a != 0.0 else 0.0
        b = b + 0.0 if b != 0.0 else 0.0
        c = c + 0.0 if c != 0.0 else 0.0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def value(self, p: Point) -> float:
        """Signed distance from p to the line."""
        return self.a * p.x + self.b * p.y + self.c

    def direction(self) -> Point:
        """A unit vector along the line."""
        return Point(-self.b, self.a)

    def project(self, p: Point) -> Point:
        """Foot of the perpendicular from p."""
        v = self.value(p)
        return Point(p.x - v * self.a, p.y - v * self.b)


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radius) or self.radius < 0:
            raise NonFiniteInput(f"bad radius {self.radius}")


# ---------------------------------------------------------------------------
# small helpers

def dist(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def diameter(points: Sequence[Point]) -> float:
    """Largest pairwise distance; 0.0 for fewer than two points."""
    return max((dist(p, q) for i, p in enumerate(points) for q in points[i + 1:]),
               default=0.0)


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


def perp(v: Point) -> Point:
    """v rotated a quarter turn counterclockwise."""
    return Point(-v.y, v.x)


def _local_scale(*pts: Point) -> float:
    """Magnitude floor used to scale absolute degeneracy thresholds."""
    return max(1.0, *(max(abs(p.x), abs(p.y)) for p in pts))


def signed_area(p: Point, q: Point, r: Point) -> float:
    """Twice-signed-area convention: positive when p, q, r turn counterclockwise."""
    # the cross product of q - p and r - p in bare floats, as in
    # circumcircle: Point temporaries would dominate this hot call
    return ((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)) / 2.0


# ---------------------------------------------------------------------------
# constructions

def line_through(p: Point, q: Point) -> Line:
    """The unique line through two distinct points."""
    if dist(p, q) <= FLOOR * _local_scale(p, q):
        raise CoincidentPoints(f"line through coincident points {p} and {q}")
    d = q - p
    # normal (dy, -dx); Line.__post_init__ normalizes and fixes the sign
    return Line(d.y, -d.x, -(d.y * p.x - d.x * p.y))


def circumcircle(p: Point, q: Point, r: Point) -> Circle:
    """Circle through three non-collinear points."""
    diam = max(dist(p, q), dist(q, r), dist(r, p))
    # b = q - p and c = r - p as bare floats: Point temporaries would
    # dominate the cost of this call, which every circle construction pays
    bx, by = q.x - p.x, q.y - p.y
    cx, cy = r.x - p.x, r.y - p.y
    cross = bx * cy - by * cx
    if abs(cross / 2.0) <= FLOOR * diam * diam:
        raise CollinearPoints(f"circumcircle of collinear points {p}, {q}, {r}")
    d = 2.0 * cross
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    center = Point(p.x + ux, p.y + uy)
    return Circle(center, math.hypot(ux, uy))


def rotate(p: Point, center: Point, angle: float) -> Point:
    """p rotated about center by angle radians (counterclockwise)."""
    if not math.isfinite(angle):
        raise NonFiniteInput(f"non-finite angle {angle}")
    ca, sa = math.cos(angle), math.sin(angle)
    v = p - center
    return Point(center.x + ca * v.x - sa * v.y,
                 center.y + sa * v.x + ca * v.y)


def reflect_point(p: Point, through: Point) -> Point:
    """Point reflection (half-turn) of p through the given center."""
    return Point(2.0 * through.x - p.x, 2.0 * through.y - p.y)


def reflect_line(p: Point, line: Line) -> Point:
    """Mirror image of p across the line."""
    v = line.value(p)
    return Point(p.x - 2.0 * v * line.a, p.y - 2.0 * v * line.b)


# ---------------------------------------------------------------------------
# intersections

def intersect(a: Line | Circle, b: Line | Circle) -> list[Point]:
    """All intersection points of two lines/circles, sorted by (x, y).

    A line pair yields one point or raises Parallel.  Tangency (discriminant
    within the floor of zero) yields a single point; a clearly negative
    discriminant yields the empty list.  Concentric circles of different
    radii yield the empty list; identical circles raise ConcentricCircles.
    """
    if isinstance(a, Line) and isinstance(b, Line):
        return [_intersect_lines(a, b)]
    if isinstance(a, Line) and isinstance(b, Circle):
        return _intersect_line_circle(a, b)
    if isinstance(a, Circle) and isinstance(b, Line):
        return _intersect_line_circle(b, a)
    if isinstance(a, Circle) and isinstance(b, Circle):
        return _intersect_circles(a, b)
    raise TypeError(f"cannot intersect {type(a).__name__} with {type(b).__name__}")


def _intersect_lines(l1: Line, l2: Line) -> Point:
    # both normals are unit vectors, so the cross term is sin of the angle
    den = l1.a * l2.b - l2.a * l1.b
    if abs(den) <= FLOOR:
        raise Parallel(f"parallel lines {l1} and {l2}")
    x = (l1.b * l2.c - l2.b * l1.c) / den
    y = (l2.a * l1.c - l1.a * l2.c) / den
    return Point(x, y)


def least_squares_meet(lines: Sequence[Line], floor: float) -> Point:
    """The point minimizing the summed squared distances to the lines.

    Solves the 2x2 normal equations (the normals are unit vectors); raises
    Parallel when their determinant is within `floor` of zero.
    """
    saa = sum(l.a * l.a for l in lines)
    sab = sum(l.a * l.b for l in lines)
    sbb = sum(l.b * l.b for l in lines)
    sac = sum(l.a * l.c for l in lines)
    sbc = sum(l.b * l.c for l in lines)
    det = saa * sbb - sab * sab
    if abs(det) <= floor:
        raise Parallel("lines form a near-parallel pencil")
    return Point((sab * sbc - sbb * sac) / det,
                 (sab * sac - saa * sbc) / det)


def _intersect_line_circle(line: Line, circle: Circle) -> list[Point]:
    s = line.value(circle.center)
    disc = circle.radius * circle.radius - s * s
    floor = FLOOR * max(circle.radius * circle.radius, 1e-300)
    if disc < -floor:
        return []
    foot = Point(circle.center.x - s * line.a, circle.center.y - s * line.b)
    if disc <= floor:
        return [foot]
    h = math.sqrt(disc)
    d = line.direction()
    pts = [Point(foot.x - h * d.x, foot.y - h * d.y),
           Point(foot.x + h * d.x, foot.y + h * d.y)]
    return sorted(pts, key=lambda p: (p.x, p.y))


def _intersect_circles(c1: Circle, c2: Circle) -> list[Point]:
    d = dist(c1.center, c2.center)
    scale = max(c1.radius, c2.radius, 1e-300)
    if d <= FLOOR * _local_scale(c1.center, c2.center):
        if abs(c1.radius - c2.radius) <= FLOOR * scale:
            raise ConcentricCircles("identical circles meet everywhere")
        return []  # concentric, distinct radii: no intersection
    u = (c2.center - c1.center) / d
    along = (d * d + c1.radius * c1.radius - c2.radius * c2.radius) / (2.0 * d)
    disc = c1.radius * c1.radius - along * along
    floor = FLOOR * scale * scale
    if disc < -floor:
        return []
    foot = c1.center + along * u
    if disc <= floor:
        return [foot]
    h = math.sqrt(disc)
    n = perp(u)
    pts = [Point(foot.x - h * n.x, foot.y - h * n.y),
           Point(foot.x + h * n.x, foot.y + h * n.y)]
    return sorted(pts, key=lambda p: (p.x, p.y))


# ---------------------------------------------------------------------------
# derived constructions

def angle_bisector(vertex: Point, toward1: Point, toward2: Point) -> Line:
    """Internal bisector of the angle at `vertex` between the two rays.

    For a straight angle the direction is ambiguous; the perpendicular to
    the rays is used and a DegenerateAngleWarning is emitted.
    """
    scale = _local_scale(vertex, toward1, toward2)
    d1 = dist(vertex, toward1)
    d2 = dist(vertex, toward2)
    if min(d1, d2) <= FLOOR * scale:
        raise CoincidentPoints("bisector ray endpoint coincides with the vertex")
    # unit rays u1, u2 and their sum s as bare floats, for speed as in
    # circumcircle; the normal of the bisector is perp(s) = (-sy, sx)
    u1x, u1y = (toward1.x - vertex.x) / d1, (toward1.y - vertex.y) / d1
    u2x, u2y = (toward2.x - vertex.x) / d2, (toward2.y - vertex.y) / d2
    sx, sy = u1x + u2x, u1y + u2y
    if math.hypot(sx, sy) <= FLOOR:
        warnings.warn("straight angle: bisector direction set perpendicular "
                      "to the rays", DegenerateAngleWarning, stacklevel=2)
        sx, sy = -u1y, u1x
    return Line(-sy, sx, -(-sy * vertex.x + sx * vertex.y))


def radical_axis(c1: Circle, c2: Circle) -> Line:
    """Locus of points with equal power w.r.t. both circles."""
    scale = max(_local_scale(c1.center, c2.center), c1.radius, c2.radius)
    if dist(c1.center, c2.center) <= FLOOR * scale:
        raise ConcentricCircles("radical axis of concentric circles")
    a = 2.0 * (c2.center.x - c1.center.x)
    b = 2.0 * (c2.center.y - c1.center.y)
    c = ((c1.center.x ** 2 + c1.center.y ** 2 - c1.radius ** 2)
         - (c2.center.x ** 2 + c2.center.y ** 2 - c2.radius ** 2))
    return Line(a, b, c)
