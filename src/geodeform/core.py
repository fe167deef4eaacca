"""Plane-geometry primitives: points, lines, circles and the exact
constructions everything else is built from.

All operations are pure functions over immutable values.  Degenerate
inputs raise a :class:`GeometryError` subclass; near-degenerate cases are
decided with the fixed relative floor FLOOR scaled by the size of the
inputs, so the whole module behaves identically under translation,
rotation and uniform scaling of its inputs.  The degeneracy guards are
properties of double-precision arithmetic, not of what a caller accepts
as a theorem: no construction takes a tolerance.

Every construction is written once over coordinates that are floats or
float64 arrays with one row per sample, so a batch of deformed figures
runs through the same code as one figure.  Every step of `hypot`, `sqrt`
and `pow2_near` is exact or correctly rounded on both, so a row has the
bits of the float; a branch on a value goes through `where`, and every
degeneracy test goes through `guard`: on floats it raises, on arrays it
marks the failing rows in the enclosing `failures()` block and the other
rows go on.

This module never imports numpy (see `array_module`), so the float path
of `run`, `render` and `shapes` starts without it.
"""

from __future__ import annotations

import math
import sys
import warnings
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GeometryError",
    "NonFiniteInput",
    "CoincidentPoints",
    "CollinearPoints",
    "Parallel",
    "DegenerateAngleWarning",
    "FLOOR",
    "GUARD",
    "array_module",
    "Failures",
    "failures",
    "only_rows",
    "guard",
    "parts",
    "shared",
    "where",
    "maximum",
    "minimum",
    "hypot",
    "sqrt",
    "pow2_near",
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
    "line_circle_meets",
    "least_squares_meet",
    "angle_bisector",
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


class DegenerateAngleWarning(UserWarning):
    """Bisector of a straight angle: direction fixed perpendicular to the rays."""


# ---------------------------------------------------------------------------
# number types: floats, or float64 arrays with one row per sample

# numpy and its array type, bound when `array_module` first meets an
# array: a dispatch below tests for a float, then for _ARRAY, and asks
# `array_module` only about a value that is neither
_numpy = _ARRAY = None


def array_module(x):
    """numpy when x is a float64 array of rows, else None.

    It finds numpy among the loaded modules and never imports it: an
    array exists only once numpy is loaded, by the batched sweep or by
    whoever made the array.  The float path never asks.
    """
    global _numpy, _ARRAY
    np = sys.modules.get("numpy")
    if np is None or not isinstance(x, np.ndarray):
        return None
    _numpy, _ARRAY = np, np.ndarray
    return np


# the types of plain numbers: `maximum` and `minimum` of these need no
# array test
_NUMBERS = frozenset((float, int, bool))

# the lengths inside which neither square of sqrt(x*x + y*y) overflows or
# loses bits to subnormals
_SHORTEST, _LONGEST = 2.0 ** -450, 2.0 ** 450
_SQRT_HALF = math.sqrt(0.5)
# the least float whose nearest power of two, 2^1024, overflows
_POW2_TOP = math.ldexp(_SQRT_HALF, 1024)


def sqrt(x):
    if type(x) is float or type(x) is not _ARRAY and not array_module(x):
        return math.sqrt(x)
    return _numpy.sqrt(x)


def _exponents(x) -> tuple:
    """frexp and ldexp for x: numpy's on rows, math's on floats.  Both
    are exact, or correctly rounded where ldexp leaves the normal range."""
    if type(x) is float or type(x) is not _ARRAY and not array_module(x):
        return math.frexp, math.ldexp
    return _numpy.frexp, _numpy.ldexp


def hypot(x, y):
    """The length sqrt(x*x + y*y).

    +, * and sqrt are correctly rounded on floats and on rows alike, so
    both paths give the same bits without a per-row loop.  Outside
    2^-450..2^450 the length is taken of (x, y) scaled by a power of two:
    the same bits wherever the plain form neither over- nor underflows,
    and inf, not an error, where the length overflows.
    """
    s = x * x + y * y
    if type(s) is float or type(s) is not _ARRAY and not array_module(s):
        h = math.sqrt(s)
        return h if _SHORTEST <= h <= _LONGEST else _rescaled_hypot(x, y)
    h = _numpy.sqrt(s)
    if _SHORTEST <= h.min() and h.max() <= _LONGEST:
        return h
    # an exact (0, 0) row is in range: both forms give it +0.0
    inside = (h >= _SHORTEST) & (h <= _LONGEST) | (x == 0.0) & (y == 0.0)
    if inside.all():
        return h
    return _numpy.where(inside, h, _rescaled_hypot(x, y))


def _rescaled_hypot(x, y):
    big = maximum(abs(x), abs(y))
    frexp, ldexp = _exponents(big)
    _, e = frexp(big)
    x, y = ldexp(x, -e), ldexp(y, -e)
    # 2^e as two factors that never overflow, so the one rounding is the
    # product's: inf where ldexp(h, e) would raise on floats
    half = e // 2
    return sqrt(x * x + y * y) * ldexp(1.0, half) * ldexp(1.0, e - half)


def pow2_near(x):
    """The power of two nearest to x on a log scale: for x = m * 2^e with
    1/2 <= m < 1, 2^e when m >= sqrt(1/2) and 2^(e-1) below.  NaN where x
    is not positive or that power overflows."""
    frexp, ldexp = _exponents(x)
    m, e = frexp(x)
    # ldexp keeps a NaN as it is, on floats for any exponent
    return ldexp(where((x > 0.0) & (x < _POW2_TOP), 1.0, math.nan),
                 e - (m < _SQRT_HALF))


def where(cond, a, b):
    """a where cond holds, else b: per row when cond is an array, for
    numbers and points alike."""
    if (type(cond) is bool
            or type(cond) is not _ARRAY and not array_module(cond)):
        return a if cond else b
    if isinstance(a, Point):
        return Point(_numpy.where(cond, a.x, b.x),
                     _numpy.where(cond, a.y, b.y))
    return _numpy.where(cond, a, b)


def maximum(*values):
    """The builtin max of the values, per row: a later value wins only
    when it is strictly greater, so a NaN first value stays NaN and a NaN
    later value is passed over.

    On rows the later values fold with fmax, which passes over a NaN,
    then one maximum against the first value keeps its NaN: k numpy calls
    for k values.  That is the builtin's result wherever +0.0 and -0.0 do
    not tie, so values on rows must not be -0.0: every caller passes
    lengths, squares, absolute values, radii or a positive literal."""
    if _NUMBERS.issuperset(map(type, values)):
        return max(values)
    np = _numpy or sys.modules["numpy"]
    best = values[0]
    for v in values[1:]:
        best = np.fmax(best, v)
    return np.maximum(best, values[0])


def minimum(*values):
    """The builtin min of the values, per row, on the domain of
    `maximum`: NaN where the first value is NaN, later NaNs passed over,
    folded as `maximum` folds."""
    if _NUMBERS.issuperset(map(type, values)):
        return min(values)
    np = _numpy or sys.modules["numpy"]
    best = values[0]
    for v in values[1:]:
        best = np.fmin(best, v)
    return np.minimum(best, values[0])


@dataclass
class Failures:
    """The rows whose guards failed inside a `failures()` block: False
    until a guard runs on rows, and always on floats, where guards raise.
    A guard adds its mask, which no one writes to after, to `masks`, and
    `rows` ORs them in one call: when read, and at every 64th mask."""

    masks: list[np.ndarray] = field(default_factory=list)

    @property
    def rows(self) -> bool | np.ndarray:
        masks = self.masks
        if len(masks) > 1:
            if len({m.shape for m in masks}) > 1:
                masks = _numpy.broadcast_arrays(*masks)
            self.masks = [_numpy.logical_or.reduce(masks)]
        return self.masks[0] if self.masks else False


# (the rows that are running, the Failures that collects their guards);
# `only_rows` narrows the first, `failures` replaces the second
_SCOPE: ContextVar[tuple[bool | np.ndarray, Failures | None]] = ContextVar(
    "geodeform_rows", default=(True, None))


class failures:
    """`with failures() as failed:` collects in `failed.rows` the rows
    whose guards fail inside the block, instead of passing them to the
    enclosing block: the `try` of the batch path."""

    def __enter__(self) -> Failures:
        collected = Failures()
        self._token = _SCOPE.set((_SCOPE.get()[0], collected))
        return collected

    def __exit__(self, *exc_info) -> None:
        _SCOPE.reset(self._token)


class only_rows:
    """`with only_rows(mask) as rows:` runs the block on the rows of
    `mask` that are running: guards inside mark failures in those rows
    alone.  `rows` is the narrowed mask."""

    def __init__(self, mask: np.ndarray) -> None:
        self._mask = mask

    def __enter__(self) -> np.ndarray:
        running, collected = _SCOPE.get()
        rows = self._mask & running
        self._token = _SCOPE.set((rows, collected))
        return rows

    def __exit__(self, *exc_info) -> None:
        _SCOPE.reset(self._token)


def guard(failed, error: type[GeometryError], message: str, *args) -> None:
    """A degeneracy test.  On floats, raise error(message.format(*args))
    when `failed` holds.  On rows, mark the running rows where it holds
    failed in the enclosing `failures()` block (outside any, raise if
    one of them fails)."""
    if type(failed) is not bool and (type(failed) is _ARRAY
                                     or array_module(failed)):
        running, collected = _SCOPE.get()
        failed = failed if running is True else failed & running
        if collected is not None:
            collected.masks.append(failed)
            if len(collected.masks) == 64:
                collected.masks = [collected.rows]
            return
        failed = failed.any()
    if failed:
        raise error(message.format(*args))


# the parts of the open `parts()` block: (part, its points) by build and
# the ids of its points; None outside any block
_PARTS: ContextVar[dict[tuple, tuple] | None] = ContextVar(
    "geodeform_parts", default=None)


class parts:
    """`with parts():` lets the constructions inside share the parts of
    one figure: the circles, triangle checks and apex sides that several
    of them build on the same points are built once.  Each `parts()`
    starts empty, and entering one again goes on with its parts."""

    def __init__(self) -> None:
        self._built: dict[tuple, tuple] = {}

    def __enter__(self) -> None:
        self._token = _PARTS.set(self._built)

    def __exit__(self, *exc_info) -> None:
        _PARTS.reset(self._token)


def shared(build, *points):
    """`build(*points)`, built once per build and point objects inside a
    `parts()` block and kept with its points, so no id of theirs is reused
    while the block is open; a `dist` once for both orders, which give the
    same bits.  On floats a failed part raises and is not kept."""
    built = _PARTS.get()
    if built is None:
        return build(*points)
    key = (build, *map(id, points))
    if build is dist and key[2] < key[1]:
        key = (dist, key[2], key[1])
    held = built.get(key)
    if held is None:
        held = built[key] = (build(*points), points)
    return held[0]


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
        x, y = self.x, self.y
        # x - x is 0.0 for a finite x and NaN otherwise, on floats and rows
        # alike; no call on a finite float point, which every point is
        failed = x - x != y - y
        if failed is not False:
            guard(failed, NonFiniteInput, "non-finite point ({}, {})", x, y)

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
        return hypot(self.x, self.y)


@dataclass(frozen=True)
class Line:
    """Implicit line a*x + b*y + c = 0.

    The constructor normalizes so a**2 + b**2 == 1, keeping the sign it is
    given: (a, b, c) and (-a, -b, -c) are the same line with opposite
    orientations.  `value(p)` is therefore the signed distance from p to
    the line, its sign that of the orientation.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        # the guards of Point's kind, without a call on a valid float line:
        # every line pays them
        failed = (a - a) + (b - b) != c - c
        if failed is not False:
            guard(failed, NonFiniteInput,
                  "non-finite line ({}, {}, {})", a, b, c)
        n = hypot(a, b)
        failed = n == 0.0
        if failed is not False:
            guard(failed, NonFiniteInput, "line normal vector is zero")
        object.__setattr__(self, "a", a / n)
        object.__setattr__(self, "b", b / n)
        object.__setattr__(self, "c", c / n)

    def value(self, p: Point) -> float:
        """Signed distance from p to the line."""
        return self.a * p.x + self.b * p.y + self.c

    def direction(self) -> Point:
        """A unit vector along the line."""
        return Point(-self.b, self.a)


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self) -> None:
        r = self.radius
        failed = (r - r != 0.0) | (r < 0)
        if failed is not False:
            guard(failed, NonFiniteInput, "bad radius {}", r)


# ---------------------------------------------------------------------------
# small helpers

def dist(p: Point, q: Point) -> float:
    return hypot(p.x - q.x, p.y - q.y)


def diameter(points: Sequence[Point]) -> float:
    """Largest pairwise distance; 0.0 for fewer than two points."""
    if len(points) < 2:
        return 0.0
    xy = [(p.x, p.y) for p in points]
    squares = []
    for i, (x, y) in enumerate(xy, 1):
        for u, v in xy[i:]:
            dx, dy = x - u, y - v
            squares.append(dx * dx + dy * dy)
    return _longest(points, squares)


def _longest(points: Sequence[Point], squares: list):
    """`diameter` of `points` from the squared distances of its pairs, in
    its order."""
    # sqrt is correctly rounded and monotone, so in 2^-449..2^450 this is
    # the largest `dist`, per row too: a pair that `dist` rescales is shorter
    # (every square is a number until a point on rows meets `array_module`)
    h = sqrt(max(squares) if _ARRAY is None else maximum(*squares))
    if type(h) is float:
        if 2.0 * _SHORTEST <= h <= _LONGEST:
            return h
    elif 2.0 * _SHORTEST <= h.min() and h.max() <= _LONGEST:
        return h
    elif h.max() <= _LONGEST:
        # a row of coincident points, every difference exactly 0, is 0 as
        # `dist` makes it: a row of points too close is not.  No row's h is
        # NaN here, as it is where equal coordinates are infinite, so equal
        # coordinates differ by exactly 0
        x, y = points[0].x, points[0].y
        apart = False
        for p in points[1:]:
            apart = apart | (p.x != x) | (p.y != y)
        if ((h >= 2.0 * _SHORTEST) | (h == 0.0) & ~apart).all():
            return h
    return maximum(*(dist(p, q)
                     for i, p in enumerate(points) for q in points[i + 1:]))


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


def perp(v: Point) -> Point:
    """v rotated a quarter turn counterclockwise."""
    return Point(-v.y, v.x)


def _local_scale(*pts: Point) -> float:
    """The largest coordinate magnitude of the points: the size that
    relative degeneracy thresholds are scaled by."""
    return maximum(*[abs(c) for p in pts for c in (p.x, p.y)])


def signed_area(p: Point, q: Point, r: Point) -> float:
    """Twice-signed-area convention: positive when p, q, r turn counterclockwise."""
    # the cross product of q - p and r - p in bare floats, as in
    # circumcircle: Point temporaries would dominate this hot call
    return ((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)) / 2.0


# ---------------------------------------------------------------------------
# constructions

def line_through(p: Point, q: Point) -> Line:
    """The unique line through two distinct points."""
    guard(dist(p, q) <= FLOOR * _local_scale(p, q), CoincidentPoints,
          "line through coincident points {} and {}", p, q)
    d = q - p
    # normal (dy, -dx), so the direction runs from p to q;
    # Line.__post_init__ normalizes it
    return Line(d.y, -d.x, -(d.y * p.x - d.x * p.y))


def circumcircle(p: Point, q: Point, r: Point) -> Circle:
    """Circle through three non-collinear points."""
    # b = q - p, c = r - p and a = r - q as bare floats: Point temporaries
    # would dominate the cost of this call, which every circle
    # construction pays
    bx, by = q.x - p.x, q.y - p.y
    cx, cy = r.x - p.x, r.y - p.y
    ax, ay = r.x - q.x, r.y - q.y
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    # the longest side, from the squares the center needs as well
    diam = _longest((p, q, r), [b2, c2, ax * ax + ay * ay])
    cross = bx * cy - by * cx
    guard(abs(cross / 2.0) <= FLOOR * diam * diam, CollinearPoints,
          "circumcircle of collinear points {}, {}, {}", p, q, r)
    d = 2.0 * cross
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    center = Point(p.x + ux, p.y + uy)
    return Circle(center, hypot(ux, uy))


def rotate(p: Point, center: Point, angle: float) -> Point:
    """p rotated about center by angle radians (counterclockwise)."""
    # the angle is a float: a program's param, the same for every row
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

def intersect(l1: Line, l2: Line) -> Point:
    """The meet of two lines; raises Parallel when they are parallel
    within the floor."""
    den = _cross(l1, l2)
    guard(abs(den) <= FLOOR, Parallel, "parallel lines {} and {}", l1, l2)
    return _meet(l1, l2, den)


def _cross(l1: Line, l2: Line) -> float:
    """The cross term of two lines' normals: both are unit vectors, so it
    is the sine of the angle between the lines."""
    return l1.a * l2.b - l2.a * l1.b


def _meet(l1: Line, l2: Line, den: float) -> Point:
    """The meet of two lines whose `_cross` is `den`, which the caller has
    found apart from zero."""
    return Point((l1.b * l2.c - l2.b * l1.c) / den,
                 (l2.a * l1.c - l1.a * l2.c) / den)


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
    guard(abs(det) <= floor, Parallel, "lines form a near-parallel pencil")
    return Point((sab * sbc - sbb * sac) / det,
                 (sab * sac - saa * sbc) / det)


def line_circle_meets(line: Line, circle: Circle
                      ) -> tuple[object, object, Point, Point]:
    """The meets of a line and a circle as (miss, touch, first, second).

    `miss` holds when the discriminant is clearly negative and `touch`
    when it is within the floor of zero (or below), where first and
    second are both the foot of the perpendicular from the center;
    otherwise first is the meet behind the foot along the line's
    direction and second the one ahead.  Per row on rows.
    """
    s = line.value(circle.center)
    disc = circle.radius * circle.radius - s * s
    floor = FLOOR * maximum(circle.radius * circle.radius, 1e-300)
    foot = Point(circle.center.x - s * line.a, circle.center.y - s * line.b)
    touch = disc <= floor
    h = sqrt(where(touch, 0.0, disc))
    d = line.direction()
    return (disc < -floor, touch,
            where(touch, foot, Point(foot.x - h * d.x, foot.y - h * d.y)),
            where(touch, foot, Point(foot.x + h * d.x, foot.y + h * d.y)))


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
    guard(minimum(d1, d2) <= FLOOR * scale, CoincidentPoints,
          "bisector ray endpoint coincides with the vertex")
    # unit rays u1, u2 and their sum s as bare floats, for speed as in
    # circumcircle; the normal of the bisector is perp(s) = (-sy, sx)
    u1x, u1y = (toward1.x - vertex.x) / d1, (toward1.y - vertex.y) / d1
    u2x, u2y = (toward2.x - vertex.x) / d2, (toward2.y - vertex.y) / d2
    sx, sy = u1x + u2x, u1y + u2y
    straight = hypot(sx, sy) <= FLOOR
    if straight if type(straight) is bool else straight.any():
        warnings.warn("straight angle: bisector direction set perpendicular "
                      "to the rays", DegenerateAngleWarning, stacklevel=2)
    sx, sy = where(straight, -u1y, sx), where(straight, u1x, sy)
    return Line(-sy, sx, -(-sy * vertex.x + sx * vertex.y))

