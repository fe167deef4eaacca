"""Exact-value and property tests for the geometric primitives."""

import math
import random
import struct

import pytest

from geodeform.core import (
    Circle,
    CoincidentPoints,
    CollinearPoints,
    ConcentricCircles,
    Line,
    NonFiniteInput,
    Parallel,
    Point,
    angle_bisector,
    circumcircle,
    dist,
    intersect,
    line_circle_meets,
    line_through,
    midpoint,
    perp,
    radical_axis,
    reflect_line,
    reflect_point,
    rotate,
    signed_area,
)


def close(p: Point, q: Point, tol: float = 1e-12) -> bool:
    return dist(p, q) <= tol


def power(circle: Circle, p: Point) -> float:
    """Power of the point: |p - center|**2 - r**2 (zero on the circle)."""
    dx, dy = p.x - circle.center.x, p.y - circle.center.y
    return dx * dx + dy * dy - circle.radius * circle.radius


def foot(line: Line, p: Point) -> Point:
    """The foot of the perpendicular from p to the line."""
    v = line.value(p)
    return Point(p.x - v * line.a, p.y - v * line.b)


def test_point_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        Point(float("nan"), 0.0)
    with pytest.raises(NonFiniteInput):
        Point(0.0, float("inf"))


def test_midpoint_is_coordinate_average():
    m = midpoint(Point(3.0, 1.0), Point(-1.0, 5.0))
    assert m == Point(1.0, 3.0)


def test_reflect_point_fixed_values():
    assert reflect_point(Point(3.0, 1.0), Point(1.0, 1.0)) == Point(-1.0, 1.0)


def test_reflect_line_fixed_values():
    x_axis = Line(0.0, 1.0, 0.0)
    assert reflect_line(Point(0.0, 2.0), x_axis) == Point(0.0, -2.0)


def test_rotate_quarter_turn():
    r = rotate(Point(1.0, 0.0), Point(0.0, 0.0), math.pi / 2.0)
    assert close(r, Point(0.0, 1.0), 1e-15)


def test_signed_area_orientation():
    assert signed_area(Point(0, 0), Point(1, 0), Point(0, 1)) == 0.5
    assert signed_area(Point(0, 0), Point(0, 1), Point(1, 0)) == -0.5


def test_signed_area_matches_point_arithmetic_bit_for_bit():
    # the cross product of q - p and r - p over Point temporaries, halved
    def reference(p: Point, q: Point, r: Point) -> float:
        u, v = q - p, r - p
        return (u.x * v.y - u.y * v.x) / 2.0

    rng = random.Random(91)
    coords = [0.0, -0.0, 1.0, -1.0, 1e-300, -3e-200, 7e150, -2.5e180]
    for _ in range(3000):
        pts = []
        for _ in range(3):
            xy = []
            for _ in range(2):
                pick = rng.random()
                if pick < 0.25:
                    xy.append(rng.choice(coords))
                elif pick < 0.5:
                    xy.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-200, 150))
                else:
                    xy.append(rng.uniform(-10, 10))
            pts.append(Point(*xy))
        # the bits, so that -0.0, inf and the nan of inf - inf compare too
        assert (struct.pack("<d", signed_area(*pts))
                == struct.pack("<d", reference(*pts)))


def test_circumcircle_collinear_raises():
    with pytest.raises(CollinearPoints):
        circumcircle(Point(0, 0), Point(1, 0), Point(2, 0))


def test_circumcircle_against_least_squares_fit():
    """Cross-check center and radius with an algebraic least-squares circle
    fit (Kasa form: minimize sum of (x^2 + y^2 + D x + E y + F)^2, which is
    linear in D, E, F and exact when the points really are concyclic).
    """
    import numpy as np

    pts = [Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0)]
    circ = circumcircle(*pts)

    a = np.array([[p.x, p.y, 1.0] for p in pts])
    b = np.array([-(p.x * p.x + p.y * p.y) for p in pts])
    d, e, f = np.linalg.solve(a, b)
    cx, cy = -d / 2.0, -e / 2.0
    r = math.sqrt(cx * cx + cy * cy - f)

    assert abs(circ.center.x - cx) < 1e-12
    assert abs(circ.center.y - cy) < 1e-12
    assert abs(circ.radius - r) < 1e-12


def test_circumcircle_equidistance_random():
    rng = random.Random(8421)
    for _ in range(300):
        pts = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        if abs(signed_area(*pts)) < 1e-3:
            continue
        circ = circumcircle(*pts)
        dists = [dist(p, circ.center) for p in pts]
        spread = max(dists) - min(dists)
        assert spread <= 1e-9 * circ.radius, f"not equidistant: {pts}"


def test_line_through_contains_endpoints():
    rng = random.Random(99)
    for _ in range(200):
        p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        q = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if dist(p, q) < 1e-6:
            continue
        ln = line_through(p, q)
        assert abs(ln.value(p)) < 1e-12
        assert abs(ln.value(q)) < 1e-12


def test_line_through_coincident_raises():
    with pytest.raises(CoincidentPoints):
        line_through(Point(1, 2), Point(1, 2))


def test_line_normalization_canonical():
    # same geometric line from scaled coefficients
    assert Line(2.0, 0.0, -4.0) == Line(1.0, 0.0, -2.0)
    assert Line(-1.0, 0.0, 2.0) == Line(1.0, 0.0, -2.0)


def test_intersect_line_circle_fixed():
    x_axis = Line(0.0, 1.0, 0.0)
    unit = Circle(Point(0.0, 0.0), 1.0)
    miss, touch, first, second = line_circle_meets(x_axis, unit)
    assert not miss and not touch
    assert close(first, Point(-1.0, 0.0), 1e-15)
    assert close(second, Point(1.0, 0.0), 1e-15)
    assert line_circle_meets(Line(1.0, 0.0, -2.0), unit)[0]


def test_intersect_parallel_lines_raises():
    with pytest.raises(Parallel):
        intersect(Line(1.0, 0.0, 0.0), Line(1.0, 0.0, -1.0))


def test_angle_bisector_diagonal():
    bis = angle_bisector(Point(0, 0), Point(1, 0), Point(0, 1))
    assert abs(bis.value(Point(0, 0))) < 1e-15
    d = bis.direction()
    s = 1.0 / math.sqrt(2.0)
    assert min(abs(d.x - s) + abs(d.y - s), abs(d.x + s) + abs(d.y + s)) < 1e-12


def test_angle_bisector_equidistant_from_rays():
    rng = random.Random(5)
    for _ in range(200):
        v = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if dist(v, a) < 1e-3 or dist(v, b) < 1e-3:
            continue
        bis = angle_bisector(v, a, b)
        # any point of the bisector is equidistant from the two ray lines
        probe = foot(bis, Point(v.x + 1.0, v.y + 1.0))
        da = abs(line_through(v, a).value(probe))
        db = abs(line_through(v, b).value(probe))
        assert abs(da - db) < 1e-9


def test_concentric_radical_axis_raises():
    with pytest.raises(ConcentricCircles):
        radical_axis(Circle(Point(0, 0), 1.0), Circle(Point(0, 0), 2.0))


def test_radical_axis_equal_power():
    c1 = Circle(Point(0.0, 0.0), 1.0)
    c2 = Circle(Point(3.0, 1.0), 2.0)
    ax = radical_axis(c1, c2)
    for t in (-2.0, 0.0, 1.5, 4.0):
        p = foot(ax, Point(t, t))
        assert abs(power(c1, p) - power(c2, p)) < 1e-9


def test_reflections_are_involutions():
    rng = random.Random(77)
    for _ in range(200):
        p = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        c = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        assert close(reflect_point(reflect_point(p, c), c), p, 1e-12)
        a = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        b = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if dist(a, b) < 1e-3:
            continue
        ln = line_through(a, b)
        assert close(reflect_line(reflect_line(p, ln), ln), p, 1e-12)


def test_rotation_preserves_distances():
    rng = random.Random(31337)
    for _ in range(200):
        p = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        q = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        c = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        t = rng.uniform(-math.pi, math.pi)
        d0 = dist(p, q)
        d1 = dist(rotate(p, c, t), rotate(q, c, t))
        assert abs(d1 - d0) <= 1e-12 * max(1.0, d0)


def test_perp_rotates_left():
    assert perp(Point(1.0, 0.0)) == Point(0.0, 1.0)
    assert perp(Point(0.0, 1.0)) == Point(-1.0, 0.0)
