"""Triangle centers and apex constructions."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodeform.centers import (
    CenterKind,
    IllConditioned,
    Orientation,
    _concurrent_point,
    _require_triangle,
    equilateral_apex,
    right_isosceles_apex,
    triangle_center,
)
from geodeform.core import (
    FLOOR,
    CoincidentPoints,
    CollinearPoints,
    GeometryError,
    Point,
    _local_scale,
    circumcircle,
    dist,
    failures,
    guard,
    line_through,
    midpoint,
    parts,
    perp,
    signed_area,
    where,
)
from fermat_oracle import ObtuseFermatWarning, fermat_oracle

S3 = math.sqrt(3.0)


def random_triangle(rng, lo=-4.0, hi=4.0, min_area=0.3):
    while True:
        pts = [Point(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(3)]
        a, b, c = pts
        area = abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)) / 2
        if area > min_area:
            return pts


def max_angle(a, b, c):
    out = 0.0
    for v, p, q in ((a, b, c), (b, c, a), (c, a, b)):
        u, w = p - v, q - v
        cosang = (u.x * w.x + u.y * w.y) / (u.norm() * w.norm())
        out = max(out, math.acos(max(-1.0, min(1.0, cosang))))
    return out


def test_centroid_fixed_value():
    g = triangle_center(CenterKind.X2, Point(0, 0), Point(3, 0), Point(0, 3))
    assert g == Point(1.0, 1.0)


def test_degenerate_triangle_rejected():
    with pytest.raises(CollinearPoints):
        triangle_center(CenterKind.X2, Point(0, 0), Point(1, 0), Point(2, 0))


def test_circumcenter_equidistant():
    rng = random.Random(12)
    for _ in range(100):
        a, b, c = random_triangle(rng)
        o = triangle_center(CenterKind.X3, a, b, c)
        d1, d2, d3 = dist(o, a), dist(o, b), dist(o, c)
        assert max(d1, d2, d3) - min(d1, d2, d3) < 1e-9


def test_incenter_equidistant_from_sides():
    rng = random.Random(13)
    for _ in range(100):
        a, b, c = random_triangle(rng)
        i = triangle_center(CenterKind.X1, a, b, c)
        ds = [abs(line_through(p, q).value(i))
              for p, q in ((a, b), (b, c), (c, a))]
        assert max(ds) - min(ds) < 1e-9


def test_orthocenter_on_altitudes():
    rng = random.Random(14)
    for _ in range(100):
        a, b, c = random_triangle(rng)
        h = triangle_center(CenterKind.X4, a, b, c)
        for v, p, q in ((a, b, c), (b, c, a), (c, a, b)):
            side = q - p
            hv = h - v
            assert abs(side.x * hv.x + side.y * hv.y) < 1e-8


def test_nine_point_center_is_midpoint_of_euler_segment():
    rng = random.Random(15)
    for _ in range(100):
        a, b, c = random_triangle(rng)
        n = triangle_center(CenterKind.X5, a, b, c)
        o = triangle_center(CenterKind.X3, a, b, c)
        h = triangle_center(CenterKind.X4, a, b, c)
        assert dist(n, midpoint(o, h)) < 1e-12


def test_nine_point_circle_through_side_midpoints():
    a, b, c = Point(0, 0), Point(4, 1), Point(1, 3)
    n = triangle_center(CenterKind.X5, a, b, c)
    r = [dist(n, midpoint(p, q)) for p, q in ((a, b), (b, c), (c, a))]
    assert max(r) - min(r) < 1e-12


def test_equilateral_apex_fixed_values():
    b, c = Point(0.0, 0.0), Point(1.0, 0.0)
    up = equilateral_apex(b, c, Orientation.TOWARD_REFERENCE, Point(0.5, 1.0))
    dn = equilateral_apex(b, c, Orientation.TOWARD_REFERENCE, Point(0.5, -1.0))
    assert dist(up, Point(0.5, S3 / 2.0)) < 1e-15
    assert dist(dn, Point(0.5, -S3 / 2.0)) < 1e-15
    away = equilateral_apex(b, c, Orientation.AWAY_FROM_REFERENCE, Point(0.5, 1.0))
    assert dist(away, dn) < 1e-15


def test_equilateral_apex_side_lengths():
    rng = random.Random(16)
    for _ in range(200):
        b = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        c = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ref = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        base = dist(b, c)
        if base < 0.1 or abs(line_through(b, c).value(ref)) < 0.05 * base:
            continue
        apex = equilateral_apex(b, c, Orientation.TOWARD_REFERENCE, ref)
        assert abs(dist(apex, b) - base) < 1e-12 * max(1.0, base)
        assert abs(dist(apex, c) - base) < 1e-12 * max(1.0, base)
        # toward means same side as the reference point
        assert line_through(b, c).value(apex) * line_through(b, c).value(ref) > 0


def test_right_isosceles_apex_fixed_value():
    apex = right_isosceles_apex(Point(0.0, 0.0), Point(0.0, 1.0),
                                Orientation.TOWARD_REFERENCE, Point(1.0, 0.5))
    assert dist(apex, Point(0.5, 0.5)) < 1e-15


def test_right_isosceles_apex_geometry():
    """Apex sees the base ends at a right angle from equal distances."""
    rng = random.Random(17)
    for _ in range(200):
        e1 = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        e2 = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ref = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        base = dist(e1, e2)
        if base < 0.1 or abs(line_through(e1, e2).value(ref)) < 0.05 * base:
            continue
        apex = right_isosceles_apex(e1, e2, Orientation.TOWARD_REFERENCE, ref)
        u, v = e1 - apex, e2 - apex
        assert abs(u.x * v.x + u.y * v.y) < 1e-12 * base * base
        assert abs(u.norm() - v.norm()) < 1e-12 * base


def test_fermat_point_matches_weiszfeld_oracle():
    p = triangle_center(CenterKind.X13, Point(0, 0), Point(1, 0), Point(0, 1))
    q = fermat_oracle(Point(0, 0), Point(1, 0), Point(0, 1))
    assert dist(p, q) < 1e-6


def test_fermat_point_oracle_agreement_random():
    """Constructive X13 against the iterative geometric median, acute-enough
    triangles only (the constructions agree exactly when every angle is
    below 120 degrees)."""
    rng = random.Random(4242)
    tried = 0
    while tried < 100:
        a, b, c = random_triangle(rng)
        if max_angle(a, b, c) >= math.radians(115.0):
            continue
        tried += 1
        diam = max(dist(a, b), dist(b, c), dist(c, a))
        assert dist(triangle_center(CenterKind.X13, a, b, c),
                    fermat_oracle(a, b, c)) <= 1e-6 * diam


def test_fermat_equal_viewing_angles():
    # from X13 every side of an acute-enough triangle subtends 120 degrees
    a, b, c = Point(0.0, 0.0), Point(3.0, 0.4), Point(1.1, 2.2)
    f = triangle_center(CenterKind.X13, a, b, c)
    for p, q in ((a, b), (b, c), (c, a)):
        u, v = p - f, q - f
        cosang = (u.x * v.x + u.y * v.y) / (u.norm() * v.norm())
        assert abs(cosang + 0.5) < 1e-9


def test_obtuse_oracle_returns_vertex_with_warning():
    a, b, c = Point(0.0, 0.0), Point(10.0, 0.0), Point(5.0, 0.5)
    with pytest.warns(ObtuseFermatWarning):
        f = fermat_oracle(a, b, c)
    assert f == c


def test_second_fermat_is_negative_orientation_twin():
    # X14 of a triangle equals X13 built with inward apexes; both stay
    # distinct for a scalene triangle
    a, b, c = Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 2.0)
    f1 = triangle_center(CenterKind.X13, a, b, c)
    f2 = triangle_center(CenterKind.X14, a, b, c)
    assert dist(f1, f2) > 0.1


def test_equilateral_second_fermat_ill_conditioned():
    a, b, c = Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, S3 / 2.0)
    with pytest.raises(IllConditioned):
        triangle_center(CenterKind.X14, a, b, c)


def test_centers_are_vertex_order_independent():
    import itertools

    a, b, c = Point(0.2, -0.1), Point(3.7, 0.9), Point(1.4, 2.8)
    for kind in CenterKind:
        ref = triangle_center(kind, a, b, c)
        for pa, pb, pc in itertools.permutations((a, b, c)):
            alt = triangle_center(kind, pa, pb, pc)
            assert dist(ref, alt) < 1e-9, kind


def test_x13_on_circumcircle_of_outer_apex():
    # the line from each vertex to the opposite outward apex passes
    # through X13; check incidence for one line explicitly
    a, b, c = Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 2.5)
    f1 = triangle_center(CenterKind.X13, a, b, c)
    apex_a = equilateral_apex(b, c, Orientation.AWAY_FROM_REFERENCE, a)
    assert abs(line_through(a, apex_a).value(f1)) < 1e-9


def test_apex_requires_distinct_base():
    with pytest.raises(CoincidentPoints):
        equilateral_apex(Point(1, 1), Point(1, 1),
                         Orientation.TOWARD_REFERENCE, Point(0, 0))


# ---------------------------------------------------------------------------
# the Fermat points from a run's shared parts against the unshared
# construction, written out here as it stood before the parts were shared:
# every apex guards its own base and builds its own candidates

def _unshared_apex(base1, base2, orientation, reference):
    d = dist(base1, base2)
    guard(d <= FLOOR * _local_scale(base1, base2), CoincidentPoints,
          "equilateral apex on a zero-length base")
    m = midpoint(base1, base2)
    offset = perp(base2 - base1) * (math.sqrt(3.0) / 2.0)
    plus = Point(m.x + offset.x, m.y + offset.y)
    same_side = ((signed_area(base1, base2, plus) < 0.0)
                 == (signed_area(base1, base2, reference) < 0.0))
    keep = same_side == (orientation is Orientation.TOWARD_REFERENCE)
    return Point(where(keep, plus.x, m.x - offset.x),
                 where(keep, plus.y, m.y - offset.y))


def _unshared_fermat(kind, a, b, c):
    diam = _require_triangle(a, b, c)
    orientation = (Orientation.AWAY_FROM_REFERENCE if kind is CenterKind.X13
                   else Orientation.TOWARD_REFERENCE)
    apex_a = _unshared_apex(b, c, orientation, a)
    apex_b = _unshared_apex(c, a, orientation, b)
    apex_c = _unshared_apex(a, b, orientation, c)
    try:
        lines = [line_through(a, apex_a), line_through(b, apex_b),
                 line_through(c, apex_c)]
    except CoincidentPoints as exc:
        raise IllConditioned(f"fermat construction degenerates: {exc}") from exc
    return _concurrent_point(lines, diam)


def _within(block, build, *args):
    """`build(*args)` inside the `parts()` block `block`."""
    with block:
        return build(*args)


# (name, unshared construction, construction in the `parts()` block
# `built`) in the order of example1: A' = eq_apex(B, C, A), then F1 and F2
# of A, B, C, which share the side B C with A' and their check with each
# other
_FERMAT_STEPS = [
    ("eq_apex", lambda a, b, c: _unshared_apex(
        b, c, Orientation.TOWARD_REFERENCE, a),
     lambda a, b, c, built: _within(
         built, equilateral_apex, b, c, Orientation.TOWARD_REFERENCE, a)),
    *((kind.name, lambda a, b, c, kind=kind: _unshared_fermat(kind, a, b, c),
       lambda a, b, c, built, kind=kind: _within(
           built, triangle_center, kind, a, b, c))
      for kind in (CenterKind.X13, CenterKind.X14)),
]


@st.composite
def _near_degenerate_triangle(draw):
    """Vertices a, b, c in a frame translated by up to 2^40 and scaled by
    2^k, |k| <= 300, with c placed near a degeneracy of the triangle:
    within a few FLOOR * scale of a, off the line a b by an area of a few
    FLOOR * |ab|^2, near the equilateral apex on a b (where X14 is
    undefined), or anywhere."""
    unit = st.floats(-1.0, 1.0)
    s = 2.0 ** draw(st.integers(-300, 300))
    far = s * 2.0 ** draw(st.integers(-4, 40))
    tx, ty = draw(unit) * far, draw(unit) * far
    a = Point(tx + s * draw(unit), ty + s * draw(unit))
    b = Point(tx + s * draw(unit), ty + s * draw(unit))
    f, g = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    near = draw(st.sampled_from(["vertex", "line", "equilateral", "none"]))
    if near == "vertex":
        scale = _local_scale(a, b)
        c = Point(a.x + f * FLOOR * scale, a.y + g * FLOOR * scale)
    elif near == "line":
        t, d = draw(st.floats(-1.0, 2.0)), b - a
        c = Point(a.x + t * d.x - f * FLOOR * d.y,
                  a.y + t * d.y + f * FLOOR * d.x)
    elif near == "equilateral":
        apex = midpoint(a, b) + perp(b - a) * (math.sqrt(3.0) / 2.0)
        size = dist(a, b) * 10.0 ** -draw(st.integers(3, 16))
        c = Point(apex.x + f * size, apex.y + g * size)
    else:
        c = Point(tx + s * draw(unit), ty + s * draw(unit))
    return a, b, c


def _float_outcome(build):
    try:
        p = build()
    except (GeometryError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return p.x.hex(), p.y.hex()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(triangles=st.lists(_near_degenerate_triangle(), min_size=1,
                          max_size=6))
def test_fermat_points_from_shared_parts_are_the_unshared_ones(triangles):
    """eq_apex, X13 and X14 built in turn over one run's parts give, on
    floats, the bits or the error text of the unshared construction; on
    rows, each alone marks the rows the unshared one marks, the three in
    one block mark the rows on which a float build raises, and every row
    has the unshared bits."""
    floats_raise = []
    for a, b, c in triangles:
        built, raised = parts(), False
        for name, unshared, shared in _FERMAT_STEPS:
            want = _float_outcome(lambda: unshared(a, b, c))
            assert _float_outcome(lambda: shared(a, b, c, built)) == want, name
            raised |= isinstance(want[0], type)
        floats_raise.append(raised)

    a, b, c = (Point(np.array([t[i].x for t in triangles]),
                     np.array([t[i].y for t in triangles])) for i in range(3))

    def on_rows(build):
        """The rows `build` marks and the bits of what it builds."""
        with np.errstate(all="ignore"), failures() as failed:
            p = build()
        marked = np.broadcast_to(failed.rows, p.x.shape)
        return [marked.tobytes(), p.x.tobytes(), p.y.tobytes()]

    for name, unshared, shared in _FERMAT_STEPS:
        assert on_rows(lambda: shared(a, b, c, parts())) \
            == on_rows(lambda: unshared(a, b, c)), name
    built = parts()
    with np.errstate(all="ignore"), failures() as failed:
        points = [shared(a, b, c, built) for _, _, shared in _FERMAT_STEPS]
    assert np.broadcast_to(failed.rows, a.x.shape).tolist() == floats_raise
    for p, (name, unshared, _) in zip(points, _FERMAT_STEPS):
        assert [p.x.tobytes(), p.y.tobytes()] \
            == on_rows(lambda: unshared(a, b, c))[1:], name
