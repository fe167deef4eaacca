"""Exact-value and property tests for the geometric primitives."""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodeform import core
from geodeform.core import (
    Circle,
    CoincidentPoints,
    CollinearPoints,
    GeometryError,
    Line,
    NonFiniteInput,
    Parallel,
    Point,
    angle_bisector,
    circumcircle,
    diameter,
    dist,
    failures,
    guard,
    hypot,
    intersect,
    line_circle_meets,
    line_through,
    midpoint,
    only_rows,
    parts,
    perp,
    pow2_near,
    reflect_line,
    reflect_point,
    rotate,
    shared,
    signed_area,
)


def close(p: Point, q: Point, tol: float = 1e-12) -> bool:
    return dist(p, q) <= tol


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


def test_intersect_line_circle_fixed():
    x_axis = Line(0.0, 1.0, 0.0)
    unit = Circle(Point(0.0, 0.0), 1.0)
    miss, touch, first, second = line_circle_meets(x_axis, unit)
    assert not miss and not touch
    # the two meets in no particular order
    low, high = sorted([first, second], key=lambda p: (p.x, p.y))
    assert close(low, Point(-1.0, 0.0), 1e-15)
    assert close(high, Point(1.0, 0.0), 1e-15)
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


# ---------------------------------------------------------------------------
# the length rule: the same bits on floats and on rows

def _row_bits(f, *args):
    """f on 1-row arrays, as the float bits of its one row."""
    with np.errstate(all="ignore"):
        got = f(*(np.array([a]) for a in args))
    assert type(got) is np.ndarray and got.shape == (1,)
    return float(got[0]).hex()


# every exponent, sign and special value: st.floats() alone is biased
# towards small exponents
FLOATS = st.one_of(
    st.floats(),
    st.builds(lambda m, e: m * 2.0 ** e, st.floats(-2.0, 2.0),
              st.integers(-1074, 1023)),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 2.0 ** -1022 - 5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308]))
FINITE = FLOATS.filter(math.isfinite)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(x=FLOATS, y=FLOATS)
def test_hypot_rows_have_the_float_bits(x, y):
    h = hypot(x, y)
    assert type(h) is float
    assert _row_bits(hypot, x, y) == h.hex()
    if math.isfinite(h):
        # sqrt(x*x + y*y) rounds three times; math.hypot is the reference
        assert abs(h - math.hypot(x, y)) <= 2 * math.ulp(math.hypot(x, y))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(p=st.tuples(FINITE, FINITE), q=st.tuples(FINITE, FINITE))
def test_dist_rows_have_the_float_bits(p, q):
    with np.errstate(all="ignore"):
        rows = dist(Point(np.array([p[0]]), np.array([p[1]])),
                    Point(np.array([q[0]]), np.array([q[1]])))
    assert float(rows[0]).hex() == dist(Point(*p), Point(*q)).hex()


def _check_pow2_near(x):
    near = pow2_near(x)
    assert type(near) is float
    assert _row_bits(pow2_near, x) == near.hex(), x
    if math.isfinite(near):
        # a power of two within a factor sqrt(2) of x
        assert math.frexp(near)[0] == 0.5
        assert math.sqrt(0.5) <= x / near < math.sqrt(2.0), (x, near)
    else:
        assert math.isnan(near)
        assert not 0.0 < x < 1.2e308, x


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(x=FLOATS)
def test_pow2_near_rows_have_the_float_bits(x):
    _check_pow2_near(x)


def test_pow2_near_rounds_at_sqrt_half_of_every_exponent():
    """Three floats either side of sqrt(1/2) * 2^e, for every e that keeps
    them normal, on floats and on rows alike."""
    for e in range(-1021, 1025):
        x = math.ldexp(math.sqrt(0.5), e)
        below = above = x
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            _check_pow2_near(below)
            _check_pow2_near(above)
        _check_pow2_near(x)


def test_hypot_rows_are_the_floats_across_every_exponent_pair():
    """One batch of every pair of exponents (stride 13) and of exact
    zeros against the float path, so rows in and outside the plain range
    share a batch with (0, 0), (0, 5e-324) and (0, 1e-200)-sized rows."""
    values = [m * 2.0 ** e for e in range(-1074, 1024, 13)
              for m in (1.0, -1.4142135623730951)] + [0.0, -0.0]
    xs, ys = zip(*((x, y) for x in values for y in values))
    with np.errstate(all="ignore"):
        rows = hypot(np.array(xs), np.array(ys))
    assert [float(h).hex() for h in rows] == \
        [hypot(x, y).hex() for x, y in zip(xs, ys)]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(rows=st.lists(st.tuples(FLOATS, FLOATS, FLOATS), min_size=1,
                     max_size=8))
def test_rows_mark_exactly_the_floats_that_raise(rows):
    """Inside `failures()`, a batch of points or lines marks row r failed
    exactly where the float constructor raises on row r's values: where
    one is not finite, or a line's normal is (0, 0).  Every other row has
    the float's bits."""
    for make, fields in ((Point, "xy"), (Line, "abc")):
        columns = [np.array([row[i] for row in rows])
                   for i in range(len(fields))]
        with np.errstate(all="ignore"), failures() as failed:
            batch = make(*columns)
        marked = np.broadcast_to(failed.rows, (len(rows),)).tolist()
        for r, row in enumerate(rows):
            values = row[:len(fields)]
            bad = (not all(map(math.isfinite, values))
                   or make is Line and values[0] == values[1] == 0.0)
            try:
                single = make(*values)
            except NonFiniteInput:
                assert bad and marked[r], (make, row)
                continue
            assert not bad and not marked[r], (make, row)
            assert [float(getattr(batch, f)[r]).hex() for f in fields] == \
                [getattr(single, f).hex() for f in fields]


def test_hypot_overflows_to_inf_only_past_the_largest_float():
    assert hypot(1e308, 1e308) == math.hypot(1e308, 1e308) < math.inf
    assert float.fromhex(_row_bits(hypot, 1e308, 1e308)) < math.inf
    assert hypot(1.5e308, 1.5e308) == math.inf
    assert float.fromhex(_row_bits(hypot, 1.5e308, 1.5e308)) == math.inf


@st.composite
def _fold_values(draw):
    """1 to 8 values of the domain of `maximum` on rows, nonnegative
    floats with 0.0, subnormals, +inf and NaN: Python floats and arrays of
    one row count, 1 to 8, at least one an array."""
    nonnegative = FLOATS.map(abs)
    rows = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=8))
    kinds[draw(st.integers(0, len(kinds) - 1))] = True
    return [np.array(draw(st.lists(nonnegative, min_size=rows,
                                   max_size=rows)))
            if is_array else draw(nonnegative) for is_array in kinds]


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(values=_fold_values())
def test_maximum_and_minimum_rows_are_the_float_fold(values):
    """Row r of `maximum` and `minimum` is the builtin max and min of the
    values at row r: NaN where a NaN comes first, later NaNs passed
    over."""
    rows = max(len(v) for v in values if type(v) is np.ndarray)
    for fold, builtin in ((core.maximum, max), (core.minimum, min)):
        got = np.broadcast_to(fold(*values), (rows,))
        want = [builtin(v if type(v) is float else float(v[r])
                        for v in values) for r in range(rows)]
        assert [float(g).hex() for g in got] == [w.hex() for w in want]


# ---------------------------------------------------------------------------
# diameter: one sqrt of the largest squared length, with the bits of the
# largest pairwise dist

def _pairwise_diameter(points):
    """The largest dist over all pairs, 0.0 for fewer than two points."""
    return max((dist(p, q) for i, p in enumerate(points)
                for q in points[i + 1:]), default=0.0)


@st.composite
def _figures(draw):
    """0 to 8 points: a figure scaled by 2^k, |k| <= 600, or one of
    arbitrary finite coordinates, some points repeated."""
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        scale = 2.0 ** draw(st.integers(-600, 600))
        coords = st.floats(-2.0, 2.0).map(lambda m: m * scale)
    else:
        coords = FINITE
    points = [Point(draw(coords), draw(coords)) for _ in range(n)]
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=3))
    return draw(st.permutations(points))


@settings(max_examples=800, derandomize=True, database=None, deadline=None)
@given(points=_figures())
def test_diameter_has_the_bits_of_the_largest_dist(points):
    assert diameter(points).hex() == _pairwise_diameter(points).hex()


@pytest.mark.parametrize("points", [
    [],
    [Point(1.0, 2.0)],
    [Point(1.0, 2.0), Point(1.0, 2.0)],
    [Point(0.0, 0.0), Point(0.0, 0.0), Point(0.0, 0.0)],
    [Point(3.0, 0.0), Point(0.0, 4.0)],
    # squared lengths that overflow, and lengths that do too
    [Point(1e200, 0.0), Point(-1e200, 1e200), Point(0.0, 0.0)],
    [Point(-1.5e308, 0.0), Point(1.5e308, 0.0), Point(0.0, 1e308)],
    # squared lengths that underflow
    [Point(1e-200, 0.0), Point(0.0, 3e-200), Point(5e-324, 5e-324)],
    # lengths either side of the ends of hypot's plain range
    [Point(0.0, 0.0), Point(2.0 ** -450, 0.0), Point(0.0, 2.0 ** -449)],
    [Point(0.0, 0.0), Point(math.nextafter(2.0 ** -449, 0.0), 0.0),
     Point(2.0 ** -451, 2.0 ** -451)],
    [Point(0.0, 0.0), Point(2.0 ** 450, 0.0)],
    [Point(0.0, 0.0), Point(math.nextafter(2.0 ** 450, math.inf), 0.0)],
    # coordinates that are not floats take the pairwise loop
    [Point(0, 0), Point(3, 4), Point(1.5, 1)],
    [Point(np.float64(0.1), 0.0), Point(0.0, np.float64(0.3))],
])
def test_diameter_edge_cases(points):
    with np.errstate(all="ignore"):
        assert diameter(points).hex() == _pairwise_diameter(points).hex()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(figures=st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.tuples(FINITE, FINITE), min_size=n,
                                max_size=n), min_size=1, max_size=4)))
def test_diameter_rows_have_the_float_bits(figures):
    """Float64 rows take the pairwise loop, row by row the float bits."""
    rows = [Point(np.array([f[i][0] for f in figures]),
                  np.array([f[i][1] for f in figures]))
            for i in range(len(figures[0]))]
    with np.errstate(all="ignore"):
        got = diameter(rows)
    if len(rows) < 2:
        assert got == 0.0
        return
    assert [float(h).hex() for h in got] == \
        [diameter([Point(*xy) for xy in f]).hex() for f in figures]


@pytest.mark.parametrize("points, loops", [
    # a row of coincident points among rows of distinct ones
    ([(np.array([0.0, 1.0, 2.0]), np.zeros(3)), (np.zeros(3), np.zeros(3)),
      (np.array([0.0, 3.0, -1.0]), np.array([0.0, 1.0, 5.0]))], False),
    # float points next to rows
    ([(0.0, 0.0), (0.0, 0.0), (np.array([0.0, 1.0]), np.zeros(2))], False),
    # a row of distinct points whose squares underflow to 0
    ([(np.array([0.0, 1e-300]), np.zeros(2)), (np.zeros(2), np.zeros(2))],
     True),
])
def test_diameter_rows_of_coincident_points_are_in_range(monkeypatch, points,
                                                        loops):
    """A row whose points coincide exactly is 0, as `dist` makes it, and
    leaves the batch on the one-square path; a row of distinct points too
    close for it sends the batch through the pairwise loop."""
    calls = []

    def counted(p, q):
        calls.append(None)
        return dist(p, q)

    monkeypatch.setattr(core, "dist", counted)
    rows = [Point(x, y) for x, y in points]
    got = diameter(rows)
    assert bool(calls) == loops
    monkeypatch.undo()
    n = len(got)
    assert [float(h).hex() for h in got] == [
        diameter([Point(float(np.broadcast_to(x, (n,))[i]),
                        float(np.broadcast_to(y, (n,))[i]))
                  for x, y in points]).hex() for i in range(n)]


# ---------------------------------------------------------------------------
# failures(): the rows that guards marked, folded when read


def test_failures_fold_what_guard_marked():
    """The OR of every mask the block's guards marked, each narrowed to
    the running rows: read twice, read again after more guards (past the
    early fold), in a narrowed and a nested block, with masks that
    broadcast."""
    rng = np.random.default_rng(18)
    # sparse masks over many rows: the ORs are neither empty nor full
    masks = iter([rng.random(200) < 0.005 for _ in range(300)])
    narrow = rng.random(200) < 0.5

    def mark(expected, running=True):
        m = next(masks)
        guard(m, GeometryError, "marked")
        expected |= m & running

    outer, inner = np.zeros(200, bool), np.zeros(200, bool)
    with failures() as failed:
        assert failed.rows is False
        for _ in range(3):
            mark(outer)
        assert failed.rows.tolist() == outer.tolist()
        assert failed.rows.tolist() == outer.tolist()
        with only_rows(narrow) as rows:
            assert rows.tolist() == narrow.tolist()
            for _ in range(40):
                mark(outer, narrow)
            with only_rows(~narrow):  # nothing runs in both
                guard(np.ones(200, bool), GeometryError, "none")
        with only_rows(~narrow):
            for _ in range(40):
                mark(outer, ~narrow)
        with failures() as nested:
            with only_rows(narrow):
                mark(inner, narrow)
                guard(np.array([False]), GeometryError, "broadcast")
            for _ in range(70):
                mark(inner)
            assert nested.rows.tolist() == inner.tolist()
            assert 0 < inner.sum() < 200
        assert failed.rows.tolist() == outer.tolist()
        for _ in range(100):
            mark(outer)
        guard(np.array([False]), GeometryError, "broadcast")
        assert failed.rows.tolist() == outer.tolist()
        assert failed.rows.tolist() == outer.tolist()
        assert 0 < outer.sum() < 200
    with failures() as failed:
        mark(np.zeros(200, bool))
        guard(np.array([True]), GeometryError, "every row")
        assert failed.rows.tolist() == [True] * 200


# ---------------------------------------------------------------------------
# parts(): what a figure's constructions share


def test_shared_builds_once_per_build_and_point_objects_in_a_block(
        monkeypatch):
    """Inside a `parts()` block a part is built once per build and point
    objects, a `dist` once for both orders; equal points that are other
    objects build again, and a failed part is not kept.  Outside any
    block, and after the block ends, every call builds; a block entered
    again goes on with its parts."""
    built, lengths = [], []

    def build(*points):
        built.append(points)
        return len(built)

    def failing(*points):
        built.append(points)
        raise CoincidentPoints("coincident")

    monkeypatch.setattr(core, "hypot", lambda x, y: lengths.append(x) or 5.0)
    a, b, same_as_a = Point(0.0, 0.0), Point(3.0, 4.0), Point(0.0, 0.0)
    assert shared(build, a, b) == 1 and shared(build, a, b) == 2
    block = parts()
    with block:
        assert shared(build, a, b) == shared(build, a, b) == 3
        assert shared(build, b, a) == 4
        assert shared(build, same_as_a, b) == 5
        assert shared(dist, a, b) == shared(dist, b, a) == 5.0
        assert len(lengths) == 1
        for _ in range(2):
            with pytest.raises(CoincidentPoints):
                shared(failing, a, same_as_a)
        assert len(built) == 7
    assert shared(build, a, b) == 8
    with block:
        assert shared(build, a, b) == 3
    with parts():
        assert shared(build, a, b) == 9
