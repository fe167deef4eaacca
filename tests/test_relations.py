"""Detector behavior: fixed verdicts, measured failure bands, invariances.

Every detector is reached through `evaluate_relation`, the one entry
point: a line is given as two points on it, a circle as three."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodeform.core import (
    CoincidentPoints,
    GeometryError,
    Point,
    failures,
    midpoint,
    rotate,
)
from geodeform.relations import (
    NOISE_FLOOR,
    RELATIONS,
    DegeneratePosition,
    RelationVerdict,
    TooFewPoints,
    arity_fits,
    evaluate_relation,
)

EPS = 2.0 ** -52


def circle_points(cx, cy, r, angles):
    return [Point(cx + r * math.cos(t), cy + r * math.sin(t)) for t in angles]


# ---------------------------------------------------------------------------
# arity

@pytest.mark.parametrize("kind", list(RELATIONS))
def test_arity_is_checked_once_against_the_table(kind):
    """A count the table refuses raises TooFewPoints before any detector
    runs; a count it takes reaches the detector."""
    lo, hi, step, *_ = RELATIONS[kind]
    for n in range(0, 16):
        takes = lo <= n and (hi is None or n <= hi) and n % step == 0
        assert arity_fits(kind, n) == takes, (kind, n)
        points = [Point(float(t), t * t / 7.0) for t in range(n)]
        if takes:
            assert evaluate_relation(kind, points).kind == kind
        else:
            with pytest.raises(TooFewPoints, match=f"{kind} cannot take"):
                evaluate_relation(kind, points)


# ---------------------------------------------------------------------------
# collinear

def test_collinear_exact_pass():
    v = evaluate_relation("collinear", [Point(0, 0), Point(1, 1), Point(2, 2)])
    assert v.passed and v.residual == 0.0


def test_collinear_fail():
    v = evaluate_relation("collinear", [Point(0, 0), Point(1, 0), Point(0, 1)])
    assert not v.passed
    assert v.residual > 1e-9


def test_collinear_tiny_perturbation_passes():
    rng = random.Random(3)
    pts = []
    for _ in range(5):
        x = rng.uniform(-2, 2)
        pts.append(Point(x + rng.uniform(-1e-13, 1e-13),
                         3.0 * x - 1.0 + rng.uniform(-1e-13, 1e-13)))
    assert evaluate_relation("collinear", pts).passed


def test_collinear_too_few():
    with pytest.raises(TooFewPoints):
        evaluate_relation("collinear", [Point(0, 0), Point(1, 1)])


def test_collinear_coincident_cluster():
    v = evaluate_relation("collinear", [Point(1, 1)] * 3)
    assert v.passed and "coincident_cluster" in v.flags


# ---------------------------------------------------------------------------
# concyclic

def test_concyclic_cardinal_points():
    pts = circle_points(0, 0, 1, [0, math.pi / 2, math.pi, 3 * math.pi / 2])
    v = evaluate_relation("concyclic", pts)
    assert v.passed
    assert v.residual <= 1e-15


def test_concyclic_collinear_falls_back():
    v = evaluate_relation("concyclic", [Point(0, 0), Point(1, 0),
                                        Point(2, 0), Point(3, 0)])
    assert "collinear_witness" in v.flags
    assert v.passed  # collinear quadruple counts as a degenerate circle


def test_concyclic_radial_bump_measured():
    """Pushing one unit-circle point out by 1e-3 must fail with a residual
    close to 1e-3 / diameter = 5e-4."""
    pts = circle_points(0, 0, 1, [0.3, 1.7, 3.1, 4.6])
    bumped = pts[:3] + [Point(pts[3].x * 1.001, pts[3].y * 1.001)]
    v = evaluate_relation("concyclic", bumped)
    assert not v.passed
    assert 2e-4 < v.residual < 8e-4, v.residual


def test_concyclic_external_scale_divides():
    # same defect judged against a 10x larger figure gives a residual
    # smaller by about that factor
    pts = circle_points(0, 0, 1, [0.3, 1.7, 3.1, 4.6])
    bumped = pts[:3] + [Point(pts[3].x * 1.01, pts[3].y * 1.01)]
    own = evaluate_relation("concyclic", bumped).residual
    scaled = evaluate_relation("concyclic", bumped, scale=20.0).residual
    assert 5.0 < own / scaled < 15.0


# ---------------------------------------------------------------------------
# concurrency

def test_medians_concurrent_at_centroid():
    a, b, c = Point(0, 0), Point(4, 0), Point(0, 6)
    v = evaluate_relation("concurrent", [a, midpoint(b, c), b, midpoint(c, a),
                                         c, midpoint(a, b)])
    assert v.passed


def test_concurrent_lines_fail():
    # the lines x = 0, y = 0 and x + y = 1
    v = evaluate_relation("concurrent", [Point(0, 0), Point(0, 1),
                                         Point(0, 0), Point(1, 0),
                                         Point(1, 0), Point(0, 1)])
    assert not v.passed


def test_concurrent_lines_parallel_pair_flagged():
    # the lines x = 0, x = 1 and y = 0
    v = evaluate_relation("concurrent", [Point(0, 0), Point(0, 1),
                                         Point(1, 0), Point(1, 1),
                                         Point(0, 0), Point(1, 0)])
    assert not v.passed
    assert v.residual == math.inf
    assert "non_concurrent_parallel" in v.flags


def test_concurrent_lines_too_few():
    with pytest.raises(TooFewPoints):
        evaluate_relation("concurrent", [Point(0, 0), Point(0, 1),
                                         Point(0, 0), Point(1, 0)])


def test_concurrent_lines_through_coincident_points_raise():
    with pytest.raises(CoincidentPoints):
        evaluate_relation("concurrent", [Point(0, 0), Point(0, 0),
                                         Point(0, 0), Point(1, 0),
                                         Point(1, 0), Point(0, 1)])


# ---------------------------------------------------------------------------
# conics

def test_fit_conic_unit_circle():
    pts = circle_points(0, 0, 1, [0.2, 1.1, 2.3, 3.9, 5.2])
    for p in circle_points(0, 0, 1, [0.0, math.pi / 2, 4.4]):
        assert evaluate_relation("on_conic", pts + [p]).passed
    v = evaluate_relation("on_conic", pts + [Point(0.0, 1.01)])
    assert not v.passed


def test_fit_conic_hyperbola():
    pts = [Point(t, 1.0 / t) for t in (0.5, 1.0, 2.0, -1.0, -2.0)]
    v = evaluate_relation("on_conic", pts + [Point(4.0, 0.25),
                                             Point(-0.25, -4.0)])
    assert v.passed
    assert not evaluate_relation("on_conic", pts + [Point(4.0, 0.3)]).passed


def test_fit_conic_degenerate_position():
    pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0), Point(0, 1)]
    with pytest.raises(DegeneratePosition, match="more than one conic"):
        evaluate_relation("on_conic", pts + [Point(1, 1)])


def test_on_conic_coincident_cluster():
    pts = [Point(1, 1)] * 5 + [Point(2, 1)]
    with pytest.raises(DegeneratePosition, match="coincident cluster"):
        evaluate_relation("on_conic", pts)


def test_on_conic_takes_the_worst_point():
    angles = [0.3, 1.2, 2.2, 3.6, 4.9]
    pts = [Point(2.0 * math.cos(t), math.sin(t)) for t in angles]
    on = Point(2.0 * math.cos(5.8), math.sin(5.8))
    off = Point(2.0 + 1e-3, 0.0)
    alone = evaluate_relation("on_conic", pts + [off]).residual
    assert evaluate_relation("on_conic", pts + [on, off]).residual == alone
    assert evaluate_relation("on_conic", pts + [off, on]).residual == alone


def test_conic_membership_band():
    """Sixth point nudged off the ellipse x^2/4 + y^2 = 1 by 1e-3: the
    residual is a first-order distance, so it lands near 1e-3 divided by
    the figure size."""
    angles = [0.3, 1.2, 2.2, 3.6, 4.9]
    pts = [Point(2.0 * math.cos(t), math.sin(t)) for t in angles]
    on = Point(2.0 * math.cos(5.8), math.sin(5.8))
    assert evaluate_relation("on_conic", pts + [on]).passed
    off = Point(2.0 + 1e-3, 0.0)
    v = evaluate_relation("on_conic", pts + [off])
    assert not v.passed
    assert 1e-4 < v.residual < 1e-2


# ---------------------------------------------------------------------------
# segments

def test_perp_and_equal_fixed():
    for segments in ([Point(0, 0), Point(0, 2), Point(-1, 1), Point(1, 1)],
                     [Point(0, 0), Point(0, 2), Point(0, 1), Point(2, 1)]):
        assert evaluate_relation("perpendicular", segments).passed
        assert evaluate_relation("equal_length", segments).passed


def test_perpendicular_rejects_coincident():
    with pytest.raises(CoincidentPoints):
        evaluate_relation("perpendicular", [Point(0, 0), Point(0, 0),
                                            Point(0, 1), Point(2, 1)])


def test_perpendicular_ignores_scale():
    pts = [Point(0, 0), Point(1, 2), Point(5, 5), Point(3, 6)]
    assert (evaluate_relation("perpendicular", pts, scale=100.0)
            == evaluate_relation("perpendicular", pts))


def test_equal_length_fail():
    v = evaluate_relation("equal_length", [Point(0, 0), Point(1, 0),
                                           Point(0, 0), Point(3, 0)])
    assert not v.passed
    # defect 2 over diameter 3, in the snapped frame
    assert v.residual > 0.1


def test_midpoints_coincide():
    v = evaluate_relation("midpoints_coincide", [Point(0, 0), Point(2, 2),
                                                 Point(0, 2), Point(2, 0)])
    assert v.passed and v.residual == 0.0
    v = evaluate_relation("midpoints_coincide", [Point(0, 0), Point(2, 2),
                                                 Point(0, 2), Point(3, 0)])
    assert not v.passed


# ---------------------------------------------------------------------------
# verdict plumbing

def test_sub_floor_residuals_report_zero():
    pts = circle_points(0, 0, 1, [0.1, 1.3, 2.9, 4.4])
    v = evaluate_relation("concyclic", pts)
    assert v.residual == 0.0


def test_failed_verdict_constructor():
    v = RelationVerdict.failed("concyclic", flags=("evaluation_error",),
                               error="boom")
    assert not v.passed
    assert v.residual == math.inf
    assert v.error == "boom"


def test_evaluate_relation_dispatch():
    v = evaluate_relation("collinear", [Point(0, 0), Point(1, 1), Point(2, 2)])
    assert v.kind == "collinear" and v.passed
    v = evaluate_relation("perpendicular",
                          [Point(0, 0), Point(0, 2), Point(0, 1), Point(2, 1)])
    assert v.passed
    v = evaluate_relation("concurrent",
                          [Point(0, 0), Point(1, 1),
                           Point(1, 0), Point(0, 1),
                           Point(0.5, 0.5), Point(0.5, -1.0)])
    assert v.passed
    with pytest.raises(ValueError):
        evaluate_relation("no_such_kind", [Point(0, 0)] * 4)


def test_evaluate_relation_on_conic_six_points():
    angles = [0.3, 1.2, 2.2, 3.6, 4.9]
    pts = [Point(2.0 * math.cos(t), math.sin(t)) for t in angles]
    pts.append(Point(2.0 * math.cos(5.8), math.sin(5.8)))
    assert evaluate_relation("on_conic", pts).passed


# ---------------------------------------------------------------------------
# invariance properties

DETECTOR_FIXTURES = [
    ("collinear", [Point(0.1, 0.17), Point(1.3, 1.9), Point(2.2, 3.4)]),
    ("concyclic", circle_points(0.3, -0.4, 1.4, [0.2, 1.4, 2.8, 4.1])
     [:3] + [Point(1.75, -0.4)]),
    ("equal_length", [Point(0, 0), Point(1.1, 0.3),
                      Point(2, 2), Point(3.1, 2.4)]),
    ("perpendicular", [Point(0, 0), Point(1, 2), Point(5, 5), Point(3, 6)]),
    ("midpoints_coincide", [Point(0, 0), Point(2, 2),
                            Point(0.1, 2), Point(2, 0)]),
]


def test_isometry_invariance_of_residuals():
    """A fixed rotation plus translation moves every residual by at most a
    few ulps of the normalized scale."""
    rng = random.Random(271828)
    for kind, pts in DETECTOR_FIXTURES:
        base = evaluate_relation(kind, pts).residual
        for _ in range(25):
            theta = rng.uniform(-math.pi, math.pi)
            dx, dy = rng.uniform(-10, 10), rng.uniform(-10, 10)
            moved = [rotate(p, Point(0, 0), theta) + Point(dx, dy)
                     for p in pts]
            got = evaluate_relation(kind, moved).residual
            assert abs(got - base) <= max(10 * EPS, 1e-12 * base), \
                (kind, theta, got, base)


def test_power_of_two_scaling_is_exact():
    for kind, pts in DETECTOR_FIXTURES:
        base = evaluate_relation(kind, pts).residual
        for s in (2.0 ** -20, 0.25, 1024.0, 2.0 ** 31):
            scaled = [Point(p.x * s, p.y * s) for p in pts]
            assert evaluate_relation(kind, scaled).residual == base, (kind, s)


# nine points in general position: no three collinear, no four concyclic
GENERIC_POINTS = [Point(0.12, 0.31), Point(1.07, -0.22), Point(1.93, 0.58),
                  Point(0.71, 1.46), Point(-0.38, 0.94), Point(1.41, 1.83),
                  Point(2.36, -0.47), Point(-0.19, -0.66), Point(0.87, 0.43)]


@pytest.mark.parametrize("kind", list(RELATIONS))
def test_every_kind_is_exact_under_power_of_two_scaling(kind):
    """Residual and verdict of every relation kind are bit-equal when the
    figure is scaled by 2^k, from 2^-1000 to 2^1000: squares of lengths
    over- or underflow from about 2^+-520."""
    pts = GENERIC_POINTS[:RELATIONS[kind][0]]
    base = evaluate_relation(kind, pts)
    assert 0.0 < base.residual < math.inf, kind
    for k in range(-1000, 1001):
        s = 2.0 ** k
        got = evaluate_relation(kind, [Point(p.x * s, p.y * s) for p in pts])
        assert (got.residual, got.passed) == (base.residual, base.passed), \
            (kind, k, got.residual, base.residual)


# every kind on a figure in general position; concurrent also on a figure
# where it nearly holds, so that the size of the figure, not the spread of
# the pairwise meets, is the denominator
SIMILARITY_FIXTURES = [
    *((kind, GENERIC_POINTS[:RELATIONS[kind][0]])
      for kind in RELATIONS),
    ("concurrent", [Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1),
                    Point(0.501, 0), Point(0.501, 1)]),
]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(SIMILARITY_FIXTURES),
       angle=st.floats(-math.pi, math.pi),
       shift=st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
       scale=st.floats(-3, 3).map(lambda e: 10.0 ** e))
def test_every_kind_is_similarity_invariant(case, angle, shift, scale):
    """Rotating the figure, translating it by up to ten units and scaling
    the result by 1e-3 to 1e3 moves every residual by at most 1e-12.

    The bound is absolute because a residual is a fraction of the figure's
    size, and so is the roundoff of the moved coordinates (about 1e-15 per
    unit of translation); 1e-12 leaves a wide margin over it and is far
    below any defect a transform could fake."""
    kind, pts = case
    base = evaluate_relation(kind, pts).residual
    c, s = math.cos(angle), math.sin(angle)
    moved = [Point(scale * (c * p.x - s * p.y + shift[0]),
                   scale * (s * p.x + c * p.y + shift[1])) for p in pts]
    got = evaluate_relation(kind, moved).residual
    assert abs(got - base) <= 1e-12, (kind, got, base)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(SIMILARITY_FIXTURES),
       angle=st.floats(-math.pi, math.pi),
       shift=st.tuples(st.floats(-1000, 1000), st.floats(-1000, 1000)),
       scale=st.floats(-3, 3).map(lambda e: 10.0 ** e))
def test_every_kind_is_invariant_under_far_translations(case, angle, shift,
                                                        scale):
    """on_conic builds its conic in a frame centered on the points, so
    moving any figure a thousand sizes away from the origin moves its
    residual by at most 1e-12, as at ten."""
    kind, pts = case
    base = evaluate_relation(kind, pts).residual
    c, s = math.cos(angle), math.sin(angle)
    moved = [Point(scale * (c * p.x - s * p.y + shift[0]),
                   scale * (s * p.x + c * p.y + shift[1])) for p in pts]
    got = evaluate_relation(kind, moved).residual
    assert abs(got - base) <= 1e-12, (kind, got, base)


def test_generic_scaling_close_above_floor():
    for kind, pts in DETECTOR_FIXTURES:
        base = evaluate_relation(kind, pts).residual
        scaled = [Point(p.x * 137.0, p.y * 137.0) for p in pts]
        got = evaluate_relation(kind, scaled).residual
        if base == 0.0:
            assert got == 0.0, kind
        else:
            assert abs(got - base) <= max(1e-11 * base, NOISE_FLOOR), kind


def test_concyclic_first_order_sensitivity():
    """Radial displacement delta on one point moves the residual by
    delta / diameter within 10 percent, over four decades of delta.

    The point is pulled inward so it stays out of the widest-spread anchor
    triple and is therefore the one the fitted circle is tested against.
    """
    angles = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    for delta in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        pts = circle_points(0, 0, 1, angles)
        moved = pts[:3] + [Point(pts[3].x * (1 - delta), pts[3].y * (1 - delta))]
        got = evaluate_relation("concyclic", moved).residual
        expect = delta / 2.0
        assert abs(got - expect) <= 0.1 * expect, (delta, got, expect)


# ---------------------------------------------------------------------------
# rows against floats

def _figure(kind, n, rng):
    """n points for `kind`, as (x, y) pairs: in general position, on the
    kind's locus, or degenerate in one of the ways the detectors decide by
    convention or refuse, 1e-13 wide or wider than the largest float."""
    step = RELATIONS[kind][2]
    pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    shape = rng.choice(["generic", "locus", "coincident", "parallel",
                        "collinear", "cocircular", "cluster", "tiny",
                        "huge"])
    if shape == "locus" and kind == "concurrent":
        # lines through one point: each pair on one
        ox, oy = pts[0]
        for i in range(0, n, 2):
            s = rng.uniform(0.2, 2.0)
            pts[i + 1] = (ox + s * (pts[i][0] - ox),
                          oy + s * (pts[i][1] - oy))
    elif shape == "coincident":
        pairs = [(i, i + 1) for i in range(0, n - 1, max(step, 2))]
        for i, j in rng.sample(pairs, rng.randint(1, min(3, len(pairs)))):
            pts[j] = pts[i]
    elif shape == "parallel":
        # segments along one direction
        dx, dy = rng.uniform(-1, 1), rng.uniform(-1, 1)
        pairs = [(i, i + 1) for i in range(0, n - 1, 2)]
        for i, j in rng.sample(pairs, rng.randint(min(2, len(pairs)),
                                                  len(pairs))):
            s = rng.choice([1.0, rng.uniform(-2, 2)])
            pts[j] = (pts[i][0] + s * dx, pts[i][1] + s * dy)
    elif shape == "collinear":
        (ax, ay), (dx, dy) = pts[0], pts[1]
        pts = [(ax + t * dx, ay + t * dy)
               for t in (rng.uniform(-2, 2) for _ in range(n))]
    elif shape == "cocircular":
        (cx, cy), r = pts[0], rng.uniform(0.1, 2)
        pts = [(cx + r * math.cos(t), cy + r * math.sin(t))
               for t in (rng.uniform(0, 2 * math.pi) for _ in range(n))]
    elif shape == "cluster":
        pts = [pts[0]] * n
    elif shape == "tiny":
        pts = [(0.5 + 1e-13 * x, -0.25 + 1e-13 * y) for x, y in pts]
    elif shape == "huge":
        # a diameter past the largest float
        pts = [(1e308 * x, 1e308 * y) for x, y in pts]
    return pts


def _float_outcome(kind, points, scale):
    try:
        verdict = evaluate_relation(kind, points, scale)
    except (GeometryError, ArithmeticError):
        return None
    return verdict.residual.hex(), verdict.flags


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("kind", list(RELATIONS))
def test_rows_judge_as_their_floats(kind, scaled):
    """Row r of one batch of seeded figures, general and degenerate, has
    the residual bits of `evaluate_relation` on row r's floats, is marked
    failed where the floats raise, and the batch raises the flags of its
    rows that do not fail."""
    np = pytest.importorskip("numpy")
    lo, hi, step, *_ = RELATIONS[kind]
    rng = random.Random(f"{kind} {scaled}")
    for n in sorted({lo, hi or lo + step}):
        figures = [_figure(kind, n, rng) for _ in range(300)]
        scales = [rng.choice([0.5, 10.0, 1e-13]) if scaled else None
                  for _ in figures]
        expect = [_float_outcome(kind, [Point(x, y) for x, y in fig], s)
                  for fig, s in zip(figures, scales)]
        xy = np.array(figures)
        rows = [Point(xy[:, t, 0], xy[:, t, 1]) for t in range(n)]
        with np.errstate(all="ignore"), failures() as failed:
            verdict = evaluate_relation(
                kind, rows, np.array(scales) if scaled else None)
        residual = np.broadcast_to(verdict.residual, len(figures))
        marked = np.broadcast_to(failed.rows, len(figures))
        assert [e is None for e in expect] == marked.tolist(), n
        for r, e in enumerate(expect):
            if e is not None:
                assert float(residual[r]).hex() == e[0], (n, r, figures[r])
        assert set(verdict.flags) == {f for e in expect if e is not None
                                      for f in e[1]}, n
