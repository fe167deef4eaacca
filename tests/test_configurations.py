"""Family builders: degenerate bases, general-position figures,
preconditions; the shipped base shapes."""

import math
from importlib.resources import files

import pytest

from geodeform.catalog import CLAIMS, FAMILIES
from geodeform.configurations import (
    Configuration,
    NonConvexQuadrilateral,
    PointOnVertex,
    PointOutsideCircumcircle,
)
from geodeform.core import (
    Circle,
    CollinearPoints,
    Point,
    circumcircle,
    diameter,
    dist,
)
from geodeform.relations import evaluate_relation
from geodeform.script import evaluate, parse, second_intersection

build_theorem1 = FAMILIES["theorem1"].builder
build_bisector_variant = FAMILIES["bisector"].builder
build_example1 = FAMILIES["example1"].builder
build_example2 = FAMILIES["example2"].builder
build_example3 = FAMILIES["example3"].builder

S3 = math.sqrt(3.0)
SHAPES = files("geodeform") / "shapes"
SHAPE_NAMES = sorted(entry.name.removesuffix(".geo")
                     for entry in SHAPES.iterdir() if entry.name.endswith(".geo"))


def base_shape(name):
    """The figure of the shipped program `shapes/<name>.geo`."""
    return evaluate(parse((SHAPES / f"{name}.geo").read_text(encoding="utf-8")))[0]

SQUARE = (Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1))
# a convex quadrilateral in general position, nothing special about it
QUAD = (Point(0.0, 0.0), Point(0.6785683458446256, 4.77503593973593),
        Point(5.97972203814452, 4.873205452556299),
        Point(4.9135631958931025, 0.0))
EQUILATERAL = (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, S3 / 2.0))


def test_theorem1_square_apexes_collapse_to_center():
    config = build_theorem1(*SQUARE)
    apexes = [config.point(l) for l in ("O_ab", "O_bc", "O_cd", "O_da")]
    center = Point(0.5, 0.5)
    for p in apexes:
        assert dist(p, center) <= 1e-12
    spread = max(dist(p, q) for p in apexes for q in apexes)
    assert spread <= 1e-12


def test_theorem1_general_quadrilateral():
    config = build_theorem1(*QUAD)
    labels = {"A", "B", "C", "D", "O_ab", "O_bc", "O_cd", "O_da"}
    assert set(config.objects) == labels
    o_ab, o_bc = config.point("O_ab"), config.point("O_bc")
    o_cd, o_da = config.point("O_cd"), config.point("O_da")
    assert evaluate_relation("perpendicular", [o_ab, o_cd, o_bc, o_da]).passed
    assert evaluate_relation("equal_length", [o_ab, o_cd, o_bc, o_da]).passed


def test_theorem1_vertex_order_reversal_also_works():
    config = build_theorem1(*reversed(QUAD))
    assert evaluate_relation(
        "perpendicular", [config.point(l)
                          for l in ("O_ab", "O_cd", "O_bc", "O_da")]).passed


def test_theorem1_rejects_non_convex():
    with pytest.raises(NonConvexQuadrilateral):
        build_theorem1(Point(0, 0), Point(2, 0), Point(1, 1), Point(1, 3))


def test_theorem1_rejects_collinear_triple():
    with pytest.raises(NonConvexQuadrilateral):
        build_theorem1(Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 3))


def test_bisector_variant_rectangle():
    config = build_bisector_variant(Point(0, 0), Point(2, 0),
                                    Point(2, 1), Point(0, 1))
    meets = [config.point(f"O_{i}") for i in (1, 2, 3, 4)]
    # non-degenerate quadruple for a proper rectangle
    assert min(dist(p, q) for i, p in enumerate(meets)
               for q in meets[i + 1:]) > 1e-3
    assert evaluate_relation("concyclic", meets).passed


def test_bisector_variant_figure_quadrilateral():
    config = build_bisector_variant(*QUAD)
    meets = [config.point(f"O_{i}") for i in (1, 2, 3, 4)]
    assert evaluate_relation("concyclic", meets).passed


def test_example1_equilateral_centers_coincide():
    config = build_example1(*EQUILATERAL)
    center = Point(0.5, S3 / 6.0)
    for label in ("O_a", "O_b", "O_c"):
        assert dist(config.point(label), center) <= 1e-12
    assert "F2" not in config.objects  # degenerate for the equilateral base


def test_example1_scalene():
    config = build_example1(Point(0, 0), Point(4, 0), Point(1, 3))
    o_a, o_b, o_c = (config.point(l) for l in ("O_a", "O_b", "O_c"))
    sides = [dist(o_a, o_b), dist(o_b, o_c), dist(o_c, o_a)]
    diam = diameter(list(config.points().values()))
    assert max(sides) - min(sides) <= 1e-9 * diam
    circ = circumcircle(o_a, o_b, o_c)
    f1 = config.point("F1")
    assert abs(dist(f1, circ.center) - circ.radius) <= 1e-9 * diam
    assert "F2" in config.objects


def test_example1_apexes_point_inward():
    from geodeform.core import line_through

    a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
    config = build_example1(a, b, c)
    side = line_through(b, c)
    assert side.value(config.point("A'")) * side.value(a) > 0


def test_example2_concyclic():
    config = build_example2(Point(0, 0), Point(5, 0), Point(1, 4))
    pts = [config.point(l) for l in ("F_a", "F_b", "F_c", "F2")]
    assert evaluate_relation("concyclic", pts).passed


def test_example3_equilateral_center_collapses():
    center = Point(0.5, S3 / 6.0)
    config = build_example3(*EQUILATERAL, center)
    for label in ("N", "N_a'", "N_b'", "N_c'", "N_a''", "N_b''", "N_c''"):
        assert dist(config.point(label), center) <= 1e-12, label


def test_example3_scalene_both_quadruples_concyclic():
    a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
    p = Point((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)
    config = build_example3(a, b, c, p)
    primed = [config.point(l) for l in ("N_a'", "N_b'", "N_c'", "N")]
    doubled = [config.point(l) for l in ("N_a''", "N_b''", "N_c''", "N")]
    assert evaluate_relation("concyclic", primed).passed
    assert evaluate_relation("concyclic", doubled).passed


def test_example3_preconditions():
    a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
    with pytest.raises(PointOnVertex):
        build_example3(a, b, c, a)
    with pytest.raises(PointOutsideCircumcircle):
        build_example3(a, b, c, Point(50.0, 50.0))


def test_example3_circumcevian_points_on_circumcircle():
    a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
    config = build_example3(a, b, c, Point(1.5, 1.0))
    circ = config.objects["circle(A,B,C)"]
    for label in ("A'", "B'", "C'"):
        p = config.point(label)
        assert abs(dist(p, circ.center) - circ.radius) < 1e-9


SQUARE_BASE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
EQUILATERAL_BASE = ((0.0, 0.0), (1.0, 0.0), (0.5, 0.8660254037844386))
LOADED_FAMILIES = {
    "theorem1": (SQUARE_BASE, 0.0),
    "bisector": (SQUARE_BASE, 0.0),
    "example1": (EQUILATERAL_BASE, 0.0),
    "example2": (EQUILATERAL_BASE, 1e-6),
    "example3": (EQUILATERAL_BASE + ((0.5, 0.28867513459481287),), 0.0),
}
LOADED_CLAIMS = [
    ("theorem1_perp", "theorem1", "perpendicular",
     ("O_ab", "O_cd", "O_bc", "O_da"), "apex diagonals are perpendicular"),
    ("theorem1_equal", "theorem1", "equal_length",
     ("O_ab", "O_cd", "O_bc", "O_da"), "apex diagonals have equal length"),
    ("bisector_concyclic", "bisector", "concyclic",
     ("O_1", "O_2", "O_3", "O_4"), "adjacent-bisector meets are concyclic"),
    ("example1_equilateral", "example1", "equal_length",
     ("O_a", "O_b", "O_b", "O_c", "O_c", "O_a"),
     "erected-triangle centroids form an equilateral triangle"),
    ("example1_fermat_on_circle", "example1", "concyclic",
     ("O_a", "O_b", "O_c", "F1"),
     "first Fermat point lies on the centroid circle"),
    ("example2_concyclic", "example2", "concyclic",
     ("F_a", "F_b", "F_c", "F2"),
     "second Fermat point lies on the sub-triangle Fermat circle"),
    ("example3_prime_concyclic", "example3", "concyclic",
     ("N_a'", "N_b'", "N_c'", "N"),
     "line-reflected nine-point centers are concyclic with the base one"),
    ("example3_doubleprime_concyclic", "example3", "concyclic",
     ("N_a''", "N_b''", "N_c''", "N"),
     "midpoint-reflected nine-point centers are concyclic with the base one"),
]


def test_loaded_claims_and_families_are_pinned():
    """The catalog as loaded from the shipped family programs: claims in
    `verify all` order, and each family's base points bit for bit."""
    assert [(name, c.family.name, c.claim.kind, c.claim.labels,
             c.claim.description) for name, c in CLAIMS.items()] \
        == LOADED_CLAIMS
    assert all(c.name == name for name, c in CLAIMS.items())
    assert [n for n, c in CLAIMS.items() if c.annotate is not None] == [
        "example1_fermat_on_circle"]
    assert S3 / 2.0 == 0.8660254037844386 and S3 / 6.0 == 0.28867513459481287
    bits = lambda points: [(x.hex(), y.hex()) for x, y in points]  # noqa: E731
    assert list(FAMILIES) == list(LOADED_FAMILIES)
    for name, (base, floor) in LOADED_FAMILIES.items():
        family = FAMILIES[name]
        assert bits((p.x, p.y) for p in family.base_points) == bits(base), name
        assert family.epsilon_floor == floor, name


def test_second_intersection_antipode():
    circ = Circle(Point(0.0, 0.0), 1.0)
    p = second_intersection(Point(1.0, 0.0), Point(0.0, 0.0), circ)
    assert dist(p, Point(-1.0, 0.0)) < 1e-12


def test_regular_hexagon_vertices_equidistant_from_center():
    config = base_shape("regular_hexagon")
    center = config.point("O")
    ring = [l for l in config.objects if l != "O"]
    assert len(ring) == 6
    ds = [dist(config.point(l), center) for l in ring]
    assert max(ds) - min(ds) <= 1e-12


def test_triangulated_triangle_point_count():
    config = base_shape("triangulated_triangle")
    assert len(config.objects) == 10


def test_every_shape_kind_builds():
    assert len(SHAPE_NAMES) == 10
    for name in SHAPE_NAMES:
        config = base_shape(name)
        assert diameter(list(config.points().values())) > 0.0
        for a, b in config.edges:
            assert a in config.objects and b in config.objects, (name, a, b)


def test_incircle_shape_has_circle_object():
    config = base_shape("triangle_with_incircle")
    circ = config.objects["circle(M_ab,M_bc,M_ca)"]
    assert isinstance(circ, Circle)
    assert abs(circ.radius - S3 / 6.0) < 1e-15


def test_configuration_diameter_and_lookup():
    config = build_theorem1(*SQUARE)
    span = diameter(list(config.points().values()))
    assert abs(span - math.sqrt(2.0)) < 1e-12
    with pytest.raises(KeyError):
        config.point("nope")


def test_configuration_point_rejects_non_point_objects():
    config = base_shape("triangle_with_incircle")
    with pytest.raises((KeyError, TypeError)):
        config.point("circle(M_ab,M_bc,M_ca)")
