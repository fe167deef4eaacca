"""The Python builders the five built-in families had before they became
the shipped `.geo` programs, kept verbatim as the test oracle.

Criterion 11 checks that each family's builder and its oracle here give
the same configuration, or reject a draw with the same exception class.
"""

from __future__ import annotations

from geodeform.centers import CenterKind, IllConditioned, Orientation, \
    equilateral_apex, right_isosceles_apex, triangle_center
from geodeform.configurations import Configuration, GeomObject, \
    NonConvexQuadrilateral, PointOnVertex, PointOutsideCircumcircle
from geodeform.core import (
    FLOOR,
    Point,
    angle_bisector,
    circumcircle,
    dist,
    intersect,
    line_through,
    midpoint,
    reflect_line,
    reflect_point,
    signed_area,
)
from geodeform.script import second_intersection

# ---------------------------------------------------------------------------
# quadrilateral constructions

def _require_convex(a: Point, b: Point, c: Point, d: Point) -> None:
    pts = (a, b, c, d)
    diam = max(dist(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])
    areas = [signed_area(a, b, c), signed_area(b, c, d),
             signed_area(c, d, a), signed_area(d, a, b)]
    floor = FLOOR * diam * diam
    if any(abs(x) <= floor for x in areas):
        raise NonConvexQuadrilateral("three consecutive vertices are collinear")
    if len({x > 0.0 for x in areas}) != 1:
        raise NonConvexQuadrilateral("vertices in order are not strictly convex")


def build_theorem1(a: Point, b: Point, c: Point, d: Point) -> Configuration:
    """Right-isosceles apexes erected inward on the sides of a convex
    quadrilateral; the two apex diagonals are the segments under test."""
    _require_convex(a, b, c, d)
    g = Point((a.x + b.x + c.x + d.x) / 4.0, (a.y + b.y + c.y + d.y) / 4.0)
    o_ab = right_isosceles_apex(a, b, Orientation.TOWARD_REFERENCE, g)
    o_bc = right_isosceles_apex(b, c, Orientation.TOWARD_REFERENCE, g)
    o_cd = right_isosceles_apex(c, d, Orientation.TOWARD_REFERENCE, g)
    o_da = right_isosceles_apex(d, a, Orientation.TOWARD_REFERENCE, g)
    objects: dict[str, GeomObject] = {
        "A": a, "B": b, "C": c, "D": d,
        "O_ab": o_ab, "O_bc": o_bc, "O_cd": o_cd, "O_da": o_da,
    }
    edges = (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"),
             ("A", "O_ab"), ("O_ab", "B"), ("B", "O_bc"), ("O_bc", "C"),
             ("C", "O_cd"), ("O_cd", "D"), ("D", "O_da"), ("O_da", "A"),
             ("O_ab", "O_cd"), ("O_bc", "O_da"))
    return Configuration(objects, {"vertices": (a, b, c, d)}, edges)


def build_bisector_variant(a: Point, b: Point, c: Point,
                           d: Point) -> Configuration:
    """Meets of interior-angle bisectors at adjacent vertex pairs."""
    _require_convex(a, b, c, d)
    bis_a = angle_bisector(a, d, b)
    bis_b = angle_bisector(b, a, c)
    bis_c = angle_bisector(c, b, d)
    bis_d = angle_bisector(d, c, a)
    o1 = intersect(bis_a, bis_b)
    o2 = intersect(bis_b, bis_c)
    o3 = intersect(bis_c, bis_d)
    o4 = intersect(bis_d, bis_a)
    objects: dict[str, GeomObject] = {
        "A": a, "B": b, "C": c, "D": d,
        "O_1": o1, "O_2": o2, "O_3": o3, "O_4": o4,
    }
    edges = (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"),
             ("A", "O_1"), ("B", "O_1"), ("B", "O_2"), ("C", "O_2"),
             ("C", "O_3"), ("D", "O_3"), ("D", "O_4"), ("A", "O_4"))
    return Configuration(objects, {"vertices": (a, b, c, d)}, edges)


# ---------------------------------------------------------------------------
# triangle constructions

def build_example1(a: Point, b: Point, c: Point) -> Configuration:
    """Equilateral triangles erected on each side toward the opposite
    vertex; their centroids form the inner triangle under test, together
    with the first Fermat point of the base triangle.

    The second Fermat point is included under label F2 whenever its
    construction is well-conditioned (it degenerates for an equilateral
    base), so both candidate conventions can be compared.
    """
    apex_a = equilateral_apex(b, c, Orientation.TOWARD_REFERENCE, a)
    apex_b = equilateral_apex(c, a, Orientation.TOWARD_REFERENCE, b)
    apex_c = equilateral_apex(a, b, Orientation.TOWARD_REFERENCE, c)
    o_a = triangle_center(CenterKind.X2, apex_a, b, c)
    o_b = triangle_center(CenterKind.X2, apex_b, c, a)
    o_c = triangle_center(CenterKind.X2, apex_c, a, b)
    f1 = triangle_center(CenterKind.X13, a, b, c)
    objects: dict[str, GeomObject] = {
        "A": a, "B": b, "C": c,
        "A'": apex_a, "B'": apex_b, "C'": apex_c,
        "O_a": o_a, "O_b": o_b, "O_c": o_c,
        "F1": f1,
    }
    try:
        objects["F2"] = triangle_center(CenterKind.X14, a, b, c)
    except IllConditioned:
        pass  # equilateral base: no usable second Fermat point
    edges = (("A", "B"), ("B", "C"), ("C", "A"),
             ("B", "A'"), ("C", "A'"), ("C", "B'"), ("A", "B'"),
             ("A", "C'"), ("B", "C'"),
             ("O_a", "O_b"), ("O_b", "O_c"), ("O_c", "O_a"))
    return Configuration(objects, {"vertices": (a, b, c)}, edges)


def build_example2(a: Point, b: Point, c: Point) -> Configuration:
    """Second Fermat points of the three triangles cut off by the first
    Fermat point, together with both Fermat points of the base triangle."""
    f1 = triangle_center(CenterKind.X13, a, b, c)
    f2 = triangle_center(CenterKind.X14, a, b, c)
    f_a = triangle_center(CenterKind.X14, f1, b, c)
    f_b = triangle_center(CenterKind.X14, f1, a, c)
    f_c = triangle_center(CenterKind.X14, f1, a, b)
    objects: dict[str, GeomObject] = {
        "A": a, "B": b, "C": c,
        "F1": f1, "F2": f2,
        "F_a": f_a, "F_b": f_b, "F_c": f_c,
    }
    edges = (("A", "B"), ("B", "C"), ("C", "A"),
             ("F_a", "F_b"), ("F_b", "F_c"), ("F_c", "F_a"))
    return Configuration(objects, {"vertices": (a, b, c)}, edges)


def build_example3(a: Point, b: Point, c: Point, p: Point) -> Configuration:
    """Nine-point centers of the three triangles obtained by replacing one
    vertex with its circumcircle re-intersection through an interior point,
    plus their line and midpoint reflections in the corresponding sides."""
    circ = circumcircle(a, b, c)
    diam = max(dist(a, b), dist(b, c), dist(c, a))
    for v in (a, b, c):
        if dist(p, v) <= FLOOR * max(1.0, diam):
            raise PointOnVertex(f"cevian point {p} coincides with vertex {v}")
    if dist(p, circ.center) >= circ.radius * (1.0 - FLOOR):
        raise PointOutsideCircumcircle(
            f"cevian point {p} is not strictly inside the circumcircle")
    a2 = second_intersection(a, p, circ)
    b2 = second_intersection(b, p, circ)
    c2 = second_intersection(c, p, circ)
    n = triangle_center(CenterKind.X5, a, b, c)
    n_a = triangle_center(CenterKind.X5, a2, b, c)
    n_b = triangle_center(CenterKind.X5, b2, a, c)
    n_c = triangle_center(CenterKind.X5, c2, a, b)
    side_a = line_through(b, c)
    side_b = line_through(a, c)
    side_c = line_through(a, b)
    objects: dict[str, GeomObject] = {
        "A": a, "B": b, "C": c, "P": p,
        "A'": a2, "B'": b2, "C'": c2,
        "N": n, "N_a": n_a, "N_b": n_b, "N_c": n_c,
        "N_a'": reflect_line(n_a, side_a),
        "N_b'": reflect_line(n_b, side_b),
        "N_c'": reflect_line(n_c, side_c),
        "N_a''": reflect_point(n_a, midpoint(b, c)),
        "N_b''": reflect_point(n_b, midpoint(a, c)),
        "N_c''": reflect_point(n_c, midpoint(a, b)),
        "circumcircle": circ,
    }
    edges = (("A", "B"), ("B", "C"), ("C", "A"),
             ("A", "A'"), ("B", "B'"), ("C", "C'"))
    return Configuration(objects, {"vertices": (a, b, c, p)}, edges)
