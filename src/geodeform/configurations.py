"""Labeled geometric configurations and a small catalog of decorated base
shapes.

A Configuration is a label -> object map with enough edge information to
render a faithful diagram.  The built-in figures are the shipped `.geo`
programs (see script.py); the rejections they raise on degenerate input
are defined here, and callers that sample random inputs treat them, like
every GeometryError, as rejections.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .core import (
    DEFAULT_TOL,
    Circle,
    GeometryError,
    Line,
    Point,
    ToleranceBudget,
    diameter,
    midpoint,
)

__all__ = [
    "NonConvexQuadrilateral",
    "PointOutsideCircumcircle",
    "PointOnVertex",
    "Configuration",
    "ShapeKind",
    "base_shape",
]


class NonConvexQuadrilateral(GeometryError):
    """The four vertices, in order, do not bound a strictly convex quad."""


class PointOutsideCircumcircle(GeometryError):
    pass


class PointOnVertex(GeometryError):
    pass


GeomObject = Point | Line | Circle


@dataclass(frozen=True)
class Configuration:
    """Labeled objects plus provenance and drawable edges.

    Edges are pairs of point labels; they carry no geometric information
    beyond what the points already fix and exist for rendering.
    """

    objects: dict[str, GeomObject]
    builder: str
    params: dict[str, object] = field(default_factory=dict)
    edges: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        for label in self.objects:
            if not label or not label.isascii():
                raise ValueError(f"bad object label {label!r}")
        for a, b in self.edges:
            if a not in self.objects or b not in self.objects:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown labels")

    def point(self, label: str) -> Point:
        obj = self.objects[label]
        if not isinstance(obj, Point):
            raise TypeError(f"object {label!r} is a {type(obj).__name__}, not a Point")
        return obj

    def points(self) -> dict[str, Point]:
        return {k: v for k, v in self.objects.items() if isinstance(v, Point)}

    def diameter(self) -> float:
        return diameter(list(self.points().values()))


class ShapeKind(enum.Enum):
    TRIANGLE_WITH_CENTER = "triangle_with_center"
    TRIANGLE_WITH_CENTER_2 = "triangle_with_center_2"
    TRIANGLE_WITH_CEVIANS = "triangle_with_cevians"
    TRIANGLE_WITH_MIDPOINT_TRIANGLE = "triangle_with_midpoint_triangle"
    TRIANGULATED_TRIANGLE = "triangulated_triangle"
    TRIANGLE_WITH_INCIRCLE = "triangle_with_incircle"
    REGULAR_HEXAGON = "regular_hexagon"
    REGULAR_HEXAGON_2 = "regular_hexagon_2"
    HEXAGONAL_STAR = "hexagonal_star"
    CROWN = "crown"


# ---------------------------------------------------------------------------
# decorated base shapes (unit equilateral triangle and friends)

_S3 = math.sqrt(3.0)

_A = Point(0.0, 0.0)
_B = Point(1.0, 0.0)
_C = Point(0.5, _S3 / 2.0)
_O = Point(0.5, _S3 / 6.0)

_M_AB = midpoint(_A, _B)
_M_BC = midpoint(_B, _C)
_M_CA = midpoint(_C, _A)

# hexagon vertices: the triangle vertices plus the reflections of the
# center in each side
_H_AB = Point(0.5, -_S3 / 6.0)
_H_BC = Point(1.0, _S3 / 3.0)
_H_CA = Point(0.0, _S3 / 3.0)

# side points one third of the way along, named from-corner toward-corner
_T_AB_1 = Point(1.0 / 3.0, 0.0)
_T_AB_2 = Point(2.0 / 3.0, 0.0)
_T_BC_1 = Point(5.0 / 6.0, _S3 / 6.0)
_T_BC_2 = Point(2.0 / 3.0, _S3 / 3.0)
_T_CA_1 = Point(1.0 / 3.0, _S3 / 3.0)
_T_CA_2 = Point(1.0 / 6.0, _S3 / 6.0)

_TRIANGLE = {"A": _A, "B": _B, "C": _C}
_SIDES = (("A", "B"), ("B", "C"), ("C", "A"))
_HEX_RING = (("C", "H_ca"), ("H_ca", "A"), ("A", "H_ab"),
             ("H_ab", "B"), ("B", "H_bc"), ("H_bc", "C"))


def base_shape(kind: ShapeKind, tol: ToleranceBudget = DEFAULT_TOL) -> Configuration:
    """A canonical decorated shape at unit scale (equilateral side 1)."""
    if kind is ShapeKind.TRIANGLE_WITH_CENTER:
        objects: dict[str, GeomObject] = {**_TRIANGLE, "O": _O}
        edges: tuple[tuple[str, str], ...] = _SIDES
    elif kind is ShapeKind.TRIANGLE_WITH_CENTER_2:
        objects = {**_TRIANGLE, "O": _O}
        edges = _SIDES + (("O", "A"), ("O", "B"), ("O", "C"))
    elif kind is ShapeKind.TRIANGLE_WITH_CEVIANS:
        objects = {**_TRIANGLE, "O": _O,
                   "M_ab": _M_AB, "M_bc": _M_BC, "M_ca": _M_CA}
        edges = _SIDES + (("C", "M_ab"), ("A", "M_bc"), ("B", "M_ca"))
    elif kind is ShapeKind.TRIANGLE_WITH_MIDPOINT_TRIANGLE:
        objects = {**_TRIANGLE, "O": _O,
                   "M_ab": _M_AB, "M_bc": _M_BC, "M_ca": _M_CA}
        edges = _SIDES + (("C", "M_ab"), ("A", "M_bc"), ("B", "M_ca"),
                          ("M_ab", "M_bc"), ("M_bc", "M_ca"), ("M_ca", "M_ab"))
    elif kind is ShapeKind.TRIANGULATED_TRIANGLE:
        objects = {**_TRIANGLE, "O": _O,
                   "T_ab_1": _T_AB_1, "T_ab_2": _T_AB_2,
                   "T_bc_1": _T_BC_1, "T_bc_2": _T_BC_2,
                   "T_ca_1": _T_CA_1, "T_ca_2": _T_CA_2}
        edges = _SIDES + (("T_ab_1", "T_ca_2"), ("T_ca_2", "T_bc_1"),
                          ("T_bc_1", "T_ab_2"), ("T_ab_2", "T_ca_1"),
                          ("T_ca_1", "T_bc_2"), ("T_ab_1", "T_bc_2"))
    elif kind is ShapeKind.TRIANGLE_WITH_INCIRCLE:
        objects = {**_TRIANGLE, "O": _O,
                   "M_ab": _M_AB, "M_bc": _M_BC, "M_ca": _M_CA,
                   "incircle": Circle(_O, _S3 / 6.0)}
        edges = _SIDES
    elif kind is ShapeKind.REGULAR_HEXAGON:
        objects = {**_TRIANGLE, "H_ab": _H_AB, "H_bc": _H_BC, "H_ca": _H_CA,
                   "O": _O}
        edges = _HEX_RING + _SIDES + (("O", "A"), ("O", "B"), ("O", "C"))
    elif kind is ShapeKind.REGULAR_HEXAGON_2:
        objects = {**_TRIANGLE, "H_ab": _H_AB, "H_bc": _H_BC, "H_ca": _H_CA,
                   "O": _O}
        edges = _HEX_RING + (("A", "H_bc"), ("B", "H_ca"), ("C", "H_ab"))
    elif kind is ShapeKind.HEXAGONAL_STAR:
        objects = {**_TRIANGLE, "H_ab": _H_AB, "H_bc": _H_BC, "H_ca": _H_CA,
                   "T_ab_1": _T_AB_1, "T_ab_2": _T_AB_2,
                   "T_bc_1": _T_BC_1, "T_bc_2": _T_BC_2,
                   "T_ca_1": _T_CA_1, "T_ca_2": _T_CA_2}
        edges = _SIDES + _HEX_RING + (("H_ab", "H_bc"), ("H_bc", "H_ca"),
                                      ("H_ca", "H_ab"))
    elif kind is ShapeKind.CROWN:
        objects = {**_TRIANGLE, "H_ca": _H_CA, "H_bc": _H_BC, "O": _O}
        edges = _SIDES + (("A", "H_ca"), ("B", "H_bc"),
                          ("H_ca", "B"), ("A", "H_bc"))
    else:
        raise ValueError(f"unsupported shape kind {kind!r}")
    return Configuration(dict(objects), "base_shape", {"kind": kind.value}, edges)
