"""Labeled geometric configurations.

A Configuration is a label -> object map with enough edge information to
render a faithful diagram.  The built-in figures, the deformation
families and the decorated base shapes alike, are the shipped `.geo`
programs (see script.py); the rejections they raise on degenerate input
are defined here, and callers that sample random inputs treat them, like
every GeometryError, as rejections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Circle, GeometryError, Point

__all__ = [
    "NonConvexQuadrilateral",
    "PointOutsideCircumcircle",
    "PointOnVertex",
    "Configuration",
]


class NonConvexQuadrilateral(GeometryError):
    """The four vertices, in order, do not bound a strictly convex quad."""


class PointOutsideCircumcircle(GeometryError):
    pass


class PointOnVertex(GeometryError):
    pass


GeomObject = Point | Circle


@dataclass(frozen=True)
class Configuration:
    """Labeled objects plus the params that placed them and drawable
    edges.

    Edges are pairs of point labels; they carry no geometric information
    beyond what the points already fix and exist for rendering.
    """

    objects: dict[str, GeomObject]
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
