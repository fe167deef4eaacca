"""Built-in deformation families and the claims verified against them.

A family is one of the `.geo` programs shipped in `geodeform/scripts`
plus the degenerate coordinates of its base points; its builder reruns
the program on deformed base points.  Each claim names points of the
family's configuration and the relation they are asserted to satisfy for
every deformed sample, not just in the degenerate base position.  A
claim's labels must be asserted in its family program: the builder
rejects a draw only when a construction an assertion depends on fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.resources import files
from typing import Callable

from .core import Point
from .deform import DeformationFamily, RelationClaim
from .relations import check_concyclic
from .script import family_builder, parse

__all__ = ["UnknownClaim", "BuiltinClaim", "FAMILIES", "CLAIMS", "claim_names"]


class UnknownClaim(KeyError):
    """Requested claim name is not in the catalog."""


_S3 = math.sqrt(3.0)

_SQUARE = (Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0))
_EQUILATERAL = (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, _S3 / 2.0))
_CENTER = Point(0.5, _S3 / 6.0)


def _family(name: str, labels: str, base_points: tuple[Point, ...],
            epsilon_floor: float = 0.0) -> DeformationFamily:
    """The family of program `scripts/<name>.geo`, deformed about
    `base_points` given for the space-separated base `labels`."""
    source = (files("geodeform") / "scripts" / f"{name}.geo").read_text(
        encoding="utf-8")
    builder = family_builder(parse(source), labels.split())
    return DeformationFamily(name, base_points, builder, epsilon_floor)


FAMILIES: dict[str, DeformationFamily] = {
    "theorem1": _family("theorem1", "A B C D", _SQUARE),
    "bisector": _family("bisector", "A B C D", _SQUARE),
    "example1": _family("example1", "A B C", _EQUILATERAL),
    "example2": _family("example2", "A B C", _EQUILATERAL, epsilon_floor=1e-6),
    "example3": _family("example3", "A B C P", _EQUILATERAL + (_CENTER,)),
}


def _example1_convention(config) -> dict[str, object]:
    """Which Fermat point sits on the circle of the erected-triangle
    centroids?  Recorded so reports pin the convention explicitly."""
    base = [config.point("O_a"), config.point("O_b"), config.point("O_c")]
    notes: dict[str, object] = {}
    for label in ("F1", "F2"):
        if label in config.objects:
            verdict = check_concyclic(base + [config.point(label)])
            if verdict.passed:
                notes["convention"] = f"{label} lies on the centroid circle"
                break
    return notes


@dataclass(frozen=True)
class BuiltinClaim:
    name: str
    family: DeformationFamily
    claim: RelationClaim
    annotate: Callable | None = None


CLAIMS: dict[str, BuiltinClaim] = {
    claim.name: claim for claim in [
        BuiltinClaim(
            "theorem1_perp",
            FAMILIES["theorem1"],
            RelationClaim("perpendicular", ("O_ab", "O_cd", "O_bc", "O_da"),
                          "apex diagonals are perpendicular"),
        ),
        BuiltinClaim(
            "theorem1_equal",
            FAMILIES["theorem1"],
            RelationClaim("equal_length", ("O_ab", "O_cd", "O_bc", "O_da"),
                          "apex diagonals have equal length"),
        ),
        BuiltinClaim(
            "bisector_concyclic",
            FAMILIES["bisector"],
            RelationClaim("concyclic", ("O_1", "O_2", "O_3", "O_4"),
                          "adjacent-bisector meets are concyclic"),
        ),
        BuiltinClaim(
            "example1_equilateral",
            FAMILIES["example1"],
            RelationClaim("equal_length",
                          ("O_a", "O_b", "O_b", "O_c", "O_c", "O_a"),
                          "erected-triangle centroids form an equilateral "
                          "triangle"),
        ),
        BuiltinClaim(
            "example1_fermat_on_circle",
            FAMILIES["example1"],
            RelationClaim("concyclic", ("O_a", "O_b", "O_c", "F1"),
                          "first Fermat point lies on the centroid circle"),
            annotate=_example1_convention,
        ),
        BuiltinClaim(
            "example2_concyclic",
            FAMILIES["example2"],
            RelationClaim("concyclic", ("F_a", "F_b", "F_c", "F2"),
                          "second Fermat point lies on the sub-triangle "
                          "Fermat circle"),
        ),
        BuiltinClaim(
            "example3_prime_concyclic",
            FAMILIES["example3"],
            RelationClaim("concyclic", ("N_a'", "N_b'", "N_c'", "N"),
                          "line-reflected nine-point centers are concyclic "
                          "with the base one"),
        ),
        BuiltinClaim(
            "example3_doubleprime_concyclic",
            FAMILIES["example3"],
            RelationClaim("concyclic", ("N_a''", "N_b''", "N_c''", "N"),
                          "midpoint-reflected nine-point centers are "
                          "concyclic with the base one"),
        ),
    ]
}


def claim_names() -> list[str]:
    return list(CLAIMS)


def get_claim(name: str) -> BuiltinClaim:
    try:
        return CLAIMS[name]
    except KeyError:
        raise UnknownClaim(name) from None
