"""Built-in deformation families and the claims verified against them,
loaded from the `.geo` programs shipped in `geodeform/scripts`.

A family program is the only description of its family: its `deform`
statement gives the degenerate base figure and the floor of the
deformation magnitude, and each named assert (`assert ... as NAME
"description"`) is a claim, verified for every deformed sample and not
just in the degenerate base position.  `program_claims` loads any program
this way, which is how `verify PROGRAM.geo` judges a user's figure.

`CLAIMS` and `FAMILIES` are built on first access: a family's builder
belongs to the row sampler in `deform`, which only `verify` loads.
`claim_names` reads the names from the parsed programs and builds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files
from typing import TYPE_CHECKING, Callable

from .relations import evaluate_relation
from .script import AssertStmt, Program, deformation_family, parse

if TYPE_CHECKING:
    from .deform import DeformationFamily, RelationClaim

__all__ = ["NamedClaim", "FAMILIES", "CLAIMS", "claim_names",
           "program_claims"]

# the shipped families, in the order of `verify all`
_SHIPPED = ("theorem1", "bisector", "example1", "example2", "example3")

# bound by `__getattr__` on first access
CLAIMS: dict[str, NamedClaim]
FAMILIES: dict[str, DeformationFamily]


@dataclass(frozen=True)
class NamedClaim:
    """A claim by name: its family, its relation, and an optional report
    note computed from one sampled configuration."""

    name: str
    family: DeformationFamily
    claim: RelationClaim
    annotate: Callable | None = None


def _example1_convention(config) -> dict[str, object]:
    """Which Fermat point sits on the circle of the erected-triangle
    centroids?  Recorded so reports pin the convention explicitly."""
    base = [config.point("O_a"), config.point("O_b"), config.point("O_c")]
    notes: dict[str, object] = {}
    for label in ("F1", "F2"):
        if label in config.objects:
            verdict = evaluate_relation("concyclic",
                                        base + [config.point(label)])
            if verdict.passed:
                notes["convention"] = f"{label} lies on the centroid circle"
                break
    return notes


# report notes by claim name: a note is not a relation, so no program
# states it
_NOTES = {"example1_fermat_on_circle": _example1_convention}


def _claim_asserts(program: Program) -> list[AssertStmt]:
    """The claims of `program`: its named asserts, in program order."""
    return [stmt for stmt in program.asserts() if stmt.name is not None]


def program_claims(program: Program, name: str) -> dict[str, NamedClaim]:
    """The named asserts of `program` as claims of its family `name`, in
    program order.  ValueError when the program has no `deform` statement
    or no named assert."""
    from .deform import RelationClaim

    family = deformation_family(program, name)
    claims = {stmt.name: NamedClaim(stmt.name, family,
                                    RelationClaim(stmt.kind, stmt.labels,
                                                  stmt.description),
                                    _NOTES.get(stmt.name))
              for stmt in _claim_asserts(program)}
    if not claims:
        raise ValueError(f"program {name!r} has no named assert "
                         f"(assert ... as NAME \"description\")")
    return claims


def _shipped(name: str) -> Program:
    source = (files("geodeform") / "scripts" / f"{name}.geo").read_text(
        encoding="utf-8")
    return parse(source)


def claim_names() -> list[str]:
    """The built-in claims' names, in the order of `verify all`."""
    return [stmt.name for family in _SHIPPED
            for stmt in _claim_asserts(_shipped(family))]


def __getattr__(name: str):
    if name not in ("CLAIMS", "FAMILIES"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    claims = {claim_name: claim for family in _SHIPPED
              for claim_name, claim in program_claims(_shipped(family),
                                                      family).items()}
    families = {claim.family.name: claim.family for claim in claims.values()}
    globals().update(CLAIMS=claims, FAMILIES=families)
    return globals()[name]
