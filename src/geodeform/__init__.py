"""Numerical verification of geometric coincidences under deformation.

The package starts from degenerate figures (a square, an equilateral
triangle) in which several constructed points collapse together, deforms
them randomly, and measures which relations among the constructed points
survive.  Relations whose residual stays at the floating-point noise
floor for every deformation are reported as theorems; relations whose
residual grows with the deformation magnitude are only approximate
coincidences of the degenerate position.

An export loads its module on first access (PEP 562), so `run`, `render`
and `shapes` start without the row sampler and the claim catalog, which
only `verify` uses.
"""

from importlib import import_module

# `render` is the one export named as its module is: importing the module
# `geodeform.render` would bind the package attribute to the module, so
# the function is bound here, before any such import
from .render import render, render_svg

__version__ = "0.1.0"

# the exports of each module
_EXPORTS = {
    "catalog": ("CLAIMS", "FAMILIES", "NamedClaim", "claim_names",
                "program_claims"),
    "centers": ("CenterKind", "IllConditioned", "Orientation",
                "equilateral_apex", "right_isosceles_apex",
                "triangle_center"),
    "configurations": ("Configuration", "NonConvexQuadrilateral",
                       "PointOnVertex", "PointOutsideCircumcircle"),
    "core": ("FLOOR", "GUARD", "Circle", "CoincidentPoints",
             "CollinearPoints", "DegenerateAngleWarning", "GeometryError",
             "Line", "NonFiniteInput", "Parallel", "Point", "angle_bisector",
             "circumcircle", "dist", "intersect", "line_through", "midpoint",
             "reflect_line", "reflect_point", "rotate", "signed_area"),
    "deform": ("DeformationFamily", "RejectionBudgetExhausted",
               "RelationClaim", "SplitMix64", "VerificationReport",
               "fit_scaling_exponent", "sample", "scaling_probe", "verify"),
    "relations": ("REL_TOL", "DegeneratePosition", "RelationVerdict",
                  "TooFewPoints", "evaluate_relation"),
    "script": ("ArityError", "ParseError", "Program", "UnknownParam",
               "UseBeforeDefine", "deformation_family", "evaluate", "parse",
               "second_intersection"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name == "__all__":  # `from geodeform import *` loads every export
        return ["__version__", "render", "render_svg", *_HOME]
    if name in _EXPORTS:  # `geodeform.deform` needs no import of its own
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
