"""Numerical verification of geometric coincidences under deformation.

The package starts from degenerate figures (a square, an equilateral
triangle) in which several constructed points collapse together, deforms
them randomly, and measures which relations among the constructed points
survive.  Relations whose residual stays at the floating-point noise
floor for every deformation are reported as theorems; relations whose
residual grows with the deformation magnitude are only approximate
coincidences of the degenerate position.
"""

from .catalog import CLAIMS, FAMILIES, NamedClaim, claim_names, \
    program_claims
from .centers import (
    CenterKind,
    IllConditioned,
    Orientation,
    equilateral_apex,
    right_isosceles_apex,
    triangle_center,
)
from .configurations import (
    Configuration,
    NonConvexQuadrilateral,
    PointOnVertex,
    PointOutsideCircumcircle,
)
from .core import (
    FLOOR,
    GUARD,
    Circle,
    CoincidentPoints,
    CollinearPoints,
    DegenerateAngleWarning,
    GeometryError,
    Line,
    NonFiniteInput,
    Parallel,
    Point,
    angle_bisector,
    circumcircle,
    dist,
    intersect,
    line_through,
    midpoint,
    reflect_line,
    reflect_point,
    rotate,
    signed_area,
)
from .deform import (
    DeformationFamily,
    RejectionBudgetExhausted,
    RelationClaim,
    SplitMix64,
    VerificationReport,
    fit_scaling_exponent,
    sample,
    scaling_probe,
    verify,
)
from .relations import REL_TOL, DegeneratePosition, RelationVerdict, \
    TooFewPoints, evaluate_relation
from .render import render, render_svg
from .script import ArityError, ParseError, Program, UnknownParam, \
    UseBeforeDefine, deformation_family, evaluate, parse, second_intersection

__version__ = "0.1.0"
