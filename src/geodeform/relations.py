"""Numerical detectors for geometric coincidences.

Every detector returns a :class:`RelationVerdict` whose residual is
dimensionless: defects are divided by the diameter of the defining points
(or by an explicitly supplied scale when the points are a subset of a
larger figure), computed in a frame scaled by a power-of-two snap of that
quantity.  Power of two, because dividing by it is exact in binary
floating point, which makes every residual bit-for-bit invariant under
scaling the inputs by any power of two and keeps it stable to a few ulps
under any other similarity.

A detector returns the residual; the threshold that judges it is the
caller's (`passed` reads REL_TOL, the default).  The degeneracy guards
inside the detectors are the fixed FLOOR and GUARD of `core`.

Each relation kind is one row of RELATIONS: its point counts, whether
it reads the claim's scale, and its detector, reached through
`evaluate_relation`.  That function puts the points in their normalized
frame and, for a kind that reads the scale, passes a coincident cluster
without measuring it; a detector only measures.  Every detector takes
points whose coordinates are floats or float64 arrays, one row per
sample, like the constructions of `core`; a branch between verdicts goes
through `_branch`, so the flags of a batch are those of the rows that
raise them.  `on_conic` decomposes the design matrices of all rows in one
call of numpy's SVD.

Residuals below NOISE_FLOOR are reported as exactly 0.0.  Digits down
there are recomputation noise, not geometry: re-running the same check on
a rotated or rescaled copy of the inputs lands on a different point of the
noise band, so collapsing the band is what makes reports reproducible
across equivalent frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .core import (
    FLOOR,
    GUARD,
    CoincidentPoints,
    GeometryError,
    Point,
    array_module,
    circumcircle,
    _cross,
    _local_scale,
    _meet,
    diameter,
    dist,
    guard,
    hypot,
    least_squares_meet,
    line_through,
    maximum,
    midpoint,
    minimum,
    only_rows,
    pow2_near,
    signed_area,
    sqrt,
    where,
)

__all__ = [
    "REL_TOL",
    "NOISE_FLOOR",
    "TooFewPoints",
    "DegeneratePosition",
    "RelationVerdict",
    "RELATIONS",
    "arity_fits",
    "evaluate_relation",
]


# the default verdict threshold: a residual at or below it passes
REL_TOL = 1e-9

# Anything below this is indistinguishable from double-precision roundoff
# for the problem sizes this package handles (defects of unit-scale
# figures).  Well under the default decision threshold REL_TOL.
NOISE_FLOOR = 1e-14


class TooFewPoints(GeometryError):
    pass


class DegeneratePosition(GeometryError):
    """Input positions make the fitted object non-unique."""


@dataclass(frozen=True)
class RelationVerdict:
    """Outcome of one relation check.

    `flags` records degenerate sub-cases that were decided by convention;
    `error` carries the message when evaluation itself failed (the
    residual is then inf).  On a batch, `residual` holds one row per
    sample and `flags` those raised on any row.
    """

    kind: str
    residual: float
    flags: tuple[str, ...] = ()
    error: str | None = None

    @property
    def passed(self) -> bool:
        """Whether the residual is within the default threshold REL_TOL;
        a caller with its own threshold compares `residual` itself."""
        return self.residual <= REL_TOL

    @classmethod
    def from_residual(cls, kind: str, residual: float) -> "RelationVerdict":
        return cls(kind, where(residual < NOISE_FLOOR, 0.0, residual))

    @classmethod
    def failed(cls, kind: str, flags: tuple[str, ...] = (),
               error: str | None = None) -> "RelationVerdict":
        return cls(kind, math.inf, flags, error)


# ---------------------------------------------------------------------------
# normalization

def _normalized(points: Sequence[Point], scale: float | None = None
                ) -> tuple[list[Point], float, float, float]:
    """Points divided by a power-of-two snap of the normalization scale.

    The scale defaults to the points' own diameter; callers checking a
    label subset of a larger configuration pass the configuration diameter
    instead, so that defects of a collapsing subset are still measured
    against the whole figure.  Returns the scaled points, their diameter in
    the scaled frame, the normalization denominator in that frame, and the
    power of two divided by.  Power of two, because dividing by it is
    exact.
    """
    cloud = diameter(points)
    basis = cloud if scale is None else scale
    # a basis within the floor leaves the points as they are (snap 1.0)
    tiny = basis <= FLOOR * _local_scale(*points)
    snap = pow2_near(where(tiny, 1.0, basis))
    return ([p / snap for p in points], where(tiny, 0.0, cloud / snap),
            where(tiny, 0.0, basis / snap), snap)


def _branch(cond, then: Callable[[], RelationVerdict],
            otherwise: Callable[[], RelationVerdict]) -> RelationVerdict:
    """then() where cond holds, otherwise() elsewhere.

    On a float test only the taken side runs.  On rows each side runs with
    only its own rows running, so its guards fail, and its flags count,
    in those rows alone; a side with no rows does not run.
    """
    if type(cond) is bool or array_module(cond) is None:
        return then() if cond else otherwise()
    with only_rows(cond) as rows:
        taken = then() if rows.any() else None
    with only_rows(~cond) as rows:
        if taken is not None and not rows.any():
            return taken
        other = otherwise()
    if taken is None:
        return other
    return RelationVerdict(
        other.kind, where(cond, taken.residual, other.residual),
        taken.flags + tuple(f for f in other.flags if f not in taken.flags))


# ---------------------------------------------------------------------------
# point-set detectors

def _collinear(q: Sequence[Point], dq, denom) -> RelationVerdict:
    """Total-least-squares line fit; residual is the worst normal deviation."""
    cx = sum(p.x for p in q) / len(q)
    cy = sum(p.y for p in q) / len(q)
    sxx = sum((p.x - cx) * (p.x - cx) for p in q)
    sxy = sum((p.x - cx) * (p.y - cy) for p in q)
    syy = sum((p.y - cy) * (p.y - cy) for p in q)
    # unit normal of the TLS line: eigenvector of the smaller eigenvalue
    tr = sxx + syy
    disc = sqrt((sxx - syy) * (sxx - syy) + 4.0 * sxy * sxy)
    lam = (tr - disc) / 2.0
    nx, ny = sxy, lam - sxx
    flat = hypot(nx, ny) < 1e-30
    nx, ny = where(flat, lam - syy, nx), where(flat, sxy, ny)
    # isotropic cloud; any direction ties
    flat = hypot(nx, ny) < 1e-30
    nx, ny = where(flat, 1.0, nx), where(flat, 0.0, ny)
    nn = hypot(nx, ny)
    nx, ny = nx / nn, ny / nn
    residual = maximum(*(abs(nx * (p.x - cx) + ny * (p.y - cy))
                         for p in q)) / denom
    return RelationVerdict.from_residual("collinear", residual)


def _anchor_triple(q: Sequence[Point]) -> tuple[int, int, int, float]:
    """The indices of the first widest triple and its area, per row."""
    triples = list(combinations(range(len(q)), 3))
    best, best_area = 0, -1.0
    for n, (i, j, k) in enumerate(triples):
        area = abs(signed_area(q[i], q[j], q[k]))
        wider = area > best_area
        best, best_area = where(wider, n, best), where(wider, area, best_area)
    if type(best) is int or (np := array_module(best)) is None:
        return *triples[best], best_area
    i, j, k = np.array(triples)[best].T
    return i, j, k, best_area


def _pick(points: Sequence[Point], index) -> Point:
    """points[index], per row when index is an array."""
    if type(index) is int or array_module(index) is None:
        return points[index]
    picked = points[0]
    for t in range(1, len(points)):
        picked = where(index == t, points[t], picked)
    return picked


def _concyclic(q: Sequence[Point], dq, denom) -> RelationVerdict:
    """Circle through the widest-spread triple; residual is the worst
    radial deviation of the remaining points."""

    def flat() -> RelationVerdict:
        # every triple is flat: fall back to the line fit, which flags
        # nothing of its own
        return RelationVerdict("concyclic", _collinear(q, dq, denom).residual,
                               ("collinear_witness",))

    def circle_fit(i, j, k) -> RelationVerdict:
        circle = circumcircle(_pick(q, i), _pick(q, j), _pick(q, k))
        # the anchors count 0.0, which the largest deviation of the rest
        # (never negative) takes over
        residual = maximum(*(
            where((t == i) | (t == j) | (t == k), 0.0,
                  abs(dist(p, circle.center) - circle.radius))
            for t, p in enumerate(q))) / denom
        return RelationVerdict.from_residual("concyclic", residual)

    i, j, k, area = _anchor_triple(q)
    return _branch(area <= GUARD * dq * dq, flat,
                   lambda: circle_fit(i, j, k))


def _perpendicular(q: Sequence[Point], dq, denom) -> RelationVerdict:
    """Cosine of the angle between the segments p1p2 and q1q2 of the
    points (p1, p2, q1, q2); the scale does not enter an angle."""
    guard(dq == 0.0, CoincidentPoints,
          "perpendicularity of zero-length segments")
    u = q[1] - q[0]
    w = q[3] - q[2]
    un, wn = u.norm(), w.norm()
    guard(minimum(un, wn) <= FLOOR * dq, CoincidentPoints,
          "perpendicularity of a zero-length segment")
    residual = abs(u.x * w.x + u.y * w.y) / (un * wn)
    return RelationVerdict.from_residual("perpendicular", residual)


def _equal_length(q: Sequence[Point], dq, denom) -> RelationVerdict:
    """Points taken as consecutive segment endpoint pairs; residual is the
    largest pairwise length difference over the diameter."""
    lengths = [dist(q[t], q[t + 1]) for t in range(0, len(q), 2)]
    residual = maximum(*(abs(a - b) for i, a in enumerate(lengths)
                         for b in lengths[i + 1:])) / denom
    return RelationVerdict.from_residual("equal_length", residual)


def _midpoints_coincide(q: Sequence[Point], dq, denom) -> RelationVerdict:
    """Distance between the midpoints of the segments p1p2 and q1q2 of the
    points (p1, p2, q1, q2), over the diameter."""
    return RelationVerdict.from_residual(
        "midpoints_coincide",
        dist(midpoint(q[0], q[1]), midpoint(q[2], q[3])) / denom)


# ---------------------------------------------------------------------------
# line and conic detectors
#
# Lines and conics are built in the normalized frame of the points, so
# their residuals do not depend on the size of the figure; the scale does
# not enter them.

def _concurrent(q: Sequence[Point], dq, denom) -> RelationVerdict:
    """The points in pairs, each pair a line: are the lines concurrent?

    Least-squares common point; residual is the worst distance to any line
    over the larger of the figure's size and the spread of the lines'
    pairwise meets.  A pair of lines parallel within the floor fails the
    verdict."""
    lines = [line_through(q[i], q[i + 1]) for i in range(0, len(q), 2)]
    pairs = [(li, lj) for i, li in enumerate(lines) for lj in lines[i + 1:]]
    crosses = [_cross(li, lj) for li, lj in pairs]

    def meet() -> RelationVerdict:
        # no pair is parallel on the rows this runs on
        meets = [_meet(li, lj, den) for (li, lj), den in zip(pairs, crosses)]
        common = least_squares_meet(lines, 0.0)
        cloud = maximum(dq, diameter(meets))
        residual = maximum(*(abs(l.value(common)) for l in lines)) / cloud
        return RelationVerdict.from_residual("concurrent", residual)

    return _branch(sum(abs(cross) <= FLOOR for cross in crosses) > 0,
                   lambda: RelationVerdict.failed(
                       "concurrent", flags=("non_concurrent_parallel",)), meet)


def _on_conic(q: Sequence[Point], dq, denom) -> RelationVerdict:
    """The conic a x^2 + b xy + c y^2 + d x + e y + f = 0 through the first
    five points; residual is the largest first-order geometric distance
    |f| / |grad f| of the others from it, over the five's diameter.

    The conic is fitted in the normalized frame centered on the five
    points, so the roundoff of its value does not grow with the figure's
    distance from the origin, as the null space of the design matrix,
    computed in a frame centered and scaled again for conditioning.
    """
    # numpy's SVD, the one use of numpy on floats: a program with no
    # on_conic assert runs without loading it
    import numpy as np

    cx = sum(p.x for p in q[:5]) / 5.0
    cy = sum(p.y for p in q[:5]) / 5.0
    q = [Point(p.x - cx, p.y - cy) for p in q]
    five = q[:5]
    r, dr, _, k = _normalized(five)
    # the five's diameter: scaling back by a power of two is exact
    diam = dr * k
    guard(dr == 0.0, DegeneratePosition, "conic fit to a coincident cluster")
    cx = sum(p.x for p in r) / 5.0
    cy = sum(p.y for p in r) / 5.0
    entries = []
    for p in r:
        x, y = p.x - cx, p.y - cy
        entries += [x * x, x * y, y * y, x, y, 1.0]
    # one 5 x 6 design matrix per row, decomposed in one call; a failed
    # row may hold NaN or inf, which the SVD refuses, and is zeroed
    design = np.broadcast_arrays(*entries)
    _, s, vt = np.linalg.svd(np.nan_to_num(np.stack(design, axis=-1).reshape(
        -1, 5, 6), posinf=0.0, neginf=0.0))
    low, high, null = s[:, -1], s[:, 0], vt[:, -1].T
    if design[0].ndim == 0:  # one figure: the floats of its one matrix
        low, high, null = low.item(), high.item(), null[:, 0].tolist()
    guard(low <= FLOOR * maximum(high, 1.0), DegeneratePosition,
          "five points admit more than one conic "
          "(four are collinear or two coincide)")
    a, b, c, d, e, f = null
    # undo the centering x -> x - cx, y -> y - cy
    d2 = d - 2.0 * a * cx - b * cy
    e2 = e - b * cx - 2.0 * c * cy
    f2 = f + a * cx * cx + b * cx * cy + c * cy * cy - d * cx - e * cy
    # undo the scaling p -> p / k
    v = (a / (k * k), b / (k * k), c / (k * k), d2 / k, e2 / k, f2)
    n = sqrt(sum(x * x for x in v))
    guard((n - n != 0.0) | (n == 0.0), DegeneratePosition,
          "conic coefficients are all zero")
    a, b, c, d, e, f = (x / n for x in v)
    size = maximum(diam, FLOOR)

    def distance(p: Point) -> float:
        value = (a * p.x * p.x + b * p.x * p.y + c * p.y * p.y
                 + d * p.x + e * p.y + f)
        grad = Point(2.0 * a * p.x + b * p.y + d,
                     b * p.x + 2.0 * c * p.y + e).norm()
        return abs(value) / maximum(grad * size, FLOOR)

    return RelationVerdict.from_residual(
        "on_conic", maximum(*(distance(p) for p in q[5:])))


# ---------------------------------------------------------------------------
# the relation table, shared by the claim catalog and the script language

# kind: (min points, max points or None, group size the count must divide,
# whether the claim's scale divides the defect, detector over the points,
# diameter and denominator of `_normalized`)
RELATIONS: dict[str, tuple[int, int | None, int, bool,
                           Callable[..., RelationVerdict]]] = {
    "collinear": (3, None, 1, True, _collinear),
    "concyclic": (4, None, 1, True, _concyclic),
    "concurrent": (6, None, 2, False, _concurrent),
    "perpendicular": (4, 4, 2, False, _perpendicular),
    "equal_length": (4, None, 2, True, _equal_length),
    "on_conic": (6, None, 1, False, _on_conic),
    "midpoints_coincide": (4, 4, 2, True, _midpoints_coincide),
}


def arity_fits(kind: str, n: int) -> bool:
    """Whether the relation `kind` takes `n` points."""
    lo, hi, step, *_ = RELATIONS[kind]
    return lo <= n and (hi is None or n <= hi) and n % step == 0


def evaluate_relation(kind: str, points: Sequence[Point],
                      scale: float | None = None) -> RelationVerdict:
    """Evaluate a relation given as a kind of RELATIONS plus a flat point
    list.

    The optional scale overrides the normalization diameter for the kinds
    whose row reads it, those whose residual is a length ratio, so a claim
    about a tight cluster inside a larger figure is still judged against
    the whole figure; for those kinds a cluster of coincident points
    passes, flagged `coincident_cluster`, with nothing to measure.
    ValueError for an unknown kind, TooFewPoints for a point count the
    kind does not take.
    """
    if kind not in RELATIONS:
        raise ValueError(f"unknown relation kind {kind!r}")
    if not arity_fits(kind, len(points)):
        raise TooFewPoints(f"{kind} cannot take {len(points)} points")
    *_, scaled, detect = RELATIONS[kind]
    q, dq, denom, _ = _normalized(points, scale if scaled else None)
    if not scaled:
        return detect(q, dq, denom)
    return _branch(dq == 0.0,
                   lambda: RelationVerdict(kind, 0.0, ("coincident_cluster",)),
                   lambda: detect(q, dq, denom))
