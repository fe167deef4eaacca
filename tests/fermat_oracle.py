"""Weiszfeld iteration for the first Fermat point, kept in the tests as a
reference independent of the constructive `triangle_center(X13, ...)`."""

from __future__ import annotations

import warnings

from geodeform.centers import _require_triangle
from geodeform.core import Point, dist


class ObtuseFermatWarning(UserWarning):
    """An angle of 120 degrees or more: the Fermat point is that vertex."""


def fermat_oracle(a: Point, b: Point, c: Point,
                  max_iter: int = 100_000) -> Point:
    """Geometric median of the three vertices by Weiszfeld iteration.

    Independent of the constructive first Fermat point: when every angle is
    below 120 degrees the two must agree.  With an angle of 120 degrees or
    more the minimizer is that vertex; it is returned and a warning emitted.
    """
    diam = _require_triangle(a, b, c)
    pts = (a, b, c)
    for i, v in enumerate(pts):
        u = pts[(i + 1) % 3] - v
        w = pts[(i + 2) % 3] - v
        cosang = (u.x * w.x + u.y * w.y) / (u.norm() * w.norm())
        if cosang <= -0.5:
            warnings.warn("angle of 120 degrees or more: Fermat point is the "
                          "vertex itself", ObtuseFermatWarning, stacklevel=2)
            return v
    y = Point((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)
    step_tol = 1e-12 * diam
    for _ in range(max_iter):
        wsum = 0.0
        nx = ny = 0.0
        for p in pts:
            d = dist(y, p)
            if d < 1e-18 * diam:
                return p  # landed on a vertex; cannot improve from here
            w = 1.0 / d
            wsum += w
            nx += w * p.x
            ny += w * p.y
        new = Point(nx / wsum, ny / wsum)
        if dist(new, y) < step_tol:
            return new
        y = new
    return y
