"""Golden residuals: the bits every relation kind gives on fixed figures.

For each kind, seven figures: in general position, on the kind's locus,
on one line, a cluster of coincident points, a generic figure a thousand
sizes from the origin, a generic figure judged against an external
scale, and the cluster judged against that scale.  Each records the `float.hex` of the residual and the flags, or the
class of the error that `evaluate_relation` raises.  A change to a
detector's arithmetic or to its order of operations shows here as a
changed bit."""

import pytest

from geodeform.core import GeometryError, Point, failures
from geodeform.relations import RELATIONS, evaluate_relation

# nine points in general position: no three collinear, no four concyclic
GENERIC = [(0.12, 0.31), (1.07, -0.22), (1.93, 0.58), (0.71, 1.46),
           (-0.38, 0.94), (1.41, 1.83), (2.36, -0.47), (-0.19, -0.66),
           (0.87, 0.43)]

# a figure on which each kind holds, with exactly representable points
ON_LOCUS = {
    "collinear": [(0, 0), (1, 1), (2, 2), (3.5, 3.5)],
    "concyclic": [(5, 0), (3, 4), (-4, 3), (0, -5), (-3, -4)],
    "concurrent": [(0, 0), (2, 2), (1, 0), (1, 3), (0, 1), (3, 1)],
    "perpendicular": [(0, 0), (0, 2), (-1, 1), (1, 1)],
    "equal_length": [(0, 0), (3, 4), (1, 1), (6, 1)],
    "on_conic": [(5, 0), (3, 4), (-4, 3), (0, -5), (-3, -4), (4, -3)],
    "midpoints_coincide": [(0, 0), (2, 2), (0, 2), (2, 0)],
}


def fixtures(kind):
    """(name, points, scale) for the seven figures of `kind`."""
    n = RELATIONS[kind][0]
    generic = [Point(x, y) for x, y in GENERIC[:n]]
    return [
        ("generic", generic, None),
        ("on_locus", [Point(x, y) for x, y in ON_LOCUS[kind]], None),
        ("flat", [Point(float(t), 0.5 * t + 0.25) for t in range(n)], None),
        ("cluster", [Point(0.3, 0.7)] * n, None),
        ("far", [Point(x + 3000.0, y - 2000.0) for x, y in GENERIC[:n]],
         None),
        ("scaled", generic, 10.0),
        ("cluster_scaled", [Point(0.3, 0.7)] * n, 10.0),
    ]


def outcome(kind, points, scale):
    try:
        verdict = evaluate_relation(kind, points, scale)
    except GeometryError as exc:
        return type(exc).__name__
    return verdict.residual.hex(), verdict.flags


GOLDEN = {
    "collinear": {
        "generic": ("0x1.eee6fd4266c43p-3", ()),
        "on_locus": ("0x0.0p+0", ()),
        "flat": ("0x0.0p+0", ()),
        "cluster": ("0x0.0p+0", ("coincident_cluster",)),
        "far": ("0x1.eee6fd4266e59p-3", ()),
        "scaled": ("0x1.6a461de6778aap-5", ()),
        "cluster_scaled": ("0x0.0p+0", ("coincident_cluster",)),
    },
    "concyclic": {
        "generic": ("0x1.0d384e6dc6155p-4", ()),
        "on_locus": ("0x0.0p+0", ()),
        "flat": ("0x0.0p+0", ("collinear_witness",)),
        "cluster": ("0x0.0p+0", ("coincident_cluster",)),
        "far": ("0x1.0d384e6dc6793p-4", ()),
        "scaled": ("0x1.8a24d5bfd312dp-7", ()),
        "cluster_scaled": ("0x0.0p+0", ("coincident_cluster",)),
    },
    "concurrent": {
        "generic": ("0x1.d4a153eda64d9p-5", ()),
        "on_locus": ("0x0.0p+0", ()),
        "flat": ("inf", ("non_concurrent_parallel",)),
        "cluster": "CoincidentPoints",
        "far": ("0x1.d4a153edaadecp-5", ()),
        "scaled": ("0x1.d4a153eda64d9p-5", ()),
        "cluster_scaled": "CoincidentPoints",
    },
    "perpendicular": {
        "generic": ("0x1.fc8f1af6e1f83p-1", ()),
        "on_locus": ("0x0.0p+0", ()),
        "flat": ("0x1.ffffffffffffep-1", ()),
        "cluster": "CoincidentPoints",
        "far": ("0x1.fc8f1af6e1e61p-1", ()),
        "scaled": ("0x1.fc8f1af6e1f83p-1", ()),
        "cluster_scaled": "CoincidentPoints",
    },
    "equal_length": {
        "generic": ("0x1.d204968316b41p-3", ()),
        "on_locus": ("0x0.0p+0", ()),
        "flat": ("0x0.0p+0", ()),
        "cluster": ("0x0.0p+0", ("coincident_cluster",)),
        "far": ("0x1.d20496831535dp-3", ()),
        "scaled": ("0x1.5521558d9fd26p-5", ()),
        "cluster_scaled": ("0x0.0p+0", ("coincident_cluster",)),
    },
    "on_conic": {
        "generic": ("0x1.a371c772ab763p-3", ()),
        "on_locus": ("0x0.0p+0", ()),
        "flat": "DegeneratePosition",
        "cluster": "DegeneratePosition",
        "far": ("0x1.a371c772ab1efp-3", ()),
        "scaled": ("0x1.a371c772ab763p-3", ()),
        "cluster_scaled": "DegeneratePosition",
    },
    "midpoints_coincide": {
        "generic": ("0x1.53eea695b8696p-1", ()),
        "on_locus": ("0x0.0p+0", ()),
        "flat": ("0x1.5555555555555p-1", ()),
        "cluster": ("0x0.0p+0", ("coincident_cluster",)),
        "far": ("0x1.53eea695b7fa5p-1", ()),
        "scaled": ("0x1.f1ab10122cc0ep-4", ()),
        "cluster_scaled": ("0x0.0p+0", ("coincident_cluster",)),
    },
}


def test_every_kind_has_golden_figures():
    """A kind added to or deleted from RELATIONS takes its golden rows
    with it."""
    assert set(GOLDEN) == set(ON_LOCUS) == set(RELATIONS)


@pytest.mark.parametrize("kind", list(RELATIONS))
def test_residuals_flags_and_errors_are_pinned(kind):
    got = {name: outcome(kind, points, scale)
           for name, points, scale in fixtures(kind)}
    assert got == GOLDEN[kind]


@pytest.mark.parametrize("kind", list(RELATIONS))
def test_a_batch_of_the_figures_gives_their_bits(kind):
    """The five figures without a scale as the rows of one batch: each row
    has its float residual, the rows whose figure raises are marked
    failed, and the batch raises the flags of its rows."""
    np = pytest.importorskip("numpy")
    cases = [points for _, points, scale in fixtures(kind) if scale is None]
    golden = [GOLDEN[kind][name] for name, _, scale in fixtures(kind)
              if scale is None]
    rows = [Point(np.array([points[t].x for points in cases]),
                  np.array([points[t].y for points in cases]))
            for t in range(len(cases[0]))]
    # a failed row's arithmetic runs on and warns, as in a sweep
    with np.errstate(all="ignore"), failures() as failed:
        verdict = evaluate_relation(kind, rows)
    raised = [isinstance(expect, str) for expect in golden]
    assert list(failed.rows) == raised
    for r, expect in enumerate(golden):
        if not raised[r]:
            assert float(verdict.residual[r]).hex() == expect[0], r
    assert set(verdict.flags) == {flag for expect in golden
                                  if not isinstance(expect, str)
                                  for flag in expect[1]}
