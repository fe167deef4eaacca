"""The batched sweep against the per-draw loop it replaces.

A sweep draws, builds and judges all samples of one family and epsilon
as float64 rows.  Row i must be bit for bit the single sample of seed +
i: every built point and every claim's residual, and every report and
error message that follows from them.
"""

import cProfile
import dataclasses
import pstats
from importlib.resources import files

import numpy as np
import pytest

from geodeform import deform
from geodeform.catalog import CLAIMS, FAMILIES, program_claims
from geodeform.cli import main
from geodeform.core import GeometryError, Point, failures, guard
from geodeform.deform import RejectionBudgetExhausted, sample, \
    scaling_probe, verify
from geodeform.script import Construct, Define, Require, parse

SEEDS = 200

USER_PROGRAM = """\
point A = (0, 0)
point B = (4, 0.3)
point C = (1.2, 3.1)
deform A B C about (0, 0) (1, 0) (0.5, 0.8660254037844386)
point I = incenter(A, B, C)
point G = centroid(A, B, C)
point H = orthocenter(A, B, C)
point O = circumcenter(A, B, C)
point R = rotate(B, A, 60)
point M_a = midpoint(B, C)
point M_b = midpoint(A, C)
point M_c = midpoint(A, B)
# X misses the circle on some draws: then a single sample leaves X, Y
# and the drawn circle through X out, and no claim depends on them
point P = (1.08, 0.29)
point Q = (1.08, 5)
point X = second_intersection(P, Q, A, B, C)
point Y = midpoint(X, A)
circle X A B
assert collinear(G, H, O) as euler "the Euler line"
assert concurrent(A, M_a, B, M_b, C, M_c) as medians "the medians concur"
assert on_conic(A, B, C, M_a, M_b, M_c) as conic "six points on a conic"
assert collinear(I, G, O) as igo "the incenter on the Euler line"
assert concyclic(M_a, M_b, M_c, R) as rot "a rotated vertex on the medial circle"
"""

# a dart: every small deformation of it is still not convex
DART_PROGRAM = """\
point A = (0, 0)
point B = (2, 0)
point C = (1, 0.5)
point D = (1, 2)
deform A B C D about (0, 0) (2, 0) (1, 0.5) (1, 2)
require convex(A, B, C, D)
assert perpendicular(A, C, B, D) as dart_perp "never judged"
"""


def _user_claims(source, name):
    claims = program_claims(parse(source), name)
    first = next(iter(claims.values()))
    return first.family, [c.claim for c in claims.values()]


FAMILY_CLAIMS = {
    name: (FAMILIES[name], [c.claim for c in CLAIMS.values()
                            if c.family.name == name])
    for name in FAMILIES}
FAMILY_CLAIMS["user"] = _user_claims(USER_PROGRAM, "user")

PROGRAMS = {name: parse((files("geodeform") / "scripts" / f"{name}.geo")
                        .read_text(encoding="utf-8"))
            for name in FAMILIES}
PROGRAMS["user"] = parse(USER_PROGRAM)


def _read_closure(program, claims):
    """The labels the claims and requires of `program` read, and those
    their constructions read in turn."""
    reads = {s.label: s.expr.points if isinstance(s.expr, Construct) else ()
             for s in program.statements if isinstance(s, Define)}
    todo = [label for c in claims for label in c.labels]
    todo += [label for s in program.statements if isinstance(s, Require)
             for label in s.labels]
    closure = set()
    while todo:
        label = todo.pop()
        if label not in closure:
            closure.add(label)
            todo.extend(reads[label])
    return closure


def _bits(value):
    return float(value).hex()


def _per_draw_judge(family, claims, epsilon, seed, count, scale):
    """The loop the batch replaces: one sample at a time."""
    judged = [([], {}) for _ in claims]
    for s in range(seed, seed + count):
        config = sample(family, epsilon, s)
        for claim, (residuals, flags) in zip(claims, judged):
            verdict = claim.evaluate(config, scale=scale)
            residuals.append(verdict.residual)
            flags.update(dict.fromkeys(verdict.flags))
    return [(residuals, tuple(flags)) for residuals, flags in judged]


@pytest.mark.parametrize("epsilon", [0.001, 0.5])
@pytest.mark.parametrize("name", list(FAMILY_CLAIMS))
def test_batch_rows_are_the_single_samples(name, epsilon):
    """A batch holds exactly the points that its claims and requires
    read, and row i of each of them and of every claim's residual equals,
    bit for bit, that of sample(family, epsilon, i)."""
    family, claims = FAMILY_CLAIMS[name]
    scale = family.base_diameter()
    with np.errstate(all="ignore"):
        batch = sample(family, epsilon, 0, SEEDS)
        residuals = []
        for claim in claims:
            with failures() as failed:
                verdict = claim.evaluate(batch, scale=scale)
            assert failed.rows is False or not failed.rows.any()
            residuals.append(np.broadcast_to(verdict.residual, (SEEDS,)))
    assert set(batch.objects) == _read_closure(PROGRAMS[name], claims)
    assert all(type(obj) is Point for obj in batch.objects.values())
    for row in range(SEEDS):
        single = sample(family, epsilon, row)
        for label, p in batch.objects.items():
            got = [np.broadcast_to(c, (SEEDS,))[row] for c in (p.x, p.y)]
            want = single.point(label)
            assert list(map(_bits, got)) == [_bits(want.x), _bits(want.y)], \
                (name, label, row)
        for claim, column in zip(claims, residuals):
            want = claim.evaluate(single, scale=scale).residual
            assert _bits(column[row]) == _bits(want), (name, claim, row)


@pytest.mark.parametrize("epsilons", [(0.5,), (0.001, 0.5), (0.0,)])
@pytest.mark.parametrize("samples", [1, 37])
@pytest.mark.parametrize("name", ["bisector", "example1", "example3", "user"])
def test_reports_equal_the_per_draw_loop(monkeypatch, name, samples,
                                         epsilons):
    family, claims = FAMILY_CLAIMS[name]
    batched = [deform._sweep(family, claims, epsilons, samples, 11, 1e-9)]
    monkeypatch.setattr(deform, "_judge_rows", _per_draw_judge)
    assert batched == [deform._sweep(family, claims, epsilons, samples, 11,
                                     1e-9)]


def test_scaling_probe_equals_the_per_draw_loop(monkeypatch):
    family, claims = FAMILY_CLAIMS["user"]
    grid = (0.001, 0.01, 0.1)
    batched = scaling_probe(family, claims, grid, 40, 3)
    monkeypatch.setattr(deform, "_judge_rows", _per_draw_judge)
    assert batched == scaling_probe(family, claims, grid, 40, 3)


def test_batches_split_at_the_row_limit(monkeypatch):
    family, claims = FAMILY_CLAIMS["theorem1"]
    whole = verify(family, claims, 50, 0.5, 5)
    monkeypatch.setattr(deform, "BATCH_ROWS", 7)
    assert verify(family, claims, 50, 0.5, 5) == whole


def _scalar_error(family, claims, epsilon, seed):
    try:
        config = sample(family, epsilon, seed)
        for claim in claims:
            claim.evaluate(config, scale=family.base_diameter())
    except GeometryError as exc:
        return exc
    raise AssertionError("the single sample raised nothing")


def test_evaluation_error_is_the_per_draw_one(capsys):
    """At epsilon 0 the square's apex diagonals have zero length: the
    batch raises the error of the first failing sample, and the CLI
    prints it on one line with exit 2."""
    family, claims = FAMILY_CLAIMS["theorem1"]
    want = _scalar_error(family, claims, 0.0, 0)
    with pytest.raises(type(want)) as caught:
        verify(family, claims, 5, 0.0, 0)
    assert str(caught.value) == str(want)
    assert main(["verify", "all", "--eps", "0", "--samples", "5"]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"


def test_exhausted_budget_is_the_per_draw_error(capsys, tmp_path):
    family, claims = _user_claims(DART_PROGRAM, "dart")
    want = _scalar_error(family, claims, 0.01, 4)
    assert isinstance(want, RejectionBudgetExhausted)
    with pytest.raises(RejectionBudgetExhausted) as caught:
        verify(family, claims, 3, 0.01, 4)
    assert str(caught.value) == str(want)
    with pytest.raises(RejectionBudgetExhausted) as caught:
        sample(family, 0.01, 4, 3)
    assert str(caught.value) == str(want)
    path = tmp_path / "dart.geo"
    path.write_text(DART_PROGRAM, encoding="utf-8")
    code = main(["verify", str(path), "--eps", "0.01", "--samples", "3",
                 "--seed", "4"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == f"error: {want}\n"


def _attempts(family, epsilon, seed):
    """The builds the single sample of `seed` makes, the accepted one
    included."""
    builds = []

    def builder(*points):
        builds.append(None)
        return family.builder(*points)

    sample(dataclasses.replace(family, builder=builder), epsilon, seed)
    return len(builds)


def test_a_rejecting_builder_is_called_once_per_round():
    """The first round builds one attempt per row.  Each later round
    builds the rows still without a valid sample at once, the same number
    of successive attempts of each, and more than one; a row keeps its
    first accepted attempt.  So the rows open after a round are those
    whose single sample needs more attempts than the rounds so far made,
    and rows the builder rejects draw again from their own streams."""
    family = FAMILIES["theorem1"]
    rounds = []

    def builder(*points):
        rounds.append(np.size(points[0].x))
        return family.builder(*points)

    counted = dataclasses.replace(family, builder=builder)
    batch = sample(counted, 0.5, 0, 100)
    needs = [_attempts(family, 0.5, seed) for seed in range(100)]
    assert rounds[0] == 100 and len(rounds) > 1
    made = 1
    for size in rounds[1:]:
        still = sum(need > made for need in needs)
        tries, rest = divmod(size, still)
        assert rest == 0 and tries > 1, (rounds, made)
        made += tries
    assert max(needs) <= made
    single = sample(family, 0.5, 99)
    assert batch.point("O_ab").x[99] == single.point("O_ab").x


# barely convex at best: most draws are rejected, and more than half the
# rows are still open after each of the first rounds
KITE_PROGRAM = """\
point A = (0, 0)
point B = (1, 0)
point C = (1, 1)
point D = (0.5, 0.2)
deform A B C D about (0, 0) (1, 0) (1, 1) (0.5, 0.2)
require convex(A, B, C, D)
point M = midpoint(A, C)
assert collinear(A, M, C) as kite_mid "the midpoint of AC is on AC"
"""


def _family(name):
    if name == "kite":
        return _user_claims(KITE_PROGRAM, "kite")[0]
    return FAMILIES[name]


def _assert_rows_are_single_samples(batch, family, epsilon, seed, count):
    for row in range(count):
        single = sample(family, epsilon, seed + row)
        for label in single.points():
            assert (batch.point(label).x[row], batch.point(label).y[row]) \
                == (single.point(label).x, single.point(label).y), (row, label)


def test_rows_no_round_accepts_finish_as_single_samples():
    """A round that accepts no row hands its first row to the single
    sample path.  A builder that rejects every row on arrays forces that
    after every round, so each row ends as its single sample."""
    family = _family("kite")
    calls = []

    def builder(*points):
        calls.append(type(points[0].x))
        built = family.builder(*points)
        if type(points[0].x) is np.ndarray:
            guard(np.ones(np.size(points[0].x), bool), GeometryError,
                  "every row")
        return built

    counted = dataclasses.replace(family, builder=builder)
    batch = sample(counted, 0.3, 0, 40)
    assert float in calls and np.ndarray in calls
    _assert_rows_are_single_samples(batch, family, 0.3, 0, 40)


@pytest.mark.parametrize("epsilon", [0.2, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 977, 2**64 - 25])
def test_kite_rows_are_the_single_samples(seed, epsilon):
    """The kite rejects most draws, over many rounds; the last seed's
    rows wrap past 2^64."""
    family = _family("kite")
    _assert_rows_are_single_samples(sample(family, epsilon, seed, 40),
                                    family, epsilon, seed, 40)


@pytest.mark.parametrize("count", [1, 7, 300])
@pytest.mark.parametrize("name, epsilon", [
    ("theorem1", 0.5), ("example3", 0.5), ("kite", 0.2), ("kite", 1.0)])
def test_no_build_holds_more_rows_than_the_first_round(name, epsilon, count):
    """Later rounds build several attempts per open row, never more rows
    in all than the first round, whose rows bound the batch's memory."""
    family = _family(name)
    sizes = []

    def builder(*points):
        sizes.append(np.size(points[0].x))
        return family.builder(*points)

    sample(dataclasses.replace(family, builder=builder), epsilon, 3, count)
    assert sizes[0] == count and max(sizes) == count, sizes


@pytest.mark.parametrize("name, epsilon, budget", [
    ("kite", 0.2, 3), ("theorem1", 0.5, 2)])
def test_rows_keep_the_rejection_budget(name, epsilon, budget):
    """No row makes more attempts than `max_rejections`, and the batch
    raises the error of the first row whose single sample finds none."""
    family = _family(name)
    errors = []
    for seed in range(100):
        try:
            sample(family, epsilon, seed, max_rejections=budget)
        except RejectionBudgetExhausted as exc:
            errors.append(str(exc))
    assert errors
    rows = []

    def builder(*points):
        if type(points[0].x) is np.ndarray:
            rows.append(np.size(points[0].x))
        return family.builder(*points)

    counted = dataclasses.replace(family, builder=builder)
    with pytest.raises(RejectionBudgetExhausted) as caught:
        sample(counted, epsilon, 0, 100, max_rejections=budget)
    assert str(caught.value) == errors[0]
    assert sum(rows) <= 100 * budget


def test_single_sample_keeps_float_coordinates():
    config = sample(FAMILIES["example3"], 0.5, 7)
    assert all(type(c) is float for p in config.points().values()
               for c in (p.x, p.y))
    assert isinstance(config.point("A"), Point)


# X misses the circle on some draws, and only the unnamed assert reads it
UNJUDGED_PROGRAM = """\
point A = (0, 0)
point B = (4, 0.3)
point C = (1.2, 3.1)
deform A B C about (0, 0) (1, 0) (0.5, 0.8660254037844386)
point G = centroid(A, B, C)
point P = (1.08, 0.29)
point Q = (1.08, 5)
point X = second_intersection(P, Q, A, B, C)
assert concyclic(A, B, C, G) as abcg "the centroid on the circumcircle"
assert collinear(A, X, B)
"""


def test_unnamed_asserts_reject_no_draw(capsys, tmp_path):
    """verify judges the named asserts alone, so an unnamed one, whose
    point fails on some draws, leaves the report as it is without it."""
    reports = []
    for source in (UNJUDGED_PROGRAM,
                   UNJUDGED_PROGRAM.replace("assert collinear(A, X, B)\n", "")):
        path = tmp_path / "unjudged.geo"
        path.write_text(source, encoding="utf-8")
        code = main(["verify", str(path), "--seed", "7", "--samples", "200"])
        reports.append((code, capsys.readouterr()))
    assert reports[0] == reports[1]
    assert reports[0][1].out.startswith("abcg: refuted")


def _python_calls(capsys, *args):
    """The function calls, Python and builtin, that cProfile counts in
    one in-process `verify all --seed 7`."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        main(["verify", "all", "--seed", "7", *args])
    finally:
        profile.disable()
    capsys.readouterr()
    return pstats.Stats(profile).total_calls


@pytest.mark.parametrize("grid, bound", [
    (["--eps-grid", "0.001,0.01,0.1"], 1.1),
    # the rejection rounds do not grow with the samples either
    ([], 1.2),
])
def test_rows_cost_no_python_call_per_sample(capsys, grid, bound):
    """Ten times the samples take about the same number of calls: no
    construction or detector loops over the rows in Python."""
    _python_calls(capsys, "--samples", "20", *grid)  # load what runs once
    few = _python_calls(capsys, "--samples", "200", *grid)
    many = _python_calls(capsys, "--samples", "2000", *grid)
    assert many / few <= bound, (few, many)
