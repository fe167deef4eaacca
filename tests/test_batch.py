"""The batched sweep against the per-draw loop it replaces.

A sweep draws, builds and judges all samples of one family's epsilon
grid as float64 rows.  Row k * samples + i must be bit for bit the
single sample of (epsilon k, seed + i): every built point and every
claim's residual, and every report and error message that follows from
them.
"""

import cProfile
import dataclasses
import pstats
import re
from importlib.resources import files

import numpy as np
import pytest

from geodeform import deform
from geodeform.catalog import CLAIMS, FAMILIES, program_claims
from geodeform.cli import main
from geodeform.core import GeometryError, Point, failures
from geodeform.deform import RejectionBudgetExhausted, RelationClaim, \
    sample, scaling_probe, verify
from geodeform.relations import RELATIONS, TooFewPoints
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

# every relation kind on one deformed triangle, the kinds that decide by
# convention among them: its Euler line collapses at the equilateral base
ALL_KINDS_PROGRAM = """\
point A = (0, 0)
point B = (4, 0.3)
point C = (1.2, 3.1)
deform A B C about (0, 0) (1, 0) (0.5, 0.8660254037844386)
point G = centroid(A, B, C)
point H = orthocenter(A, B, C)
point O = circumcenter(A, B, C)
point M_a = midpoint(B, C)
point M_b = midpoint(A, C)
point M_c = midpoint(A, B)
point P_a = midpoint(A, H)
point P_b = midpoint(B, H)
point P_c = midpoint(C, H)
point D = reflect_point(B, M_b)
assert collinear(G, H, O) as euler "the Euler line"
assert concyclic(M_a, M_b, M_c, P_a) as ninepoint "the nine-point circle"
assert concurrent(A, M_a, B, M_b, C, M_c) as medians "the medians concur"
assert perpendicular(A, B, C, H) as altitude "C H is an altitude"
assert equal_length(O, A, O, B, O, C) as radii "the circumradii agree"
assert on_conic(M_a, M_b, M_c, P_a, P_b, P_c) as conic "six nine-point circle points on a conic"
assert on_conic(A, B, C, M_a, M_b, M_c) as vertices_conic "vertices and midpoints on a conic"
assert midpoints_coincide(A, C, B, D) as diagonals "the diagonals of a parallelogram bisect each other"
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
FAMILY_CLAIMS["all_kinds"] = _user_claims(ALL_KINDS_PROGRAM, "all_kinds")

PROGRAMS = {name: parse((files("geodeform") / "scripts" / f"{name}.geo")
                        .read_text(encoding="utf-8"))
            for name in FAMILIES}
PROGRAMS["user"] = parse(USER_PROGRAM)
PROGRAMS["all_kinds"] = parse(ALL_KINDS_PROGRAM)


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


def _named_error(claim, epsilon, seed, error):
    """The error of a claim judged on the single sample of (epsilon, seed),
    as the sweep words it."""
    return type(error)(f"{claim.kind}({', '.join(claim.labels)}) at "
                       f"epsilon={epsilon}, seed={seed}: {error}")


def _per_draw_judge(family, claims, epsilons, samples, seed, rows, scale):
    """The loop the batch replaces: one sample at a time, epsilon by
    epsilon."""
    judged = [([], {}) for _ in claims]
    for g in rows:
        epsilon, s = epsilons[g // samples], seed + g % samples
        config = sample(family, epsilon, s)
        for claim, (residuals, flags) in zip(claims, judged):
            try:
                verdict = claim.evaluate(config, scale=scale)
            except GeometryError as exc:
                raise _named_error(claim, epsilon, s, exc) from None
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
@pytest.mark.parametrize("name", ["bisector", "example1", "example3", "user",
                                  "all_kinds"])
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
    """At epsilon 0, and at 1e-300, the square's apex diagonals have zero
    length: the sweep raises the error of the first failing sample, from
    the base figure's judgement at 0 and from a failed row's float rerun
    at 1e-300, naming the claim, the epsilon and the seed, and the CLI
    prints it on one line with exit 2."""
    family, claims = FAMILY_CLAIMS["theorem1"]
    for epsilon in (0.0, 1e-300):
        error = _scalar_error(family, claims, epsilon, 3)
        want = (f"perpendicular(O_ab, O_cd, O_bc, O_da) at "
                f"epsilon={epsilon}, seed=3: {error}")
        assert str(_named_error(claims[0], epsilon, 3, error)) == want
        with pytest.raises(type(error)) as caught:
            verify(family, claims, 5, epsilon, 3)
        assert str(caught.value) == want
        code = main(["verify", "theorem1_perp", "theorem1_equal", "--eps",
                     str(epsilon), "--samples", "5", "--seed", "3"])
        assert (code, capsys.readouterr()) == (2, ("", f"error: {want}\n"))


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


def test_a_screened_batch_builds_once():
    """theorem1 rejects a draw only on its screen, the convex require: the
    batch screens draws until each row has one that passes, and builds
    them all in one call, which accepts each row's first."""
    family = FAMILIES["theorem1"]
    rounds = []

    def builder(*points):
        rounds.append(np.size(points[0].x))
        return family.builder(*points)

    counted = dataclasses.replace(family, builder=builder)
    batch = sample(counted, 0.5, 0, 100)
    needs = [_attempts(family, 0.5, seed) for seed in range(100)]
    assert rounds == [100] and max(needs) > 1
    _assert_rows_are_single_samples(batch, family, (0.5,), 0, 100)


def test_a_rejecting_builder_is_called_once_per_round():
    """A require over a constructed point is not screened, so its
    rejections come from the build.  The first round builds one attempt
    per row; each later round builds the rows still without a valid
    sample at once, the same number of successive attempts of each, at
    most twice as many as the round before and no more than BATCH_ROWS
    attempts in all.  So the rows open after a round are those whose
    single sample needs more attempts than the rounds so far made."""
    family = _family("kite_built")
    assert family.screen is None
    rounds = []

    def builder(*points):
        rounds.append(np.size(points[0].x))
        return family.builder(*points)

    counted = dataclasses.replace(family, builder=builder)
    batch = sample(counted, 0.2, 0, 100)
    needs = [_attempts(family, 0.2, seed) for seed in range(100)]
    assert rounds[0] == 100 and len(rounds) > 1
    made, steps = 1, [1]
    for size in rounds[1:]:
        still = sum(need > made for need in needs)
        tries, rest = divmod(size, still)
        assert rest == 0 and 1 <= tries <= 2 * steps[-1], rounds
        assert size <= deform.BATCH_ROWS
        made += tries
        steps.append(tries)
    assert max(steps) > 1
    assert max(needs) <= made
    _assert_rows_are_single_samples(batch, family, (0.2,), 0, 100)


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

# the kite's require over E, which is D rebuilt (2D - D is D exactly): it
# reads a constructed point, so the builder checks it and there is no
# screen
KITE_BUILT_PROGRAM = KITE_PROGRAM.replace(
    "require convex(A, B, C, D)",
    "point E = reflect_point(D, D)\nrequire convex(A, B, C, E)")


def _family(name):
    if name == "kite":
        return _user_claims(KITE_PROGRAM, "kite")[0]
    if name == "kite_built":
        return _user_claims(KITE_BUILT_PROGRAM, "kite_built")[0]
    return FAMILIES[name]


def _assert_rows_are_single_samples(batch, family, grid, seed, count,
                                    rows=None):
    """Row g of the grid in `batch`, which holds rows `rows` (all by
    default), holds bit for bit every point of sample(family,
    grid[g // count], seed + g % count)."""
    rows = rows if rows is not None else range(len(grid) * count)
    for r, g in enumerate(rows):
        single = sample(family, grid[g // count], seed + g % count)
        for label, p in batch.objects.items():
            got = [np.broadcast_to(c, (len(rows),))[r] for c in (p.x, p.y)]
            want = single.point(label)
            assert list(map(_bits, got)) == [_bits(want.x), _bits(want.y)], \
                (label, g)


def test_rows_no_round_accepts_finish_as_single_samples():
    """The kite at epsilon 0.1 rejects so many draws that a row may need
    hundreds of attempts: the screen finds each row's first convex one,
    the rows end as their single samples, no attempt is built twice, and
    nothing is built on floats."""
    family = _family("kite")
    built = {float: [], np.ndarray: []}

    def builder(*points):
        xs = [np.atleast_1d(p.x) for p in points]
        built[type(points[0].x)] += zip(*(x.tolist() for x in xs))
        return family.builder(*points)

    counted = dataclasses.replace(family, builder=builder)
    batch = sample(counted, 0.1, 0, 31)
    assert not built[float] and built[np.ndarray]
    assert len(set(built[np.ndarray])) == len(built[np.ndarray])
    _assert_rows_are_single_samples(batch, family, (0.1,), 0, 31)


def test_kite_verify_builds_nothing_on_floats():
    """Through `verify`, the kite at epsilon 0.1 holds, in one row build
    and no float build.  At 40 samples row 31 runs out of attempts: the
    error is its single sample's, worded by one float build of its last
    attempt."""
    family, claims = _user_claims(KITE_PROGRAM, "kite")
    built = {float: 0, np.ndarray: 0}

    def builder(*points):
        built[type(points[0].x)] += 1
        return family.builder(*points)

    counted = dataclasses.replace(family, builder=builder)
    with np.errstate(all="ignore"):
        assert verify(counted, claims, 30, 0.1, 0)[0].verdict == "theorem"
    assert built == {float: 0, np.ndarray: 1}
    want = _scalar_error(family, claims, 0.1, 31)
    built.update({float: 0, np.ndarray: 0})
    with pytest.raises(RejectionBudgetExhausted) as caught:
        with np.errstate(all="ignore"):
            verify(counted, claims, 40, 0.1, 0)
    assert str(caught.value) == str(want)
    assert built[float] == 1


def test_an_error_of_the_whole_batch_is_raised_at_once():
    """A claim that cannot be judged on the batch, or a builder that
    raises other than a GeometryError on rows, raises its error through
    `verify` after the one row build, with no sample built on floats."""
    family = FAMILIES["theorem1"]
    built = {float: 0, np.ndarray: 0}

    def builder(*points):
        built[type(points[0].x)] += 1
        return family.builder(*points)

    def on_rows_only(*points):
        if type(points[0].x) is np.ndarray:
            built[np.ndarray] += 1
            raise ValueError("no figure on rows")
        return builder(*points)

    two_points = RelationClaim("collinear", ("O_ab", "O_bc"))
    with pytest.raises(TooFewPoints, match="^collinear cannot take 2 points$"):
        verify(dataclasses.replace(family, builder=builder), (two_points,),
               20, 0.5, 0)
    assert built == {float: 0, np.ndarray: 1}
    built.update({float: 0, np.ndarray: 0})
    with pytest.raises(ValueError, match="^no figure on rows$"):
        verify(dataclasses.replace(family, builder=on_rows_only),
               (CLAIMS["theorem1_perp"].claim,), 20, 0.5, 0)
    assert built == {float: 0, np.ndarray: 1}


def test_a_family_builder_on_rows_leaves_the_screen_out():
    """The kite family's builder on rows builds a non-convex draw: its
    convex require is the screen's, which marks the row; on floats the
    builder checks it and raises."""
    family = _family("kite")
    dart = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0),
            Point(0.8, 0.2)]
    rows = [Point(np.array([p.x, p.x]), np.array([p.y, p.y])) for p in dart]
    with failures() as failed:
        family.builder(*rows)
    assert failed.rows is False or not failed.rows.any()
    with failures() as failed:
        family.screen(*rows)
    assert failed.rows.all()
    with pytest.raises(GeometryError, match="convex"):
        family.builder(*dart)


def test_a_builder_failing_a_whole_batch_raises_the_single_samples_error():
    """A builder that raises on a whole row batch, whatever its draws,
    raises the first row's single-sample error; where the single sample
    builds, a builder or a screen that raises on rows makes the batch
    raise a RuntimeError instead of a sample."""
    family = FAMILIES["example1"]

    def on_floats_too(*points):
        raise GeometryError("no figure here")

    def on_rows_only(*points):
        if type(points[0].x) is np.ndarray:
            raise GeometryError("no figure on rows")
        return family.builder(*points)

    failing = dataclasses.replace(family, builder=on_floats_too)
    errors = []
    for count in (None, 5):
        with pytest.raises(RejectionBudgetExhausted) as caught:
            sample(failing, 0.5, 3, count, max_rejections=4)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] and "seed=3" in errors[0]
    for broken in ({"builder": on_rows_only}, {"screen": on_rows_only}):
        with pytest.raises(RuntimeError, match="single sample builds"):
            sample(dataclasses.replace(family, **broken), 0.5, 3, 5)


@pytest.mark.parametrize("epsilon", [0.2, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 977, 2**64 - 25])
def test_kite_rows_are_the_single_samples(seed, epsilon):
    """The kite rejects most draws, over many rounds; the last seed's
    rows wrap past 2^64."""
    family = _family("kite")
    _assert_rows_are_single_samples(sample(family, epsilon, seed, 40),
                                    family, (epsilon,), seed, 40)


@pytest.mark.parametrize("seed", [0, 2**64 - 5])
@pytest.mark.parametrize("name", [*FAMILY_CLAIMS, "kite"])
def test_grid_rows_are_the_single_samples(name, seed):
    """A grid is one batch whose row k * count + i is the sample of
    (grid[k], seed + i), for every shipped family and two user programs;
    the second seed's rows wrap past 2^64.  The kite's top epsilon rejects
    most draws, over many rounds that mix the rows' radii."""
    family = (_family("kite") if name == "kite"
              else FAMILY_CLAIMS[name][0])
    grid = (0.2, 0.3, 1.0) if name == "kite" else (0.001, 0.01, 0.1)
    for rows in (None, range(13, 47)):  # all, and from inside a block
        with np.errstate(all="ignore"):
            batch = sample(family, grid, seed, 20, rows=rows)
        _assert_rows_are_single_samples(batch, family, grid, seed, 20, rows)


# a base point at (-0, -0): a perturbation by radius 0 would make it +0
SIGNED_ZERO_PROGRAM = """\
point A = (0, 0)
point B = (1, 0)
point C = (0, 1)
deform A B C about (-0.0, -0.0) (1, 0) (0, 1)
point M = midpoint(A, B)
assert collinear(A, M, B) as mid "the midpoint of AB is on AB"
"""


@pytest.mark.parametrize("name", ["theorem1", "signed_zero"])
def test_epsilon_zero_judges_the_base_figure(monkeypatch, name):
    """At epsilon 0 every sample is the base figure, down to the sign of
    a zero: `verify` reports its single sample's judgement once per
    sample, bit for bit.  A batch only draws: a grid that holds epsilon
    0 raises ValueError before any draw."""
    if name == "signed_zero":
        family, claims = _user_claims(SIGNED_ZERO_PROGRAM, name)
        assert _bits(sample(family, 0.0, 7).point("A").x) == _bits(-0.0)
    else:
        family, claims = FAMILIES[name], [CLAIMS["theorem1_equal"].claim]
    scale = family.base_diameter()
    base = [claim.evaluate(sample(family, 0.0, 7), scale=scale)
            for claim in claims]
    judged = deform._judge_rows(family, claims, (0.0,), 30, 7, range(30),
                                scale)
    assert [([_bits(r) for r in residuals], flags)
            for residuals, flags in judged] == [
        ([_bits(v.residual)] * 30, v.flags) for v in base]
    for report, v in zip(verify(family, claims, 30, 0.0, 7), base):
        assert _bits(report.max_residual) == _bits(v.residual)

    def no_draw(*args):
        raise AssertionError("a grid that holds epsilon 0 drew")

    monkeypatch.setattr(deform, "_disk_draws", no_draw)
    with pytest.raises(ValueError, match="epsilon 0 is the base figure"):
        sample(family, (0.0, 0.5), 7, 30)


def test_an_exhausted_row_names_its_last_attempt():
    """A row out of attempts raises the error of its last attempt, as its
    single sample does; here each error names the draw that made it.
    The last round gives each open row two attempts."""
    family = FAMILIES["theorem1"]

    def builder(*points):
        try:
            return family.builder(*points)
        except GeometryError as exc:
            raise GeometryError(f"{exc} at x={points[0].x!r}") from None

    named = dataclasses.replace(family, builder=builder)
    with pytest.raises(RejectionBudgetExhausted) as caught:
        sample(named, 0.5, 0, 100, max_rejections=3)
    for seed in range(100):
        try:
            sample(named, 0.5, seed, max_rejections=3)
        except RejectionBudgetExhausted as exc:
            assert str(caught.value) == str(exc)
            break


def test_a_zero_budget_batch_raises_the_single_samples_error():
    """With no attempt allowed, the batch raises at its first row the
    error of that row's single sample, which names no last attempt."""
    family = FAMILIES["theorem1"]
    with pytest.raises(RejectionBudgetExhausted) as single:
        sample(family, 0.5, 3, max_rejections=0)
    with pytest.raises(RejectionBudgetExhausted) as batch:
        sample(family, 0.5, 3, 10, max_rejections=0)
    assert str(batch.value) == str(single.value) == (
        "family 'theorem1': no valid sample within 0 draws at "
        "epsilon=0.5, seed=3 (last: None)")
    assert batch.value.row == 0
    assert single.value.row is None


def test_grid_batches_split_across_blocks(monkeypatch):
    """Batches of 7 rows straddle the 20-row epsilon blocks, and every
    family's scaling reports stay the same."""
    grid = (0.001, 0.01, 0.1)
    whole = {name: scaling_probe(family, claims, grid, 20, 5)
             for name, (family, claims) in FAMILY_CLAIMS.items()}
    monkeypatch.setattr(deform, "BATCH_ROWS", 7)
    assert whole == {name: scaling_probe(family, claims, grid, 20, 5)
                     for name, (family, claims) in FAMILY_CLAIMS.items()}


def _block_by_block(judge):
    """`_judge_rows` that judges each epsilon block of its rows apart."""
    def judge_blocks(family, claims, epsilons, samples, seed, rows, scale):
        judged = [([], set()) for _ in claims]
        bounds = [rows.start, *range((rows.start // samples + 1) * samples,
                                     rows.stop, samples), rows.stop]
        for start, stop in zip(bounds, bounds[1:]):
            part = judge(family, claims, epsilons, samples, seed,
                         range(start, stop), scale)
            for (residuals, flags), (more, raised) in zip(judged, part):
                residuals += more
                flags.update(raised)
        return [(residuals, tuple(flags)) for residuals, flags in judged]
    return judge_blocks


def _verify_json(capsys, tmp_path, *argv):
    """Exit code, stdout and the `--json` report of `verify`, its
    wall_time_s values scrubbed."""
    path = tmp_path / "report.json"
    code = main(["verify", *argv, "--json", str(path)])
    text = re.sub(r'"wall_time_s": [^,}]*', '"wall_time_s": 0',
                  path.read_text(encoding="utf-8"))
    return code, capsys.readouterr().out, text


def test_grid_report_equals_block_by_block(monkeypatch, capsys, tmp_path):
    """A grid of 9000 rows runs as batches that span epsilon blocks; its
    report is byte for byte the one judged block by block."""
    argv = ("all", "--eps-grid", "0.001,0.01,0.1", "--samples", "3000")
    spanning = _verify_json(capsys, tmp_path, *argv)
    monkeypatch.setattr(deform, "_judge_rows",
                        _block_by_block(deform._judge_rows))
    assert spanning == _verify_json(capsys, tmp_path, *argv)
    assert spanning[0] == 0


@pytest.mark.parametrize("program, claim, grid", [
    # the first block cannot be judged, and the last is not finite to
    # deform: the last's error comes first
    (None, "theorem1_perp", "1e-300,1e-200,1.5e308"),
    # the first block cannot be judged
    (None, "theorem1_perp", "1e-300,1e-200,1e308"),
    # the last block is not finite to deform
    (None, "theorem1_perp", "1e-3,1e-2,1.5e308"),
    # the first block exhausts the rejection budget
    (DART_PROGRAM, None, "1e-3,1e-2,1e308"),
])
def test_grid_errors_keep_the_per_draw_order(monkeypatch, capsys, tmp_path,
                                             program, claim, grid):
    """An epsilon without a perturbation radius anywhere in a grid raises
    before any draw, ahead of an error in an earlier block.  Any other
    error a grid raises is the one the per-draw loop meets first, epsilon
    by epsilon and then seed by seed: one `error:` line, exit 2."""
    if program is not None:
        claim = str(tmp_path / "prog.geo")
        (tmp_path / "prog.geo").write_text(program, encoding="utf-8")
    argv = ["verify", claim, "--eps-grid", grid, "--samples", "4",
            "--seed", "3"]
    code = main(argv)
    got = capsys.readouterr()
    monkeypatch.setattr(deform, "_judge_rows", _per_draw_judge)
    assert (code, got) == (main(argv), capsys.readouterr())
    assert code == 2 and not got.out
    assert got.err.startswith("error: ") and got.err.count("\n") == 1


def _counted_builds(monkeypatch, name, epsilon, count):
    """The rows of each build and each screen call of the batch of `count`
    samples of family `name` at `epsilon` from seed 3, with BATCH_ROWS 64
    or `count` where that is more, and whether each build held an
    attempt that fails the screen."""
    monkeypatch.setattr(deform, "BATCH_ROWS", max(64, count))
    family = _family(name)
    builds, screens, unscreened = [], [], []

    def builder(*points):
        builds.append(np.size(points[0].x))
        if family.screen is not None:
            with failures() as failed:
                family.screen(*points)
            unscreened.append(np.any(failed.rows))
        return family.builder(*points)

    def screen(*points):
        screens.append(np.size(points[0].x))
        return family.screen(*points)

    counted = dataclasses.replace(
        family, builder=builder,
        screen=screen if family.screen is not None else None)
    with np.errstate(all="ignore"):
        batch = sample(counted, epsilon, 3, count)
    _assert_rows_are_single_samples(batch, family, (epsilon,), 3, count)
    return builds, screens, unscreened


@pytest.mark.parametrize("count", [1, 7, 300])
@pytest.mark.parametrize("name, epsilon", [
    ("theorem1", 0.5), ("example3", 0.5), ("kite", 0.2), ("kite", 1.0)])
def test_no_build_holds_more_rows_than_the_first_round(monkeypatch, name,
                                                       epsilon, count):
    """These families reject draws on their screens alone: the batch
    builds once, one screened attempt of each row, and holds no attempt
    that fails the screen.  No screen-only sub-round holds more attempts
    than BATCH_ROWS, the most rows a sweep's batch holds."""
    builds, screens, unscreened = _counted_builds(monkeypatch, name,
                                                  epsilon, count)
    assert builds == [count] and unscreened == [False]
    assert screens[0] == count and max(screens) <= max(64, count)


@pytest.mark.parametrize("count", [1, 7, 300])
def test_a_rejecting_build_holds_at_most_batch_rows_attempts(monkeypatch,
                                                             count):
    """Rejections from constructions come back in build rounds: after the
    first, whose build holds the batch's rows, a round may hold more
    attempts than the batch has rows (a 1-row batch would otherwise
    build one attempt at a time), but never more than BATCH_ROWS."""
    builds, screens, _ = _counted_builds(monkeypatch, "kite_built", 0.2,
                                         count)
    assert builds[0] == count and len(builds) > 1
    assert max(builds) <= max(64, count) and not screens
    if count == 1:
        assert max(builds) > count


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


def _python_calls(capsys, target, *args):
    """The function calls, Python and builtin, that cProfile counts in
    one in-process `verify target --seed 7`."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        main(["verify", target, "--seed", "7", *args])
    finally:
        profile.disable()
    capsys.readouterr()
    return pstats.Stats(profile).total_calls


@pytest.mark.parametrize("grid, bound", [
    (["--eps-grid", "0.001,0.01,0.1"], 1.1),
    # the rejection rounds do not grow with the samples either
    ([], 1.2),
])
def test_rows_cost_no_python_call_per_sample(monkeypatch, capsys, grid,
                                             bound):
    """Ten times the samples take about the same number of calls: no
    construction or detector loops over the rows in Python.  A grid is one
    batch at both sizes here: each batch of BATCH_ROWS rows costs its own
    calls, whatever its rows."""
    monkeypatch.setattr(deform, "BATCH_ROWS", 3 * 2000)
    _python_calls(capsys, "all", "--samples", "20", *grid)  # load once
    few = _python_calls(capsys, "all", "--samples", "200", *grid)
    many = _python_calls(capsys, "all", "--samples", "2000", *grid)
    assert many / few <= bound, (few, many)


def _calls_at_200_and_2000_samples(monkeypatch, capsys, path):
    """The calls of `verify path` at 200 and at 2000 samples, one batch
    each."""
    monkeypatch.setattr(deform, "BATCH_ROWS", 2000)
    _python_calls(capsys, str(path), "--samples", "20")  # load once
    return (_python_calls(capsys, str(path), "--samples", "200"),
            _python_calls(capsys, str(path), "--samples", "2000"))


def test_no_relation_kind_judges_row_by_row(monkeypatch, capsys, tmp_path):
    """A program that asserts every relation kind takes about as many
    calls at ten times the samples: no detector loops over the rows in
    Python."""
    path = tmp_path / "all_kinds.geo"
    path.write_text(ALL_KINDS_PROGRAM, encoding="utf-8")
    assert {c.kind for c in FAMILY_CLAIMS["all_kinds"][1]} == set(RELATIONS)
    few, many = _calls_at_200_and_2000_samples(monkeypatch, capsys, path)
    assert many / few <= 1.2, (few, many)


def test_lines_that_never_meet_are_not_judged_row_by_row(monkeypatch, capsys,
                                                        tmp_path):
    """An infinite residual is a verdict, not a row to judge again on its
    own: AB and DC of the all-kinds triangle's parallelogram never meet,
    and ten times the samples take about the same number of calls."""
    path = tmp_path / "parallel.geo"
    path.write_text(ALL_KINDS_PROGRAM.split("assert ")[0]
                    + 'assert concurrent(A, B, D, C, M_c, M_b) as parallel '
                    '"AB and DC meet"\n', encoding="utf-8")
    few, many = _calls_at_200_and_2000_samples(monkeypatch, capsys, path)
    assert many / few <= 1.2, (few, many)
