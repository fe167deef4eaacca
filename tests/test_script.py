"""Parser positions, evaluator semantics, and the shipped scripts."""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodeform import centers, script
from geodeform.catalog import FAMILIES
from geodeform.core import GeometryError, Point, circumcircle, dist, \
    failures, rotate
from geodeform.relations import RELATIONS
from geodeform.script import (
    ArityError,
    BinOp,
    CoordPair,
    Define,
    NumberLit,
    ParseError,
    Program,
    UnknownParam,
    UseBeforeDefine,
    evaluate,
    deformation_family,
    parse,
)
from test_batch import ALL_KINDS_PROGRAM

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PROGRAMS = sorted([*SCRIPTS.glob("*.geo"),
                   *(ROOT / "src" / "geodeform" / "shapes").glob("*.geo")])


def parse_error(src):
    with pytest.raises(ParseError) as info:
        parse(src)
    return info.value


def test_three_statement_program():
    prog = parse("point A = (0,0)\npoint B = (1,0)\npoint M = midpoint(A,B)")
    assert len(prog.statements) == 3


LAID_OUT = """\
param s = 2
point A = (0, -s * 1.5)
point B = (s, 0)
point C = (0, 1)
point D = (1, 1)
deform A B C D about (0, 0) (1, 0) (0, 1) (1, 1) floor 1e-6
point M = midpoint(A, B)
point R = rotate(A, B, 30)
require convex(A, B, D, C)
segment A B
circle A B C
assert collinear(A, M, B)
assert concyclic(A, B, C, D) as square "four corners"
"""

RELAID = """\
# the same program, laid out otherwise

param s=2
point A = ( 0,-s*1.5 )   # a comment
\tpoint B=(s ,0)
point C = (0 , 1)

point D = (1,1)
deform A   B C D about (0,0)(1,0) (0,1)(1,1)   floor 1e-6
point M = midpoint( A,B )
point R = rotate(A , B , 30)
require convex(A,B,D,C)
segment  A  B
circle A B C   # drawn
assert collinear(A,M,B)

assert concyclic(A, B, C, D)as square "four corners"
"""


def test_programs_that_differ_only_in_layout_parse_equal():
    """The syntax tree holds no source position: blank lines, comments
    and spacing leave the parsed program unchanged."""
    assert parse(RELAID) == parse(LAID_OUT)
    assert parse(RELAID) != parse(LAID_OUT.replace("30", "31"))


def test_missing_comma_position():
    err = parse_error("point A = (0 0)")
    assert (err.line, err.col) == (1, 12)
    assert str(err) == "1:12: expected ','"


def test_relation_arity_error():
    err = parse_error("assert concyclic(A,B)")
    assert isinstance(err, ArityError)
    assert (err.line, err.col) == (1, 8)


def test_arity_beats_undefined_labels():
    # wrong shape is reported even though the names are also unknown
    err = parse_error("point A = (0,0)\nassert perpendicular(A,A,A)")
    assert isinstance(err, ArityError)
    assert err.line == 2


def test_function_arity_errors():
    src = "point A = (0,0)\npoint B = (1,1)\npoint M = midpoint(A)"
    err = parse_error(src)
    assert isinstance(err, ArityError)
    assert err.line == 3 and err.col == 11
    src = "point A = (0,0)\npoint B = (1,1)\npoint M = midpoint(A, B, B)"
    assert isinstance(parse_error(src), ArityError)
    err = parse_error(src.replace("B, B)", "B, 3)"))
    assert isinstance(err, ArityError)
    assert (err.line, err.col, err.message) == \
        (3, 11, "midpoint takes 2 point labels, got 3")


def test_use_before_define():
    err = parse_error("point M = midpoint(A, B)")
    assert isinstance(err, UseBeforeDefine)
    assert (err.line, err.col) == (1, 20)
    err = parse_error("point A = (k, 0)")
    assert isinstance(err, UseBeforeDefine)
    assert (err.line, err.col, err.message) == \
        (1, 12, "param 'k' is not declared yet")


def test_duplicate_label_rejected():
    err = parse_error("point A = (0,0)\npoint A = (1,1)")
    assert err.line == 2
    assert "duplicate" in err.message


@pytest.mark.parametrize("kind", ["wavy", "perspective", "coaxial",
                                  "segment_bisects"])
def test_unknown_relation_is_a_parse_error_at_its_name(kind):
    """A kind that is not in RELATIONS, made up or deleted, is a parse
    error at its name."""
    err = parse_error(f"assert {kind}(A,B,C)")
    assert type(err) is ParseError
    assert (err.line, err.col, err.message) == \
        (1, 8, f"unknown relation {kind!r}")


def test_unknown_construction_lists_functions():
    err = parse_error("point P = blend(A, B)")
    assert (err.line, err.col, err.message) == \
        (1, 11, "unknown construction 'blend'")


def test_param_used_as_point_is_reported():
    err = parse_error("param t = 1\npoint M = midpoint(t, t)")
    assert "param" in err.message
    err = parse_error("point A = (0, 0)\npoint B = (A, 0)")
    assert (err.line, err.col, err.message) == \
        (2, 12, "'A' is a point, not a number")


def test_empty_program_rejected():
    err = parse_error("  \n# only a comment\n")
    assert (err.line, err.col, err.message) == (3, 1, "empty program")


def test_every_parse_error_carries_its_position_and_message():
    broken = [
        "point A = (0 0)",
        "point = (0,0)",
        "point A (0,0)",
        "param x = ",
        "assert concyclic(A,B)",
        "point A = (0,0) junk",
    ]
    for src in broken:
        err = parse_error(src)
        assert err.message, src
        assert str(err).startswith(f"{err.line}:{err.col}:")


# characters that start or end a token, or that the lexer rejects:
# quotes, comments, apostrophes, blanks, separators, non-ASCII digits
_MUTATIONS = st.one_of(
    st.sampled_from(list('"#\'\r\t \n(),=+-*/._0123456789eEaZ')
                    + ["\u0663", "\u00b2", "\uff11", "\u00e9", "999"]),
    st.characters(), st.text(max_size=3))


@st.composite
def _mutants(draw, source):
    """`source` with 1 to 4 spans deleted, replaced or inserted into."""
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(source)))
        end = start + draw(st.integers(0, 3))
        cut = draw(st.booleans())
        source = (source[:start] + draw(_MUTATIONS)
                  + source[end if cut else start:])
    return source


def _unshared(source):
    """The Program of `source` parsed afresh, past the memo of `parse`, or
    the ParseError that parsing raises."""
    try:
        return script._Parser(script._lex(source)).program()
    except ParseError as err:
        return err


def _error_fields(err):
    return type(err), err.line, err.col, err.message


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
def test_mutated_programs_fail_only_by_parse_error(path):
    """A mutant of a shipped program parses, or raises a ParseError whose
    position lies inside the source; either way, as parsing it afresh
    does."""
    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None)
    @given(source=_mutants(path.read_text()))
    def check(source):
        try:
            program = parse(source)
        except ParseError as err:
            lines = source.split("\n")
            assert 1 <= err.line <= len(lines), (source, err)
            assert 1 <= err.col <= len(lines[err.line - 1]) + 1, (source, err)
            assert str(err).startswith(f"{err.line}:{err.col}:")
            assert _error_fields(_unshared(source)) == _error_fields(err)
        else:
            assert isinstance(program, Program)
            assert program == _unshared(source)
    check()


def test_comments_and_blank_lines_ignored():
    prog = parse("# heading\n\npoint A = (0, 0)  # trailing\n\n# done\n")
    assert len(prog.statements) == 1


def test_identifiers_with_apostrophes():
    prog = parse("point N_a'' = (1, 2)\npoint M = midpoint(N_a'', N_a'')")
    config, _ = evaluate(prog)
    assert config.point("N_a''") == Point(1.0, 2.0)


def test_param_arithmetic_and_precedence():
    src = ("param t = 0.5\n"
           "point A = (1 + 2 * t, -t)\n"
           "point B = ((1 + 2) * t, 4 / 2 / 2)\n")
    config, _ = evaluate(parse(src))
    assert config.point("A") == Point(2.0, -0.5)
    assert config.point("B") == Point(1.5, 1.0)


def test_negative_param_default():
    config, _ = evaluate(parse("param t = -0.25\npoint A = (t, 0)"))
    assert config.point("A").x == -0.25


def test_param_override_replaces_default():
    prog = parse("param t = 1\npoint A = (t, t)")
    config, _ = evaluate(prog, overrides={"t": 3.0})
    assert config.point("A") == Point(3.0, 3.0)


def test_unknown_override_rejected():
    prog = parse("param t = 1\npoint A = (t, t)")
    with pytest.raises(UnknownParam) as info:
        evaluate(prog, overrides={"s": 2.0})
    assert "t" in str(info.value)


def test_rotate_uses_degrees():
    src = "point O = (0,0)\npoint P = (1,0)\npoint Q = rotate(P, O, 90)"
    config, _ = evaluate(parse(src))
    expected = rotate(Point(1, 0), Point(0, 0), math.pi / 2.0)
    assert config.point("Q") == expected


def test_false_assert_yields_fail_verdict():
    src = ("point A = (0,0)\npoint B = (1,0)\npoint C = (0,1)\n"
           "assert collinear(A, B, C)")
    _, verdicts = evaluate(parse(src))
    assert len(verdicts) == 1
    assert not verdicts[0].passed


def test_failed_construction_poisons_dependents():
    """A degenerate construction must not abort the run: asserts touching
    the poisoned label fail with the underlying error attached, others are
    judged normally."""
    src = ("point A = (0,0)\n"
           "point B = (1,0)\n"
           "point C = (2,0)\n"          # collinear: no circumcenter
           "point O = circumcenter(A, B, C)\n"
           "point M = midpoint(O, A)\n"  # poisoned transitively
           "assert collinear(M, A, B)\n"
           "assert collinear(A, B, C)\n")
    config, verdicts = evaluate(parse(src))
    assert not verdicts[0].passed
    assert "evaluation_error" in verdicts[0].flags
    assert verdicts[0].error
    assert verdicts[1].passed
    assert "O" not in config.points()


def test_evaluator_scale_is_whole_figure():
    """Two far-apart clusters: a near-coincidence inside one cluster is
    judged against the full figure diameter, so it passes."""
    src = ("point A = (0, 0)\n"
           "point B = (1e-11, 0)\n"
           "point C = (5e-12, 1e-11)\n"
           "point FAR = (100, 100)\n"
           "assert collinear(A, B, C)\n")
    _, verdicts = evaluate(parse(src))
    assert verdicts[0].passed


def test_require_and_drawing_errors():
    head = "point A = (0,0)\npoint B = (1,0)\npoint C = (0,1)\n"
    err = parse_error(head + "require round(A, B, C, A)")
    assert (err.line, err.col, err.message) == \
        (4, 9, "unknown requirement 'round'")
    err = parse_error(head + "require convex(A, B, C)")
    assert isinstance(err, ArityError) and (err.line, err.col) == (4, 9)
    err = parse_error(head + "segment A B C")
    assert isinstance(err, ArityError) and (err.line, err.col) == (4, 1)
    err = parse_error(head + "circle A B Q")
    assert isinstance(err, UseBeforeDefine)


REQUIRE_CASES = {
    # name: (program over base labels, base points, outcome at scale 1)
    "inside": ("inside(P, A, B, C)", ((0, 0), (1, 0), (0, 1), (0.3, 0.3)),
               None),
    "inside_on_vertex": ("inside(P, A, B, C)",
                         ((0, 0), (1, 0), (0, 1), (1e-13, 0)),
                         "PointOnVertex"),
    "inside_outside": ("inside(P, A, B, C)",
                       ((0, 0), (1, 0), (0, 1), (2, 2)),
                       "PointOutsideCircumcircle"),
    "inside_flat": ("inside(P, A, B, C)",
                    ((0, 0), (1, 0), (2, 0), (0.5, 0.5)), "CollinearPoints"),
    "convex": ("convex(A, B, C, P)", ((0, 0), (1, 0), (1, 1), (0, 1)), None),
    "convex_dart": ("convex(A, B, C, P)",
                    ((0, 0), (1, 0), (0.3, 0.3), (0, 1)),
                    "NonConvexQuadrilateral"),
    "convex_flat": ("convex(A, B, C, P)",
                    ((0, 0), (1, 0), (2, 0), (0, 1)),
                    "NonConvexQuadrilateral"),
}


@pytest.mark.parametrize("case", sorted(REQUIRE_CASES))
def test_requires_are_scale_honest(case):
    """A require passes or fails alike for every power-of-two scale of its
    points, since such scaling is exact."""
    requirement, base, expected = REQUIRE_CASES[case]
    program = parse("point A = (0,0)\npoint B = (0,0)\npoint C = (0,0)\n"
                    "point P = (0,0)\n"
                    "deform A B C P about (0, 0) (0, 0) (0, 0) (0, 0)\n"
                    f"require {requirement}\n")
    builder = deformation_family(program, "scale").builder

    def outcome(k):
        try:
            builder(*(Point(x * 2.0 ** k, y * 2.0 ** k) for x, y in base))
        except GeometryError as exc:
            return type(exc).__name__
        return None

    assert outcome(0) == expected
    assert {k: outcome(k) for k in range(-40, 41)} == dict.fromkeys(
        range(-40, 41), expected)


@pytest.mark.parametrize("family, build, per_run", [
    ("example3", "circumcircle", 4),
    ("bisector", "angle_bisector", 4),
])
def test_shared_circles_and_bisectors_are_built_once(monkeypatch, family,
                                                     build, per_run):
    """example3 uses the circumcircle of A, B, C in six statements and that
    of each other nine-point center's triangle in one; bisector uses each
    interior bisector in two meets.  A run builds each once."""
    calls = []
    original = getattr(script, build)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (script, centers):
        if hasattr(module, build):  # centers builds the centers' circles
            monkeypatch.setattr(module, build, counted)
    fam = FAMILIES[family]
    fam.builder(*fam.base_points)
    assert len(calls) == len(set(calls)) == per_run


@pytest.mark.parametrize("on_rows", [False, True], ids=["floats", "rows"])
@pytest.mark.parametrize("family, build, per_run", [
    ("example2", "_equilateral_side", 8),
    ("example2", "_require_triangle", 4),
    ("example1", "_equilateral_side", 3),
    ("example1", "_require_triangle", 4),
])
def test_fermat_points_share_their_sides_and_triangle_checks(
        monkeypatch, family, build, per_run, on_rows):
    """example2's five Fermat points erect 15 apexes on 8 ordered sides
    and check 4 triangles: fermat1 and fermat2 of A, B, C share one check
    and three sides, and F_a, F_b and F_c share the sides B C, A B, C F1
    and F1 A with them or each other.  example1's A', B' and C' are
    built on the sides of F1's apexes, and 3 centroids and F1 check 4
    triangles.  A run builds each side's candidates and each triangle's
    check once, on floats and on rows."""
    calls = []
    original = getattr(centers, build)

    def counted(*args):
        calls.append(tuple(map(id, args)))
        return original(*args)

    monkeypatch.setattr(centers, build, counted)
    fam = FAMILIES[family]
    rng = np.random.default_rng(1)
    points = [Point(p.x + 0.01 * rng.standard_normal(50),
                    p.y + 0.01 * rng.standard_normal(50))
              for p in fam.base_points]
    if not on_rows:
        points = [Point(float(p.x[0]), float(p.y[0])) for p in points]
    with failures() as failed:
        fam.builder(*points)
    assert not np.any(failed.rows)
    assert len(calls) == len(set(calls)) == per_run


def test_an_example3_row_build_makes_one_circumcircle_per_triangle(
        monkeypatch):
    """On rows the nine-point centers read their circumcircles where the
    second intersections do: one build of the circle of A, B, C and one
    of each of A'BC, B'AC and C'AB."""
    calls = []

    def counted(*args):
        calls.append(tuple(map(id, args)))
        return circumcircle(*args)

    monkeypatch.setattr(script, "circumcircle", counted)
    monkeypatch.setattr(centers, "circumcircle", counted)
    fam = FAMILIES["example3"]
    rng = np.random.default_rng(0)
    points = [Point(p.x + 0.01 * rng.standard_normal(50),
                    p.y + 0.01 * rng.standard_normal(50))
              for p in fam.base_points]
    with failures():
        fam.builder(*points)
    assert len(calls) == len(set(calls)) == 4


def test_failed_require_fails_every_assert():
    src = ("point A = (0,0)\npoint B = (1,0)\npoint C = (2,0)\n"
           "point D = (1,1)\n"
           "require convex(A, B, C, D)\n"
           "assert collinear(A, B, C)\n"
           "assert equal_length(A, B, B, C)\n")
    config, verdicts = evaluate(parse(src))
    assert len(verdicts) == 2
    for v in verdicts:
        assert not v.passed and "evaluation_error" in v.flags
        assert v.error.startswith("require convex(A, B, C, D): ")
    assert set(config.points()) == {"A", "B", "C", "D"}


def test_a_figure_too_large_to_measure_fails_every_assert_saying_so():
    """Finite points whose diameter overflows a float: each assert fails
    with an error that names the figure's size, not a non-finite point."""
    src = ("point A = (-1.5e308, 0)\npoint B = (1.5e308, 0)\n"
           "point C = (0, 1e308)\n"
           "assert collinear(A, B, C)\n"
           "assert equal_length(A, C, B, C)\n")
    _, verdicts = evaluate(parse(src))
    assert [v.kind for v in verdicts] == ["collinear", "equal_length"]
    for v in verdicts:
        assert v.residual == math.inf and v.flags == ("evaluation_error",)
        assert v.error == ("the figure is too large to measure: its "
                           "diameter exceeds the largest float (1.8e+308)")


def test_drawables_skip_poisoned_labels():
    src = ("point A = (0,0)\npoint B = (2,0)\npoint C = (0,2)\n"
           "point M = midpoint(A, B)\n"
           "point I = incenter(A, M, B)\n"   # collinear: poisoned
           "segment A I\n"
           "segment A B\n"
           "circle A M I\n"
           "circle A B C\n"
           "assert collinear(A, M, B)\n")
    config, verdicts = evaluate(parse(src))
    assert verdicts[0].passed
    assert config.edges == (("A", "B"),)
    circles = {k: v for k, v in config.objects.items()
               if not isinstance(v, Point)}
    assert list(circles) == ["circle(A,B,C)"]
    assert dist(circles["circle(A,B,C)"].center, Point(1.0, 1.0)) < 1e-12


def test_family_builder_rejects_only_on_asserted_labels():
    source = ("point A = (0,0)\npoint B = (2,0)\npoint C = (0,2)\n"
              "point M = midpoint(A, B)\n"
              "point O = circumcenter(A, B, C)\n"
              "point I = incenter(A, M, B)\n"
              "segment A O\n"
              "segment O I\n"
              "assert equal_length(O, A, O, B) as eq \"OA = OB\"\n")
    build = deformation_family(parse(source + "deform A B C about (0, 0) "
                                              "(1, 0) (0, 1)\n"), "f").builder
    config = build(Point(0, 0), Point(4, 0), Point(0, 4))
    assert config.point("O") == Point(2.0, 2.0)
    assert "I" not in config.objects  # not asserted: drops out
    assert config.edges == (("A", "O"),)
    with pytest.raises(GeometryError):  # O is asserted
        build(Point(0, 0), Point(1, 0), Point(2, 0))
    # an unnamed assert is never judged, so its labels reject no draw
    unnamed = deformation_family(
        parse(source.replace(' as eq "OA = OB"', "")
              + "deform A B C about (0, 0) (1, 0) (0, 1)\n"), "f").builder
    assert "O" not in unnamed(Point(0, 0), Point(1, 0), Point(2, 0)).objects
    with pytest.raises(ValueError, match="no deform statement"):
        deformation_family(parse(source), "f")


@pytest.mark.parametrize("kind, passing, failing", [
    ("midpoints_coincide", "(2, 0)", "(3, 0)"),
])
def test_segment_pair_relations_are_assertable(kind, passing, failing):
    template = ("point A = (0, 0)\npoint B = (2, 1)\npoint C = {}\n"
                "point D = (0, 1)\nassert " + kind + "(A, B, C, D)\n")
    _, (held,) = evaluate(parse(template.format(passing)))
    _, (broke,) = evaluate(parse(template.format(failing)))
    assert held.kind == kind and held.passed
    assert not broke.passed


def test_second_intersection_in_scripts():
    src = ("point A = (1, 0)\npoint B = (0, 1)\npoint C = (-1, 0)\n"
           "point P = (0, 0)\n"
           "point A' = second_intersection(A, P, A, B, C)\n")
    config, _ = evaluate(parse(src))
    assert dist(config.point("A'"), Point(-1.0, 0.0)) < 1e-12


def test_second_intersection_missing_the_circle_poisons_its_label():
    src = ("point A = (1, 0)\npoint B = (0, 1)\npoint C = (-1, 0)\n"
           "point P = (3, 3)\npoint Q = (3, 4)\n"
           "point X = second_intersection(P, Q, A, B, C)\n"
           "assert collinear(A, B, X)\n")
    config, (verdict,) = evaluate(parse(src))
    assert "X" not in config.objects
    assert not verdict.passed
    assert verdict.error == "X: the line misses the circle"


SHIPPED = ["theorem1", "example1", "example2", "example3", "bisector",
           "eps_demo"]


def test_both_copies_of_the_shipped_scripts_are_equal():
    """`scripts/` (what `run scripts/...` and the benchmark read) and the
    package's copy (what the claim catalog reads) hold the same files
    with the same bytes."""
    def copy(directory):
        return {p.name: p.read_bytes() for p in directory.glob("*.geo")}

    shipped = copy(ROOT / "src" / "geodeform" / "scripts")
    assert sorted(shipped) == sorted(f"{name}.geo" for name in SHIPPED)
    assert copy(SCRIPTS) == shipped


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scripts_pass(name):
    src = (SCRIPTS / f"{name}.geo").read_text()
    config, verdicts = evaluate(parse(src))
    assert verdicts, name
    for v in verdicts:
        assert v.passed, (name, v)


def _scaled(program, factor):
    """`program` with each point given by coordinates scaled by factor."""
    def scale(stmt):
        if not (isinstance(stmt, Define) and isinstance(stmt.expr, CoordPair)):
            return stmt
        k = NumberLit(factor)
        return stmt._replace(expr=CoordPair(
            BinOp("*", stmt.expr.x, k), BinOp("*", stmt.expr.y, k)))
    return Program(tuple(map(scale, program.statements)))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scripts_are_exact_under_power_of_two_scaling(name):
    """Every verdict of a shipped script, its residual, flags and error,
    is the same when the figure is scaled by 2^k, for every k from -60 to
    60 and every tenth k out to +-300: such scaling is exact, and every
    floor is relative to the figure."""
    program = parse((SCRIPTS / f"{name}.geo").read_text())

    def verdicts(k):
        _, judged = evaluate(_scaled(program, 2.0 ** k))
        return [(v.residual, v.flags, v.error) for v in judged]

    ks = sorted({*range(-60, 61), *range(-300, 301, 10)})
    assert {k: verdicts(k) for k in ks} == dict.fromkeys(ks, verdicts(0))


# a right triangle, then points in general position: no three collinear,
# no four concyclic
FAR_POINTS = [(0, 0), (1, 0), (0, 1), (0.71, 1.46), (-0.38, 0.94),
              (1.41, 1.83), (2.36, -0.47), (-0.19, -0.66), (0.87, 0.43)]


@pytest.mark.parametrize("size", [1e-300, 1e-170, 1e170, 1e300])
def test_far_sizes_give_the_verdicts_of_size_one(size):
    """Every relation kind passes or fails, with the same flags, on a
    figure of size 1e+-170 or 1e+-300 as at size 1: the squares of its
    lengths over- or underflow, the lengths do not."""
    def verdicts(s):
        source = "".join(f"point P{i} = ({x * s!r}, {y * s!r})\n"
                         for i, (x, y) in enumerate(FAR_POINTS))
        for kind, (arity, *_) in RELATIONS.items():
            source += f"assert {kind}({', '.join(f'P{i}' for i in range(arity))})\n"
        _, judged = evaluate(parse(source))
        return [(v.kind, v.passed, v.flags, v.error) for v in judged]

    assert verdicts(size) == verdicts(1.0)


def test_eps_demo_degenerate_override():
    src = (SCRIPTS / "eps_demo.geo").read_text()
    _, verdicts = evaluate(parse(src), overrides={"eps": 0.0})
    assert verdicts[0].passed
    assert "coincident_cluster" in verdicts[0].flags


def test_builtin_equivalence_of_theorem1_script():
    from geodeform.catalog import FAMILIES

    src = (SCRIPTS / "theorem1.geo").read_text()
    config, verdicts = evaluate(parse(src))
    built = FAMILIES["theorem1"].builder(
        Point(0.0, 0.0), Point(0.6785683458446256, 4.77503593973593),
        Point(5.97972203814452, 4.873205452556299),
        Point(4.9135631958931025, 0.0))
    for label in ("O_ab", "O_bc", "O_cd", "O_da"):
        assert config.point(label) == built.point(label), label


HEAD = "point A = (0, 0)\npoint B = (1, 0)\npoint C = (0, 1)\n"


@pytest.mark.parametrize("source, error, line, col", [
    # the count is a shape error, reported at the keyword like `segment`'s
    ("deform A B C about (0, 0) (1, 0)\n", ArityError, 4, 1),
    ("deform A B about (0, 0) (1, 0) (0, 1)\n", ArityError, 4, 1),
    ("point M = midpoint(A, B)\ndeform A M about (0, 0) (1, 0)\n",
     ParseError, 5, 10),
    ("deform A B A about (0, 0) (1, 0) (0, 1)\n", ParseError, 4, 12),
    ("deform A Q about (0, 0) (1, 0)\n", UseBeforeDefine, 4, 10),
    ("deform A B (0, 0) (1, 0)\n", ParseError, 4, 10),
    ("deform A B about 0, 0\n", ParseError, 4, 12),
    ("deform A B about (0, 0) (1, 0)\ndeform C about (0, 1)\n",
     ParseError, 5, 1),
    ("deform A B about (0, 0) (1, 0) floor\n", ParseError, 4, 37),
    ("assert collinear(A, B, C) as same \"one\"\n"
     "assert collinear(C, B, A) as same \"two\"\n", ParseError, 5, 30),
    ("assert collinear(A, B, C) as line \"unterminated\n", ParseError, 4, 35),
    ("assert collinear(A, B, C) as line\n", ParseError, 4, 30),
    ("assert collinear(A, B, C) as \"no name\"\n", ParseError, 4, 30),
])
def test_deform_and_named_assert_errors(source, error, line, col):
    err = parse_error(HEAD + source)
    assert type(err) is error
    assert (err.line, err.col) == (line, col), err


def test_deform_and_named_asserts_parse():
    program = parse(HEAD + "param s = 2\n"
                    "deform A B C about (0, 0) (s, 0) (0, s / 2) floor s * 1e-3\n"
                    "assert collinear(A, B, C)\n"
                    "assert collinear(A, B, C) as flat \"A, B and C # line\"\n")
    plain, named = program.asserts()
    assert plain.name is None and plain.description == ""
    assert (named.name, named.description) == ("flat", "A, B and C # line")
    assert program.deform().labels == ("A", "B", "C")
    family = deformation_family(program, "demo")
    assert family.name == "demo"
    assert family.base_points == (Point(0, 0), Point(2, 0), Point(0, 1))
    assert family.epsilon_floor == 2e-3
    # run judges a named assert like any other and ignores deform
    config, verdicts = evaluate(program)
    assert [v.passed for v in verdicts] == [False, False]
    assert config.point("B") == Point(1, 0)


@pytest.mark.parametrize("deform", [
    "deform A B C about (0, 0) (1, 0) (0, 1) floor -1",
    # a literal that overflows is a ParseError (see
    # test_overflowing_number_literal_is_a_parse_error): these overflow
    # when deformation_family evaluates them
    "deform A B C about (0, 0) (1, 0) (0, 1) floor 1e300 * 1e300",
    "deform A B C about (0, 0) (1, 0) (0, 1e99 * 1e300)",
    "deform A B C about (0, 0) (1, 0) (0, 1 / 0)",
])
def test_deformation_family_rejects_bad_base(deform):
    with pytest.raises(ValueError, match="deform"):
        deformation_family(parse(HEAD + deform + "\n"), "bad")


@pytest.mark.parametrize("source, line, col", [
    ("param x = 1e999\n", 1, 11),
    ("param x = -1e999\n", 1, 12),
    ("point A = (0, 1.7976931348623159e308)\n", 1, 15),
    ("param t = 1\npoint A = (0, t * 2e308)\n", 2, 19),
    (HEAD + "point R = rotate(A, B, 1e400)\n", 4, 24),
    (HEAD + "deform A B C about (0, 0) (1, 0) (0, 1e999)\n", 4, 38),
    (HEAD + "deform A B C about (0, 0) (1, 0) (0, 1) floor 1e999\n", 4, 47),
])
def test_overflowing_number_literal_is_a_parse_error(source, line, col):
    """At the literal, before anything after it is read."""
    err = parse_error(source + "point A = (0, 0)\n")
    text = source.split("\n")[line - 1][col - 1:].split(")")[0].split()[0]
    assert type(err) is ParseError
    assert (err.line, err.col, err.message) == \
        (line, col, f"number {text} is out of range")


def test_largest_float_literal_parses():
    (decl,) = parse("param x = 1.7976931348623157e308\n").statements
    assert decl.default == 1.7976931348623157e308


# ---------------------------------------------------------------------------
# parse keeps the Program of each recent text, and hands it to every caller

SOURCES = {path.name: path.read_text(encoding="utf-8") for path in PROGRAMS}
SOURCES["all_kinds"] = ALL_KINDS_PROGRAM


def _nodes(value):
    """`value` and every value inside it, depth first."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _nodes(item)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_a_shared_program_cannot_change(name):
    """Every node of a parsed program is None, a str, float or int, or a
    tuple (NamedTuples included) with no attribute of its own: no caller
    can change the Program that parse hands to the next one."""
    program = parse(SOURCES[name])
    assert program is parse(SOURCES[name])
    assert program == _unshared(SOURCES[name])
    for node in _nodes(program):
        if isinstance(node, tuple):
            assert not hasattr(node, "__dict__"), node
        else:
            assert node is None or type(node) in (str, float, int), node


@pytest.mark.parametrize("source", [
    "point A = (0 0)\n",
    "point A = (0, 0)\npoint A = (1, 0)\n",
    "point A = (1e999, 0)\n",
    'assert collinear(A, B, C) as x "open\n',
    "\n# nothing\n",
])
def test_a_parse_error_raises_again_on_every_call(source):
    first, second = parse_error(source), parse_error(source)
    assert first is not second
    assert _error_fields(first) == _error_fields(second)


def test_parse_keeps_at_most_its_bound_of_programs():
    bound = parse.cache_info().maxsize
    for i in range(bound + 5):
        parse(f"point A = ({i}, 0.5)\n")
    assert parse.cache_info().currsize == bound
