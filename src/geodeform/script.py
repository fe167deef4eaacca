"""A small text language for describing point constructions and the
relations they are claimed to satisfy.

A script is a sequence of newline-terminated statements:

    param eps = 0.5                    # named scalar, overridable
    point A = (0, 0)                   # literal coordinates
    point B = (1, eps * 2)             # coordinates may use params
    point C = (0, 1)
    point M = midpoint(A, B)           # construction call
    require inside(M, A, B, C)         # precondition on defined points
    segment A B                        # drawn edge
    circle A B C                       # drawn circumcircle
    assert collinear(A, M, B)          # relation over defined points
    deform A B C about (0, 0) (1, 0) (0, 1) floor 1e-6
    assert collinear(A, M, B) as mid "M lies on AB"   # named claim

Coordinates, the rotation angle, the `deform` base coordinates and its
optional floor are arithmetic expressions over numbers and params with
the usual precedence; every other construction argument is the label of
a previously defined point.  Comments run from `#` to the end of the
line.  Angles are in degrees.  A description is a `"`-quoted string on
one line, without escapes.

`deform` names coordinate points of the program and the degenerate base
figure they take when the program is deformed (see `deformation_family`);
`floor` is the smallest deformation magnitude the family admits.  A named
assert is a claim of that family.  `run` ignores both, and judges a named
assert like any other.

Parsing is strict and single pass: labels must be defined before use,
duplicate definitions are rejected, and arity mistakes are reported at
the offending call.  Evaluation is total: a construction that fails
numerically (say, intersecting parallel bisectors) poisons its label,
and every assertion touching a poisoned label comes back as a failed
verdict carrying the original error instead of raising.  A failed
`require` fails every assertion the same way.  `segment` and `circle`
only add to the drawing; one that names a poisoned label is left out.
The statements of one figure run in one `parts()` block (see `core`):
the circles, bisectors, triangle checks and apex sides that several of
them build on the same points are built once.

The built-in deformation families are shipped programs of this language:
`deformation_family` turns a program with a `deform` statement into the
family that rebuilds the figure from deformed base points, and screens
each draw on the requires that read deformed points alone.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, Union

from .centers import CenterKind, Orientation, equilateral_apex, \
    right_isosceles_apex, triangle_center
from .configurations import Configuration, NonConvexQuadrilateral, \
    PointOnVertex, PointOutsideCircumcircle
from .core import (
    FLOOR,
    GUARD,
    Circle,
    GeometryError,
    NonFiniteInput,
    Point,
    angle_bisector,
    array_module,
    circumcircle,
    diameter,
    dist,
    guard,
    intersect,
    line_circle_meets,
    line_through,
    midpoint,
    parts,
    reflect_line,
    reflect_point,
    rotate,
    shared,
    signed_area,
    where,
)
from .relations import RELATIONS, DegeneratePosition, RelationVerdict, \
    arity_fits, evaluate_relation

if TYPE_CHECKING:
    from .deform import DeformationFamily

__all__ = [
    "ScriptError",
    "ParseError",
    "UseBeforeDefine",
    "ArityError",
    "UnknownParam",
    "Program",
    "parse",
    "evaluate",
    "deformation_family",
    "second_intersection",
    "FUNCTIONS",
    "REQUIREMENTS",
]


class ScriptError(Exception):
    """Base for everything the script layer can raise."""


class ParseError(ScriptError):
    """Syntax or static-semantics failure at a 1-based source position."""

    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class UseBeforeDefine(ParseError):
    """A label or param referenced before its defining statement."""


class ArityError(ParseError):
    """A construction or relation applied to the wrong number of arguments."""


class UnknownParam(ScriptError):
    """An override names a param the program never declared."""


# ---------------------------------------------------------------------------
# vocabulary

def second_intersection(origin: Point, through: Point,
                        circle: Circle) -> Point:
    """The meet of line origin-through with the circle that is not the
    origin itself (origin is assumed to lie on the circle): the meet
    farther from the origin, on a tie the one behind the foot of the
    center along the line from origin to through."""
    miss, _, first, second = line_circle_meets(line_through(origin, through),
                                               circle)
    guard(miss, DegeneratePosition, "the line misses the circle")
    best = where(dist(second, origin) > dist(first, origin), second, first)
    guard(dist(best, origin) <= GUARD * 2.0 * circle.radius,
          DegeneratePosition,
          "second circle intersection collapses onto the line origin")
    return best


Construction = Callable[[list[Point], float | None], Point]


def _center(kind: CenterKind) -> Construction:
    return lambda p, angle: triangle_center(kind, p[0], p[1], p[2])


# construction name -> (number of point arguments, takes a trailing angle,
# implementation over (points, angle in degrees or None))
FUNCTIONS: dict[str, tuple[int, bool, Construction]] = {
    "midpoint": (2, False, lambda p, angle: midpoint(p[0], p[1])),
    "reflect_line": (3, False, lambda p, angle: reflect_line(
        p[0], line_through(p[1], p[2]))),
    "reflect_point": (2, False, lambda p, angle: reflect_point(p[0], p[1])),
    "rotate": (2, True, lambda p, angle: rotate(
        p[0], p[1], math.radians(angle))),
    "centroid": (3, False, _center(CenterKind.X2)),
    "circumcenter": (3, False, _center(CenterKind.X3)),
    "incenter": (3, False, _center(CenterKind.X1)),
    "orthocenter": (3, False, _center(CenterKind.X4)),
    "ninepoint": (3, False, _center(CenterKind.X5)),
    "fermat1": (3, False, _center(CenterKind.X13)),
    "fermat2": (3, False, _center(CenterKind.X14)),
    "eq_apex": (3, False, lambda p, angle: equilateral_apex(
        p[0], p[1], Orientation.TOWARD_REFERENCE, p[2])),
    "ri_apex": (3, False, lambda p, angle: right_isosceles_apex(
        p[0], p[1], Orientation.TOWARD_REFERENCE, p[2])),
    "second_intersection": (5, False, lambda p, angle: second_intersection(
        p[0], p[1], shared(circumcircle, p[2], p[3], p[4]))),
    "bisector_meet": (6, False, lambda p, angle: intersect(
        shared(angle_bisector, p[1], p[0], p[2]),
        shared(angle_bisector, p[4], p[3], p[5]))),
}


def _require_convex(p: list[Point]) -> None:
    a, b, c, d = p
    diam = diameter(p)
    areas = [signed_area(a, b, c), signed_area(b, c, d),
             signed_area(c, d, a), signed_area(d, a, b)]
    floor = FLOOR * diam * diam
    guard(reduce(operator.or_, (abs(x) <= floor for x in areas)),
          NonConvexQuadrilateral, "three consecutive vertices are collinear")
    turns = [x > 0.0 for x in areas]
    guard(reduce(operator.or_, (t != turns[0] for t in turns[1:])),
          NonConvexQuadrilateral, "vertices in order are not strictly convex")


def _require_inside(p: list[Point]) -> None:
    circ = shared(circumcircle, p[1], p[2], p[3])
    diam = diameter(p[1:])
    for v in p[1:]:
        guard(dist(p[0], v) <= FLOOR * diam, PointOnVertex,
              "cevian point {} coincides with vertex {}", p[0], v)
    guard(dist(p[0], circ.center) >= circ.radius * (1.0 - FLOOR),
          PointOutsideCircumcircle,
          "cevian point {} is not strictly inside the circumcircle", p[0])


# precondition name -> (number of point arguments, check over the points
# raising a GeometryError when they fail it)
REQUIREMENTS: dict[str, tuple[int, Callable[..., None]]] = {
    "convex": (4, _require_convex),
    "inside": (4, _require_inside),
}

# drawable -> number of point labels
DRAWABLES: dict[str, int] = {"segment": 2, "circle": 3}


def _arity_phrase(kind: str) -> str:
    lo, hi, step, *_ = RELATIONS[kind]
    if hi == lo:
        return f"exactly {lo} point labels"
    grouped = "" if step == 1 else f" in groups of {step}"
    return f"{lo} or more point labels{grouped}"


# ---------------------------------------------------------------------------
# syntax tree

# NamedTuples, as the lexer's tokens are: they carry no source position,
# so two programs that differ only in layout are equal

class NumberLit(NamedTuple):
    value: float


class ParamRef(NamedTuple):
    name: str


class UnaryNeg(NamedTuple):
    operand: Scalar


class BinOp(NamedTuple):
    op: str
    left: Scalar
    right: Scalar


Scalar = Union[NumberLit, ParamRef, UnaryNeg, BinOp]


class CoordPair(NamedTuple):
    x: Scalar
    y: Scalar


class Construct(NamedTuple):
    func: str
    points: tuple[str, ...]
    angle: Scalar | None = None


PointExpr = Union[CoordPair, Construct]


class Define(NamedTuple):
    label: str
    expr: PointExpr


class ParamDecl(NamedTuple):
    name: str
    default: float


class AssertStmt(NamedTuple):
    kind: str
    labels: tuple[str, ...]
    name: str | None = None  # a named assert is a claim of the family
    description: str = ""


class Require(NamedTuple):
    kind: str
    labels: tuple[str, ...]


class Draw(NamedTuple):
    shape: str
    labels: tuple[str, ...]


class Deform(NamedTuple):
    labels: tuple[str, ...]
    base: tuple[CoordPair, ...]
    floor: Scalar | None = None


Statement = Union[Define, ParamDecl, AssertStmt, Require, Draw, Deform]


class Program(NamedTuple):
    statements: tuple[Statement, ...]

    def params(self) -> dict[str, float]:
        return {s.name: s.default for s in self.statements
                if isinstance(s, ParamDecl)}

    def asserts(self) -> tuple[AssertStmt, ...]:
        return tuple(s for s in self.statements if isinstance(s, AssertStmt))

    def deform(self) -> Deform | None:
        return next((s for s in self.statements if isinstance(s, Deform)),
                    None)


# ---------------------------------------------------------------------------
# lexer

# a token is a plain tuple (kind, text, line, col): kind is "ident",
# "number", "string", "newline", "eof", or a punctuation character itself,
# so one comparison tests for a given punctuation
_Token = tuple[str, str, int, int]

_PUNCT = "(),=+-*/"
# identifiers are ASCII, as a Configuration label must be: a letter or
# "_", then letters, digits, "_" and "'"
_IDENT_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_IDENT_TAIL = re.compile(r"[A-Za-z0-9_']*")
# ASCII digits only: str.isdigit() also accepts superscripts and other
# scripts' digits, which float() rejects or silently converts
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")


def _lex(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    ident_tail, number = _IDENT_TAIL.match, _NUMBER.match
    lines = source.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        i = 0
        n = len(raw)
        while i < n:
            ch = raw[i]
            if ch in " \t\r":
                i += 1
                continue
            col = i + 1
            if ch in _IDENT_START:
                j = ident_tail(raw, col).end()
                append(("ident", raw[i:j], lineno, col))
                i = j
            elif ch in _PUNCT:
                append((ch, ch, lineno, col))
                i = col
            elif "0" <= ch <= "9":
                j = number(raw, i).end()
                append(("number", raw[i:j], lineno, col))
                i = j
            elif ch == "#":
                break
            elif ch == '"':
                j = raw.find('"', col)
                if j < 0:
                    raise ParseError(lineno, col, "unterminated string")
                append(("string", raw[col:j], lineno, col))
                i = j + 1
            else:
                raise ParseError(lineno, col, f"unexpected character {ch!r}")
        # a line without tokens ends no statement
        if tokens and tokens[-1][0] != "newline":
            append(("newline", "", lineno, n + 1))
    append(("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    """Recursive descent over the token list.

    `cur` is the current token; `advance` moves it on.  A ParseError at a
    token `tok` is raised as `ParseError(*tok[2:], ...)`, its line and
    column.  Error positions follow one convention throughout: a missing
    separator or terminator is reported at the last consumed token (the
    place the missing piece should follow), while an unexpected or unknown
    name is reported at the offending token itself.
    """

    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        # past the end, eof repeats
        self._next = chain(tokens, repeat(tokens[-1])).__next__
        self.cur = self._next()
        self.point_labels: set[str] = set()
        self.param_names: set[str] = set()
        self.coordinate_labels: set[str] = set()
        self.claim_names: set[str] = set()
        self.deformed = False

    @property
    def prev(self) -> _Token:
        """The last consumed token, searched for: only errors read it."""
        return self.tokens[max(self.tokens.index(self.cur) - 1, 0)]

    def advance(self) -> _Token:
        tok = self.cur
        self.cur = self._next()
        return tok

    def expect(self, text: str, *alternatives: str) -> None:
        if self.cur[0] == text:
            self.cur = self._next()  # advance, inlined in this hot call
            return
        shown = " or ".join(f"'{t}'" for t in (text, *alternatives))
        raise ParseError(*self.prev[2:], f"expected {shown}")

    def expect_ident(self, what: str) -> _Token:
        tok = self.cur
        if tok[0] == "ident":
            self.cur = self._next()  # advance, inlined in this hot call
            return tok
        raise ParseError(*tok[2:],
                         f"expected {what}, found {tok[1] or tok[0]!r}")

    def number(self) -> float:
        tok = self.advance()
        value = float(tok[1])
        if value == math.inf:
            raise ParseError(*tok[2:], f"number {tok[1]} is out of range")
        return value

    # ---- statements ----

    def program(self) -> Program:
        statements: list[Statement] = []
        # the lexer ends each line that holds tokens with one newline, and
        # gives no other newline
        while self.cur[0] != "eof":
            statements.append(self.statement())
            if self.cur[0] != "newline":
                raise ParseError(*self.prev[2:], "expected end of statement")
            self.advance()
        if not statements:
            raise ParseError(*self.cur[2:], "empty program")
        return Program(tuple(statements))

    def statement(self) -> Statement:
        tok = self.advance()
        parse = self._STATEMENT.get(tok[1]) if tok[0] == "ident" else None
        if parse is None:
            raise ParseError(*tok[2:],
                             f"expected a statement, found {tok[1]!r}")
        return parse(self, tok)

    def _fresh(self, tok: _Token) -> str:
        text = tok[1]
        if text in self.point_labels or text in self.param_names:
            raise ParseError(*tok[2:], f"duplicate definition of {text!r}")
        return text

    def point_stmt(self, keyword: _Token) -> Define:
        label = self._fresh(self.expect_ident("a point label"))
        self.expect("=")
        expr = self.point_expr()
        self.point_labels.add(label)
        if isinstance(expr, CoordPair):
            self.coordinate_labels.add(label)
        return Define(label, expr)

    def param_stmt(self, keyword: _Token) -> ParamDecl:
        name = self._fresh(self.expect_ident("a param name"))
        self.expect("=")
        negate = self.cur[0] == "-"
        if negate:
            self.advance()
        if self.cur[0] != "number":
            raise ParseError(*self.prev[2:], "expected a number")
        value = self.number()
        self.param_names.add(name)
        return ParamDecl(name, -value if negate else value)

    def label_list(self) -> list[_Token]:
        """`(A, B, ...)` as unresolved tokens: a wrong argument count is a
        shape error and should win over unresolved names inside the list."""
        self.expect("(")
        arg_toks = [self.expect_ident("a point label")]
        while self.cur[0] == ",":
            self.advance()
            arg_toks.append(self.expect_ident("a point label"))
        self.expect(")", ",")
        return arg_toks

    def assert_stmt(self, keyword: _Token) -> AssertStmt:
        tok = self.expect_ident("a relation name")
        kind = tok[1]
        if kind not in RELATIONS:
            raise ParseError(*tok[2:], f"unknown relation {kind!r}")
        arg_toks = self.label_list()
        n = len(arg_toks)
        if not arity_fits(kind, n):
            raise ArityError(*tok[2:],
                             f"{kind} takes {_arity_phrase(kind)}, got {n}")
        labels = tuple(map(self.resolve_point, arg_toks))
        if not (self.cur[0] == "ident" and self.cur[1] == "as"):
            return AssertStmt(kind, labels)
        self.advance()
        name = self.expect_ident("a claim name")
        if name[1] in self.claim_names:
            raise ParseError(*name[2:], f"duplicate claim name {name[1]!r}")
        if self.cur[0] != "string":
            raise ParseError(*self.prev[2:], "expected a quoted description")
        self.claim_names.add(name[1])
        return AssertStmt(kind, labels, name[1], self.advance()[1])

    def require_stmt(self, keyword: _Token) -> Require:
        tok = self.expect_ident("a requirement name")
        kind = tok[1]
        if kind not in REQUIREMENTS:
            raise ParseError(*tok[2:], f"unknown requirement {kind!r}")
        arg_toks = self.label_list()
        self.expect_count(tok, len(arg_toks), REQUIREMENTS[kind][0])
        return Require(kind, tuple(map(self.resolve_point, arg_toks)))

    def draw_stmt(self, keyword: _Token) -> Draw:
        arg_toks = [self.expect_ident("a point label")]
        while self.cur[0] == "ident":
            arg_toks.append(self.advance())
        self.expect_count(keyword, len(arg_toks), DRAWABLES[keyword[1]])
        return Draw(keyword[1], tuple(map(self.resolve_point, arg_toks)))

    def deform_stmt(self, keyword: _Token) -> Deform:
        if self.deformed:
            raise ParseError(*keyword[2:], "a program deforms only once")
        arg_toks = [self.expect_ident("a point label")]
        while self.cur[0] == "ident" and self.cur[1] != "about":
            arg_toks.append(self.advance())
        if self.cur[0] != "ident":
            raise ParseError(*self.prev[2:], "expected 'about'")
        self.advance()
        base = [self.coord_pair()]
        while self.cur[0] == "(":
            base.append(self.coord_pair())
        floor = None
        if self.cur[0] == "ident" and self.cur[1] == "floor":
            self.advance()
            floor = self.scalar()
        if len(base) != len(arg_toks):
            raise ArityError(*keyword[2:],
                             f"deform names {len(arg_toks)} point labels but "
                             f"gives {len(base)} base points")
        labels: list[str] = []
        for tok in arg_toks:
            label = self.resolve_point(tok)
            if label in labels or label not in self.coordinate_labels:
                why = ("is named twice" if label in labels
                       else "is constructed, not given by coordinates")
                raise ParseError(*tok[2:], f"deform: {label!r} {why}")
            labels.append(label)
        self.deformed = True
        return Deform(tuple(labels), tuple(base), floor)

    def expect_count(self, tok: _Token, got: int, wants: int) -> None:
        if got != wants:
            raise ArityError(*tok[2:],
                             f"{tok[1]} takes {wants} point labels, got {got}")

    def resolve_point(self, tok: _Token) -> str:
        text = tok[1]
        if text in self.point_labels:
            return text
        if text in self.param_names:
            raise ParseError(*tok[2:], f"{text!r} is a param, not a point")
        raise UseBeforeDefine(*tok[2:], f"point {text!r} is not defined yet")

    # statement keyword -> the parser of the rest of its statement
    _STATEMENT = {"point": point_stmt, "param": param_stmt,
                  "assert": assert_stmt, "require": require_stmt,
                  "deform": deform_stmt, **dict.fromkeys(DRAWABLES, draw_stmt)}

    # ---- expressions ----

    def point_expr(self) -> PointExpr:
        tok = self.cur
        if tok[0] == "(":
            return self.coord_pair()
        if tok[0] == "ident":
            if tok[1] in FUNCTIONS:
                return self.construct()
            raise ParseError(*tok[2:], f"unknown construction {tok[1]!r}")
        raise ParseError(*tok[2:],
                         "expected coordinates or a construction call")

    def coord_pair(self) -> CoordPair:
        self.expect("(")
        x = self.scalar()
        self.expect(",")
        y = self.scalar()
        self.expect(")")
        return CoordPair(x, y)

    def construct(self) -> Construct:
        tok = self.advance()
        func = tok[1]
        n_points, takes_angle, _ = FUNCTIONS[func]
        total = n_points + (1 if takes_angle else 0)
        self.expect("(")
        args = [self.resolve_point(self.expect_ident("a point label"))]
        while len(args) < n_points and self.cur[0] == ",":
            self.advance()
            args.append(self.resolve_point(self.expect_ident("a point label")))
        got = len(args)
        angle: Scalar | None = None
        while self.cur[0] == ",":  # the angle, then surplus arguments
            self.advance()
            if takes_angle and got == n_points:
                angle = self.scalar()
            elif self.cur[0] == "ident":
                self.advance()  # surplus argument; count it for the report
            else:
                self.scalar()
            got += 1
        self.expect(")")
        if got != total:
            wants = (f"{n_points} point labels and an angle" if takes_angle
                     else f"{n_points} point labels")
            raise ArityError(*tok[2:], f"{func} takes {wants}, got {got}")
        return Construct(func, tuple(args), angle)

    def scalar(self) -> Scalar:
        node = self.term()
        while self.cur[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Scalar:
        node = self.factor()
        while self.cur[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Scalar:
        tok = self.cur
        kind = tok[0]
        if kind == "number":
            return NumberLit(self.number())
        if kind == "ident":
            self.advance()
            text = tok[1]
            if text in self.param_names:
                return ParamRef(text)
            if text in self.point_labels:
                raise ParseError(*tok[2:],
                                 f"{text!r} is a point, not a number")
            raise UseBeforeDefine(*tok[2:],
                                  f"param {text!r} is not declared yet")
        if kind == "(":
            self.advance()
            node = self.scalar()
            self.expect(")")
            return node
        if kind == "-":
            self.advance()
            return UnaryNeg(self.factor())
        raise ParseError(*tok[2:], "expected a numeric expression")


# keyed by the text, so an edited file parses afresh; a ParseError is not
# kept, and raises again on every call.  A Program is NamedTuples of
# tuples, strings, numbers and None, so every caller can share one.
@lru_cache(maxsize=32)
def parse(source: str) -> Program:
    """Parse script text into a Program, or raise ParseError on the first
    failure (no recovery).  The last 32 distinct texts keep their
    Program."""
    return _Parser(_lex(source)).program()


# ---------------------------------------------------------------------------
# evaluator

class _PoisonedLabel(Exception):
    """Internal: a construction argument failed earlier."""


def _eval_scalar(node: Scalar, params: dict[str, float]) -> float:
    if isinstance(node, NumberLit):
        return node.value
    if isinstance(node, ParamRef):
        return params[node.name]
    if isinstance(node, UnaryNeg):
        return -_eval_scalar(node.operand, params)
    left = _eval_scalar(node.left, params)
    right = _eval_scalar(node.right, params)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    try:
        return left / right
    except ZeroDivisionError as exc:  # no value: fail as a non-finite one
        raise NonFiniteInput(str(exc)) from None


def _arguments(labels: tuple[str, ...], points: dict[str, Point],
               poisoned: dict[str, str]) -> list[Point]:
    try:
        return list(map(points.__getitem__, labels))
    except KeyError:
        # labels are defined before use, so a missing one was poisoned
        bad = next(label for label in labels if label in poisoned)
        raise _PoisonedLabel(poisoned[bad]) from None


def _construct(statements: Sequence[Statement], params: dict[str, float],
               given: dict[str, Point],
               needed: frozenset[str] | None,
               ) -> tuple[Configuration, dict[str, str], str | None]:
    """Run the point, require and drawing statements in order; the others
    are passed over.

    Labels in `given` take those points in place of their coordinates.
    With `needed` None, a failed construction poisons its label and a
    failed require is recorded.  Otherwise a failed require, or a failed
    construction of a label in `needed`, raises its error, and any other
    failed label drops out.  Returns the configuration, the message of
    every poisoned label, and the message of the first failed require.

    Given points whose coordinates are float64 arrays run every sample of
    a batch at once, one row each: a failing guard marks its rows failed
    in the enclosing `failures()` block instead of raising.  The
    statements run in one `parts()` block, so they share the parts they
    build on the same points.
    """
    points: dict[str, Point] = {}
    circles: dict[str, Circle] = {}
    edges: list[tuple[str, ...]] = []
    poisoned: dict[str, str] = {}
    failed: str | None = None
    with parts():
        for stmt in statements:
            if isinstance(stmt, Define):
                label, expr = stmt.label, stmt.expr
                try:
                    if label in given:
                        points[label] = given[label]
                    elif isinstance(expr, CoordPair):
                        points[label] = Point(_eval_scalar(expr.x, params),
                                              _eval_scalar(expr.y, params))
                    else:
                        args = _arguments(expr.points, points, poisoned)
                        angle = (None if expr.angle is None
                                 else _eval_scalar(expr.angle, params))
                        points[label] = FUNCTIONS[expr.func][2](args, angle)
                except _PoisonedLabel as exc:
                    poisoned[label] = str(exc)
                except (GeometryError, ArithmeticError) as exc:
                    if needed is not None and label in needed:
                        raise
                    poisoned[label] = f"{label}: {exc}"
            elif isinstance(stmt, Require):
                try:
                    args = _arguments(stmt.labels, points, poisoned)
                    REQUIREMENTS[stmt.kind][1](args)
                except _PoisonedLabel as exc:
                    failed = failed or str(exc)
                except (GeometryError, ArithmeticError) as exc:
                    if needed is not None:
                        raise
                    failed = failed or (f"require {stmt.kind}"
                                        f"({', '.join(stmt.labels)}): {exc}")
            elif isinstance(stmt, Draw):
                if poisoned and any(lb in poisoned for lb in stmt.labels):
                    continue
                if stmt.shape == "segment":
                    edges.append(stmt.labels)
                    continue
                try:
                    circle = shared(circumcircle,
                                    *[points[label] for label in stmt.labels])
                except GeometryError:
                    continue  # collinear labels: there is no circle to draw
                circles[f"circle({','.join(stmt.labels)})"] = circle
    config = Configuration({**points, **circles}, dict(params), tuple(edges))
    return config, poisoned, failed


def evaluate(program: Program, overrides: dict[str, float] | None = None,
             ) -> tuple[Configuration, list[RelationVerdict]]:
    """Run the program: build every point, then judge every assertion.

    Overrides replace declared param defaults.  Failed constructions do
    not raise; they poison their label, and each assertion over a poisoned
    label yields a failed verdict carrying the underlying error.  A failed
    require fails every assertion the same way.  Residuals are normalized
    by the diameter of all defined points, matching how the deformation
    engine judges claims against whole configurations.  Whether a
    residual passes is the caller's threshold to decide.
    """
    params = program.params()
    for name, value in (overrides or {}).items():
        if name not in params:
            raise UnknownParam(f"param {name!r} is not declared "
                               f"(have: {', '.join(sorted(params)) or 'none'})")
        params[name] = float(value)

    config, poisoned, failed = _construct(program.statements, params, {},
                                          None)
    points = config.points()
    scale = diameter(list(points.values()))
    # a figure wider than the largest float has no size to judge a defect
    # against: every assert fails, saying so
    oversize = None if math.isfinite(scale) else (
        "the figure is too large to measure: its diameter exceeds the "
        "largest float (1.8e+308)")

    verdicts: list[RelationVerdict] = []
    for stmt in program.asserts():
        error = failed or next(
            (poisoned[lb] for lb in stmt.labels if lb in poisoned), oversize)
        if error is not None:
            verdicts.append(RelationVerdict.failed(
                stmt.kind, flags=("evaluation_error",), error=error))
            continue
        try:
            verdicts.append(evaluate_relation(
                stmt.kind, [points[lb] for lb in stmt.labels], scale=scale))
        except (GeometryError, ArithmeticError) as exc:
            verdicts.append(RelationVerdict.failed(
                stmt.kind, flags=("evaluation_error",), error=str(exc)))
    return config, verdicts


def _screened(stmt: Statement, deformed: tuple[str, ...]) -> bool:
    """Whether `stmt` is a require that reads deformed points alone: its
    family screens a draw on it before building."""
    return isinstance(stmt, Require) and set(stmt.labels) <= set(deformed)


def _family_builder(program: Program) -> Callable[..., Configuration]:
    """The builder of the deformation family whose figure is `program`.

    `builder(*points)` runs the program with the given points in place of
    the coordinates of the labels its `deform` statement names.  It raises
    the error of a failed require, or of a failed construction that a
    named assertion or a requirement depends on, so a sampler rejects the
    draw; any other failed label is left out, as `evaluate` leaves it out.
    Points whose coordinates are float64 rows build only the labels that
    the named assertions and requires read, and draw nothing: every
    failure on a row then rejects it.  Rows leave the requires that read
    deformed points alone to the family's screen (`_family_screen`);
    floats check every require.  An unnamed assert, which `verify` never
    judges, rejects no draw.  ValueError when the program has no `deform`.
    """
    deform = program.deform()
    if deform is None:
        raise ValueError("the program has no deform statement")
    labels = deform.labels
    params = program.params()
    needed = {lb for s in program.statements
              if isinstance(s, Require)
              or isinstance(s, AssertStmt) and s.name is not None
              for lb in s.labels}
    for stmt in reversed(program.statements):
        if (isinstance(stmt, Define) and stmt.label in needed
                and isinstance(stmt.expr, Construct)):
            needed.update(stmt.expr.points)
    frozen = frozenset(needed)
    steps = tuple(s for s in program.statements
                  if isinstance(s, (Define, Require, Draw)))
    row_steps = tuple(s for s in steps if isinstance(s, Require)
                      and not _screened(s, labels)
                      or isinstance(s, Define) and s.label in frozen)

    def builder(*points: Point) -> Configuration:
        given = dict(zip(labels, points, strict=True))
        on_rows = array_module(points[0].x) is not None
        return _construct(row_steps if on_rows else steps, params, given,
                          frozen)[0]

    return builder


@dataclass(frozen=True)
class _Screen:
    """A family's requires that read deformed points alone, each as its
    kind and its labels' positions in the `deform` statement, run on the
    points given for them.  Equal screens pass the same draws."""

    requires: tuple[tuple[str, tuple[int, ...]], ...]

    def __call__(self, *points: Point) -> None:
        with parts():
            for kind, at in self.requires:
                REQUIREMENTS[kind][1]([points[i] for i in at])


def _family_screen(program: Program) -> _Screen | None:
    """The screen of the deformation family of `program`; None when it
    has none."""
    labels = program.deform().labels
    requires = tuple((s.kind, tuple(map(labels.index, s.labels)))
                     for s in program.statements if _screened(s, labels))
    return _Screen(requires) if requires else None


def deformation_family(program: Program, name: str) -> DeformationFamily:
    """The family `name` of `program`: the base points and floor of its
    `deform` statement, evaluated at the param defaults, the screen of
    the requires that read deformed points alone, and its builder
    `_family_builder(program)`.  ValueError when the program has no
    `deform` or a base point or the floor is out of range."""
    from .deform import DeformationFamily

    builder = _family_builder(program)
    deform = program.deform()
    params = program.params()
    try:
        base = tuple(Point(_eval_scalar(p.x, params), _eval_scalar(p.y, params))
                     for p in deform.base)
        floor = (0.0 if deform.floor is None
                 else _eval_scalar(deform.floor, params))
    except (GeometryError, ArithmeticError) as exc:
        raise ValueError(f"deform: {exc}") from None
    if not (math.isfinite(floor) and floor >= 0.0):
        raise ValueError(f"deform: floor must be finite and >= 0, got {floor}")
    return DeformationFamily(name, base, builder, floor,
                             _family_screen(program))
