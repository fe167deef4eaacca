"""Count the numpy calls of one build and one judge of a shipped family.

`family_calls(name)` draws a fixed 1000-row batch of the family (the
first round `sample` draws at epsilon 0.5, seeds 0..999), builds it once
and judges each of its claims once on the result, all inside
`failures()` blocks as a sweep runs them.  The coordinates are a
`Counting` subclass of `ndarray` whose `__array_ufunc__` and
`__array_function__` count every ufunc call, ufunc method (`reduce`, ...)
and numpy function that reaches them, so the count is exact and the same
on any host.  A ufunc applied to a Python list of arrays reaches no
override: the `logical_or.reduce` that folds a `Failures`'s masks is not
counted (2 to 5 folds per family).  Each call runs on plain arrays, so
the counted build and judge have the bits of plain ones: `plain_calls`
returns the same results for a caller to compare.  `caller_calls(name)`
counts the same calls by the innermost `geodeform` function that made
each, to show who spends them, and `layer_calls(name)` by the layer that
made each: the family's screen, its build, or the judging of its claims.
`kind_calls(kind)` counts the numpy calls of one judge of a relation kind
on a fixed seeded 1000-row figure.  `verify_counts(argv)` counts the raw
stream draws (`_disk_draws` computations) and the screen calls of one
in-process `geodeform` invocation: like the numpy calls, an exact count
that is the same on any host.
"""

from __future__ import annotations

import contextlib
import io
import sys
from collections import Counter
from typing import Callable

import numpy as np

from geodeform import cli, deform, script
from geodeform.catalog import CLAIMS, FAMILIES
from geodeform.core import Point, failures
from geodeform.deform import _disk_draws
from geodeform.relations import RELATIONS, evaluate_relation

ROWS = 1000
EPSILON = 0.5


def _by_name(name: str) -> str:
    return name


def _by_caller(name: str) -> str:
    """The innermost `geodeform` function on the stack, as module.name."""
    frame = sys._getframe(1)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("geodeform."):
            code = frame.f_code
            return (f"{module.removeprefix('geodeform.')}."
                    f"{getattr(code, 'co_qualname', code.co_name)}")
        frame = frame.f_back
    return "(outside geodeform)"


# the functions inside which `layer_calls` counts a call as a family's
# screen or as the judging of a claim, by (module, qualified name); every
# other call builds
_LAYERS = {("geodeform.script", "_Screen.__call__"): "screen",
           ("geodeform.deform", "RelationClaim.evaluate"): "judge"}


def _by_layer(name: str) -> str:
    """The layer of the call: "screen", "build" or "judge"."""
    frame = sys._getframe(1)
    while frame is not None:
        layer = _LAYERS.get((frame.f_globals.get("__name__"),
                             frame.f_code.co_qualname))
        if layer is not None:
            return layer
        frame = frame.f_back
    return "build"


def _counting(counts: Counter, key: Callable[[str], str] = _by_name) -> type:
    """An ndarray subclass that adds each numpy call it meets to
    `counts`, under `key` of the call's name, and runs it on plain
    arrays."""

    def plain(x):
        if isinstance(x, np.ndarray):
            return x.view(np.ndarray)
        if isinstance(x, (list, tuple)):
            return type(x)(plain(v) for v in x)
        return x

    def wrap(x):
        if type(x) is np.ndarray:
            return x.view(Counting)
        if isinstance(x, tuple):
            return tuple(wrap(v) for v in x)
        return x

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            counts[key(ufunc.__name__ if method == "__call__"
                       else f"{ufunc.__name__}.{method}")] += 1
            out = kwargs.get("out")
            if out is not None:
                kwargs["out"] = plain(out)
            result = getattr(ufunc, method)(*plain(inputs), **kwargs)
            if out is not None:
                return out[0] if len(out) == 1 else out
            return wrap(result)

        def __array_function__(self, func, types, args, kwargs):
            counts[key(func.__name__)] += 1
            return wrap(func(*plain(args), **plain(kwargs)))

    return Counting


def _draw(name: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """The x and y rows of each base point of the family's fixed draw."""
    family = FAMILIES[name]
    base = family.base_points
    radius = EPSILON * family.base_diameter()
    states = np.arange(ROWS, dtype=np.uint64)
    dx, dy, _ = _disk_draws(states, len(base))
    return [(p.x + radius * dx[:, i], p.y + radius * dy[:, i])
            for i, p in enumerate(base)]


def _build_and_judge(name: str, draw, array: type) -> list:
    """The family's build of `draw` with coordinates of type `array`, then
    its claims judged on it: every row of every point built, the rows
    each block marked failed, and each claim's residuals, as plain
    arrays."""
    family = FAMILIES[name]
    claims = [c.claim for c in CLAIMS.values() if c.family is family]
    points = [Point(x.view(array), y.view(array)) for x, y in draw]
    results = []
    with np.errstate(all="ignore"):
        with failures() as failed:
            if family.screen is not None:
                family.screen(*points)
            config = family.builder(*points)
        results.append(failed.rows)
        for p in config.points().values():
            results += [p.x, p.y]
        for claim in claims:
            with failures() as failed:
                verdict = claim.evaluate(config,
                                         scale=family.base_diameter())
            results += [failed.rows, verdict.residual]
    return [np.broadcast_to(np.asarray(r).view(np.ndarray), (ROWS,))
            for r in results]


def family_calls(name: str) -> tuple[Counter, list]:
    """The numpy calls of one build and one judge of family `name` on its
    fixed draw, by name, and what they computed."""
    counts: Counter = Counter()
    results = _build_and_judge(name, _draw(name), _counting(counts))
    return counts, results


def caller_calls(name: str) -> Counter:
    """The numpy calls of `family_calls(name)`, by the innermost
    `geodeform` function that made each, as module.function."""
    counts: Counter = Counter()
    _build_and_judge(name, _draw(name), _counting(counts, _by_caller))
    return counts


def layer_calls(name: str) -> tuple[int, int, int]:
    """The numpy calls of `family_calls(name)` by layer: (screen, build,
    judge), the judge summed over the family's claims."""
    counts: Counter = Counter()
    _build_and_judge(name, _draw(name), _counting(counts, _by_layer))
    return counts["screen"], counts["build"], counts["judge"]


def plain_calls(name: str) -> list:
    """What `family_calls` computes, on plain arrays."""
    return _build_and_judge(name, _draw(name), np.ndarray)


def _judge_kind(kind: str, array: type) -> list:
    """One judge of `kind` on its fixed figure, the fewest points the kind
    takes drawn uniformly from the square [-1, 1]^2 with seed 0, with
    coordinates of type `array`: the rows marked failed and the residuals,
    as plain arrays."""
    n = RELATIONS[kind][0]
    xy = np.random.default_rng(0).uniform(-1.0, 1.0, (n, 2, ROWS))
    points = [Point(x.view(array), y.view(array)) for x, y in xy]
    with np.errstate(all="ignore"), failures() as failed:
        verdict = evaluate_relation(kind, points)
    return [np.broadcast_to(np.asarray(r).view(np.ndarray), (ROWS,))
            for r in (failed.rows, verdict.residual)]


def kind_calls(kind: str) -> tuple[Counter, list]:
    """The numpy calls of one judge of relation `kind` on its fixed
    figure, by name, and what it computed."""
    counts: Counter = Counter()
    results = _judge_kind(kind, _counting(counts))
    return counts, results


def plain_kind(kind: str) -> list:
    """What `kind_calls` computes, on plain arrays."""
    return _judge_kind(kind, np.ndarray)


@contextlib.contextmanager
def counted_draws_and_screens():
    """`with counted_draws_and_screens() as counts:` counts in
    counts["draws"] the raw stream draws, and in counts["screens"] the
    calls of a family program's screen, made inside the block."""
    counts: Counter = Counter()
    draws, screen = deform._disk_draws, script._Screen.__call__

    def counted_draws(*args):
        counts["draws"] += 1
        return draws(*args)

    def counted_screen(self, *points):
        counts["screens"] += 1
        return screen(self, *points)

    deform._disk_draws, script._Screen.__call__ = counted_draws, counted_screen
    try:
        yield counts
    finally:
        deform._disk_draws, script._Screen.__call__ = draws, screen


def verify_counts(argv: list[str]) -> tuple[int, int]:
    """The raw stream draws and the screen calls of one in-process
    `geodeform` invocation `argv`, whose output is discarded."""
    with counted_draws_and_screens() as counts, \
            contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    return counts["draws"], counts["screens"]
