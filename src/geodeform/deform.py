"""Randomized deformation of degenerate base configurations.

A family owns a degenerate base point tuple and a builder.  Sampling
perturbs every base point by an independent uniform draw from the disk of
radius epsilon times the base diameter and rebuilds; builder rejections
(non-convex, degenerate, ...) re-draw from the same stream up to a fixed
budget, so a given (epsilon, seed) always yields the same configuration.

Randomness comes from an in-repo SplitMix64 generator rather than the
standard library so that reports are reproducible bit for bit on any
platform and interpreter version.

A sweep draws, builds and judges the samples of one family over its
whole epsilon grid as one batch: every coordinate is a float64 array
with one row per sample, run through the same constructions and
detectors as a single sample, and row k * samples + i is bit for bit the
sample of (epsilon k, seed + i), each row perturbed by its own radius.
Sample i's stream is SplitMix64(seed + i) (Steele, Lea & Flood, OOPSLA
2014), whose k-th output is a function of seed + i and k alone, so a
batch computes all the draws it needs at once.  A family's screen, the
requires that read the deformed base points alone, checks each draw
before it is built, so a batch builds only draws that pass it: usually
every row's first such draw in one builder call.  Rows the builder
rejects come back in rounds, each giving every open row several
successive attempts in one call; a row keeps its first accepted attempt,
as the per-draw loop does.

Inside `sharing()`, which `geodeform verify` opens for one invocation,
each set of streams is drawn once, and each deformation's first
screened round once, for the first batch of each sweep.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from .configurations import Configuration
from .core import GeometryError, Point, _selected, diameter, failures
from .relations import REL_TOL, RelationVerdict, evaluate_relation

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SplitMix64",
    "RejectionBudgetExhausted",
    "DeformationFamily",
    "RelationClaim",
    "VerificationReport",
    "sample",
    "verify",
    "scaling_probe",
    "fit_scaling_exponent",
    "REFUTE_FACTOR",
    "APPROXIMATE_MIN_EXPONENT",
    "BATCH_ROWS",
]

MASK64 = (1 << 64) - 1
# the SplitMix64 state step
GAMMA = 0x9E3779B97F4A7C15

# samples drawn, built and judged at once: a sweep of any size holds at
# most this many rows of each label
BATCH_ROWS = 4096

# a claim is refuted outright when residuals exceed this multiple of the
# pass threshold rel_tol; between the two the verdict is inconclusive
REFUTE_FACTOR = 100.0
# minimum fitted residual-growth exponent for the "approximate" verdict
APPROXIMATE_MIN_EXPONENT = 0.5


class RejectionBudgetExhausted(GeometryError):
    """No valid sample found within the re-draw budget.  From a batch,
    `row` is the grid row of the sample."""

    row: int | None = None


def _mix(z):
    """The SplitMix64 output of state `z`: two xor-shift-multiply rounds
    and a final xor-shift.  The same code runs on a Python int, which
    the mask keeps to 64 bits, and on a uint64 array, whose arithmetic
    wraps as the mask does."""
    wide = type(z) is int
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    if wide:
        z &= MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    if wide:
        z &= MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 pseudo-random generator (public-domain constants).

    The state steps by GAMMA and each output is `_mix` of the new state,
    so the k-th output of a stream at state s is _mix(s + k * GAMMA): the
    generator is counter based, and any of its draws can be computed
    without those before it (Salmon et al., SC 2011).  uniform() maps the
    top 53 bits onto [0, 1).  Chosen for exact portability: the sequence
    depends only on 64-bit integer arithmetic, never on platform libm or
    interpreter version.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return _mix(self._state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def in_unit_disk(self) -> tuple[float, float]:
        """Uniform draw from the closed unit disk by rejection from the
        square (no trig, so the result is platform-independent)."""
        while True:
            x = 2.0 * self.uniform() - 1.0
            y = 2.0 * self.uniform() - 1.0
            if x * x + y * y <= 1.0:
                return x, y


def _disk_draws(states: np.ndarray, need: int,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next `need` results of `in_unit_disk` on each stream of the
    uint64 array `states`, all at once: their x and y as (streams, need)
    arrays, and the number of pairs each stream used up to and including
    each of its results, a (streams, need) array.

    Pair j of a stream at state s is the outputs of s + (2j + 1) * GAMMA
    and s + (2j + 2) * GAMMA, and the stream takes its first `need` pairs
    inside the disk, as `in_unit_disk` called `need` times does.  A pass
    mixes enough pairs for nearly every stream; the few left short start
    over in the next pass, which mixes twice as many.
    """
    import numpy as np

    x, y = np.empty((states.size, need)), np.empty((states.size, need))
    ends = np.empty((states.size, need), np.uint64)
    # a pair lands inside with probability pi / 4, so a stream needs
    # 1.27 * need pairs on average, with a standard deviation of
    # 0.59 * sqrt(need): mix about 1.7 deviations more, which leaves 1-4%
    # of the streams to the second pass
    width = int(1.28 * need + math.sqrt(need)) + 1
    todo = np.arange(states.size)
    while todo.size:
        # outputs 1 .. 2 * width of each stream: the x of pair j is output
        # 2j + 1 and its y output 2j + 2; 2 * uniform() - 1 of an output
        # with top 53 bits k is exactly k * 2^-52 - 1
        counters = np.arange(1, 2 * width + 1, dtype=np.uint64) * np.uint64(
            GAMMA)
        u = (_mix(states[todo, None] + counters) >> 11) * 2.0 ** -52 - 1.0
        px, py = u[:, 0::2], u[:, 1::2]
        inside = px * px + py * py <= 1.0
        # the inside pairs up to each pair
        rank = inside.cumsum(axis=1, dtype=np.int32)
        done = rank[:, -1] >= need
        # the pairs taken, in stream order, as flat indices f = i * width + j
        # of (streams, width): pair f is outputs 2f and 2f + 1 of u
        flat = np.flatnonzero(inside & (rank <= need) & done[:, None])
        outputs, at = u.ravel(), 2 * flat
        rows = todo[done]
        x[rows] = outputs[at].reshape(-1, need)
        y[rows] = outputs[at + 1].reshape(-1, need)
        # the pairs a stream used up to each pair taken
        ends[rows] = (flat % width + 1).reshape(-1, need)
        todo, width = todo[~done], 2 * width
    return x, y, ends


def _frozen(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


class sharing:
    """`with sharing():` lets the sweeps inside share what equal
    deformations compute, for the first batch of each sweep: `draws`, the
    results of `_disk_draws` by stream states, and `rounds`, the first
    screened rounds of `_sample_rows` by the values they depend on, every
    array read-only.  They go when the block ends."""

    def __enter__(self) -> None:
        self.draws: dict[bytes, tuple[np.ndarray, ...]] = {}
        self.rounds: dict[tuple, tuple] = {}
        self._token = _SHARED.set(self)

    def __exit__(self, *exc_info) -> None:
        _SHARED.reset(self._token)

    def disk_draws(self, states: np.ndarray, need: int,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_disk_draws(states, need)`, drawn once per set of streams: a
        stream's first `need` results are the first of any more it gives,
        so a smaller request reads the first columns of a larger draw."""
        key = states.tobytes()
        held = self.draws.get(key)
        if held is None or held[0].shape[1] < need:
            held = self.draws[key] = _disk_draws(states, need)
            _frozen(*held)
        return held[0][:, :need], held[1][:, :need], held[2][:, :need]


_SHARED: ContextVar[sharing | None] = ContextVar("geodeform_shared",
                                                 default=None)


@dataclass(frozen=True)
class DeformationFamily:
    """A degenerate base configuration plus the builder that decorates it.

    `screen`, when there is one, checks the deformed base points alone: it
    takes the same arguments as the builder and raises, or on rows marks
    in the enclosing `failures()` block, where they fail the conditions
    that it checks.  A builder on rows may leave those conditions to it,
    so a batch screens each draw before building it; on floats the
    builder checks them itself.
    """

    name: str
    base_points: tuple[Point, ...]
    builder: Callable[..., Configuration]
    epsilon_floor: float = 0.0
    screen: Callable[..., None] | None = None

    def base_diameter(self) -> float:
        return diameter(self.base_points)

    def radius(self, epsilon: float) -> float:
        """The perturbation radius at `epsilon`, epsilon times the base
        diameter: 0.0 at epsilon 0, the base figure.  ValueError where
        there is none: epsilon not finite, negative or below the floor,
        base points that span no length, or the radius not finite."""
        if epsilon < 0.0 or not math.isfinite(epsilon):
            raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
        if epsilon < self.epsilon_floor:
            raise ValueError(
                f"family {self.name!r} requires epsilon >= "
                f"{self.epsilon_floor} (got {epsilon})")
        span = self.base_diameter()
        if span == 0.0:
            # no radius, and no scale to judge a claim against either
            raise ValueError(f"family {self.name!r}: the base points span "
                             "no length, so the figure cannot be deformed")
        radius = epsilon * span if epsilon > 0.0 else 0.0
        if not math.isfinite(radius):
            raise ValueError(
                f"family {self.name!r}: the figure is too large to deform: "
                f"epsilon={epsilon} times its diameter is not finite")
        return radius


@dataclass(frozen=True)
class RelationClaim:
    """A relation kind applied to labeled points of a configuration."""

    kind: str
    labels: tuple[str, ...]
    description: str = ""

    def evaluate(self, config: Configuration,
                 scale: float) -> RelationVerdict:
        # Judge the defect against the whole figure, not just the claimed
        # labels: near a degenerate base the claimed points may cluster,
        # and a residual over their own diameter would hide growth.
        points = [config.point(label) for label in self.labels]
        return evaluate_relation(self.kind, points, scale=scale)


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate result of running a claim over sampled deformations."""

    kind: str
    family: str
    samples: int
    seed: int
    epsilons: tuple[float, ...]
    max_residual: float
    mean_residual: float
    verdict: str
    scaling_exponent: float | None = None
    exponent_note: str = ""
    median_residuals: tuple[float, ...] = ()
    rel_tol: float = REL_TOL
    refute_tol: float = REFUTE_FACTOR * REL_TOL
    flags: tuple[str, ...] = ()


def sample(family: DeformationFamily, epsilon: float | Sequence[float],
           seed: int, count: int | None = None, max_rejections: int = 1000,
           rows: range | None = None) -> Configuration:
    """One deformed configuration for (epsilon, seed), deterministic.

    With `count`, the samples of seeds seed .. seed + count - 1 as one
    configuration of float64 arrays: the points the builder builds on
    rows (for a family program, those its claims and requires read),
    whose row i is bit for bit `sample(family, epsilon, seed + i)`.
    `epsilon` may then be a grid of epsilons, one block of `count` rows
    each: row k * count + i is `sample(family, epsilon[k], seed + i)`.
    `rows`, a range of the grid's rows, builds those alone.  Where a row
    finds no valid draw within the budget, the single sample of its
    (epsilon, seed) raises the error.  A batch only draws: a grid that
    holds epsilon 0, the base figure, raises ValueError before any draw.
    """
    if count is not None:
        grid = ((epsilon,) if isinstance(epsilon, (int, float))
                else tuple(epsilon))
        if rows is None:
            rows = range(len(grid) * count)
        return _sample_rows(family, grid, seed, count, rows, max_rejections)
    radius = family.radius(epsilon)
    if epsilon == 0.0:
        return family.builder(*family.base_points)
    return _first_built(family, _draws(family.base_points, radius,
                                       SplitMix64(seed), max_rejections),
                        epsilon, seed, max_rejections)


def _draws(base: Sequence[Point], radius: float, rng: SplitMix64,
           attempts: int):
    """The next `attempts` perturbations of `base` that `rng` draws."""
    for _ in range(attempts):
        pts = []
        for p in base:
            dx, dy = rng.in_unit_disk()
            pts.append(Point(p.x + radius * dx, p.y + radius * dy))
        yield pts


def _first_built(family: DeformationFamily, attempts, epsilon: float,
                 seed: int, max_rejections: int) -> Configuration:
    """The first of `attempts`, the point tuples of sample (epsilon,
    seed), that the builder accepts: the per-draw loop."""
    last_error: GeometryError | None = None
    for pts in attempts:
        try:
            return family.builder(*pts)
        except GeometryError as exc:
            last_error = exc
    raise RejectionBudgetExhausted(
        f"family {family.name!r}: no valid sample within {max_rejections} "
        f"draws at epsilon={epsilon}, seed={seed} (last: {last_error})")


def _sample_rows(family: DeformationFamily, grid: tuple[float, ...],
                 seed: int, count: int, rows: range,
                 max_rejections: int) -> Configuration:
    """`sample` of rows `rows` of the grid.

    A row keeps its first attempt that passes the family's screen and
    then its builder, as the per-draw loop does, and an attempt that fails
    the screen is never built.  Each round builds, in one builder call,
    the next `tries` attempts of every row still without a sample that
    pass the screen: one in the first round, then twice as many each
    round, at most BATCH_ROWS attempts in all, the rows a sweep's batch may
    hold.  Screen-only sub-rounds find them: each draws the next attempts
    of the rows still short of them from the rows' streams at once and
    screens them in one call, twice as many per row as the sub-round
    before, at most BATCH_ROWS attempts in all and none past a row's
    budget.  A row the build rejects goes on from its stream's state
    after its last attempt.  A screen or build call that raises rejects
    every attempt it holds.  When a build holds one attempt of every row
    and accepts each, it is the batch.  Where a row finds no valid draw
    within the budget, the batch raises the error of the first such row's
    single sample, whose last attempt is built again on floats for its
    text.  An epsilon of the grid without a radius raises its ValueError
    before any draw, and so does epsilon 0.
    Inside `sharing()`, the first batch of a sweep (rows from 0) draws
    through the shared draws and reads its first round, every row's first
    screened attempt, from an equal deformation that screened it before.
    """
    import numpy as np

    shared = _SHARED.get() if rows.start == 0 else None
    draw = _disk_draws if shared is None else shared.disk_draws
    base = family.base_points
    step = len(base)
    size = len(rows)
    radii = [family.radius(e) for e in grid]
    if 0.0 in grid:
        raise ValueError(f"family {family.name!r}: a batch draws at epsilon "
                         f"> 0 only; epsilon 0 is the base figure")
    block, offset = np.divmod(np.arange(rows.start, rows.stop), count)
    radius = np.array(radii)[block]
    start = np.uint64(seed & MASK64) + offset.astype(np.uint64)
    # the pairs each row's stream has used, and the attempts it has made
    used = np.zeros(size, np.uint64)
    made = np.zeros(size, np.int64)
    config = None  # the batch: the first build's, with its rows in columns
    # the x and y of each label of the batch, row by row as it is kept
    columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def attempts(live: np.ndarray, tries: int
                 ) -> tuple[list[Point], np.ndarray]:
        """The next `tries` attempts of each row of `live`, attempt j of
        live[k] at row k * tries + j, and the pairs each row's stream took
        for them up to and including each, a (rows, tries) array."""
        dx, dy, ends = draw(
            start[live] + used[live] * np.uint64(2 * GAMMA & MASK64),
            tries * step)
        # attempt j of a row is its pairs j * P .. j * P + P - 1
        r = radius[live, None]
        return [Point((p.x + r * dx[:, i::step]).ravel(),
                      (p.y + r * dy[:, i::step]).ravel())
                for i, p in enumerate(base)], ends[:, step - 1::step]

    def screened(live: np.ndarray, tries: int
                 ) -> list[tuple[np.ndarray, list[Point]]]:
        """The next `tries` attempts of each row of `live` that pass the
        screen, fewer where its budget ends first, found sub-round by
        sub-round: each sub-round's rows they belong to, attempt after
        attempt, and their points."""
        found = []
        live = live[made[live] < max_rejections]
        need = np.full(live.size, tries)  # the passing attempts still due
        t = tries
        while live.size:
            n = live.size
            pts, ends = attempts(live, t)
            left = max_rejections - made[live]
            passed = True if family.screen is None else ~np.broadcast_to(
                _rejected(family.screen, pts)[1], (n * t,))
            if (t == tries and not found and t <= left.min()
                    and (passed is True or passed.all())):
                # every row takes all of its attempts: no gathers
                made[live] += t
                used[live] += ends[:, -1]
                found.append((live.repeat(t), pts))
                break
            ok = np.broadcast_to(passed, (n * t,)).reshape(n, t)
            if t > left.min():
                ok = ok & (np.arange(t) < left[:, None])
            rank = ok.cumsum(axis=1)  # the passing attempts up to each
            done = rank[:, -1] >= need
            # a row makes its attempts up to its last passing one due, or
            # all those it has
            spent = np.where(done, (rank < need[:, None]).sum(axis=1) + 1,
                             np.minimum(t, left))
            made[live] += spent
            used[live] += ends[np.arange(n), spent - 1]
            hits = (ok & (rank <= need[:, None])).ravel().nonzero()[0]
            if hits.size:
                found.append((live[hits // t],
                              [_selected(p.x[hits], p.y[hits]) for p in pts]))
            more = ~done & (spent < left)
            live, need = live[more], (need - rank[:, -1])[more]
            t = max(1, min(2 * t, BATCH_ROWS // max(live.size, 1)))
        return found

    def first_round(live: np.ndarray, tries: int
                    ) -> list[tuple[np.ndarray, list[Point]]]:
        """`screened(live, tries)` of the first round; inside `sharing()`,
        read from an equal deformation's first round where there is one,
        with the attempts and pairs each row made for it."""
        if shared is None:
            return screened(live, tries)
        key = (np.array([(p.x, p.y) for p in base], float).tobytes(),
               family.screen, radius.tobytes(), seed, count, rows,
               max_rejections)
        held = shared.rounds.get(key)
        if held is None:
            found = screened(live, tries)
            held = shared.rounds[key] = (found, made.copy(), used.copy())
            _frozen(held[1], held[2])
            for owner, pts in found:
                _frozen(owner, *(c for p in pts for c in (p.x, p.y)))
        made[:], used[:] = held[1], held[2]
        return held[0]

    todo = np.arange(size)  # the rows without a sample, in order
    tries = 1
    out = size  # the first row out of attempts, if any
    find = first_round  # the one round a family may share
    while todo.size:
        found, find = find(todo, tries), screened
        if found:
            owner, pts = found[0]
            if len(found) > 1:  # the attempts row by row, each row's in turn
                owner = np.concatenate([o for o, _ in found])
                order = owner.argsort(kind="stable")
                owner = owner[order]
                pts = [_selected(
                    np.concatenate([p[i].x for _, p in found])[order],
                    np.concatenate([p[i].y for _, p in found])[order])
                    for i in range(step)]
            built, rejected = _rejected(family.builder, pts)
            hits = np.flatnonzero(~np.broadcast_to(rejected, (owner.size,)))
            if tries == 1 and owner.size == hits.size == size:
                # a build that holds one attempt of every row and accepts
                # each is the batch
                return built
            if hits.size:
                if config is None:
                    columns = {label: (np.zeros(size), np.zeros(size))
                               for label in built.objects}
                    config = replace(built, objects={
                        label: Point(*cols) for label, cols in columns.items()})
                picked_rows, at = np.unique(owner[hits], return_index=True)
                picked = hits[at]  # rows picked_rows of the batch, in built
                for label, cols in columns.items():
                    p = built.point(label)
                    for col, part in zip(cols, (p.x, p.y)):
                        col[picked_rows] = (part[picked] if isinstance(
                            part, np.ndarray) else part)
                waiting = np.ones(size, bool)
                waiting[picked_rows] = False
                todo = todo[waiting[todo]]
            built = None  # free this round's rows before the next
        spent = made[todo] >= max_rejections
        if spent.any():
            out = min(out, int(todo[spent][0]))
            todo = todo[~spent & (todo < out)]
        tries = max(1, min(2 * tries, BATCH_ROWS // max(todo.size, 1)))
    if out < size:
        r = out
        epsilon, s = grid[block[r]], seed + int(offset[r])
        last = []  # its last attempt, if any: the single sample names it
        if max_rejections > 0:
            dx, dy, _ = _disk_draws(start[r:r + 1], max_rejections * step)
            rad = float(radius[r])
            last.append([Point(p.x + rad * float(dx[0, i - step]),
                               p.y + rad * float(dy[0, i - step]))
                         for i, p in enumerate(base)])
        try:
            _first_built(family, last, epsilon, s, max_rejections)
        except RejectionBudgetExhausted as exc:
            exc.row = rows.start + r
            raise
        raise RuntimeError(f"family {family.name!r}: the batch rejects on "
                           f"rows a draw that a single sample builds")
    return config


def _rejected(call: Callable, points: list[Point],
              ) -> tuple[Configuration | None, bool | np.ndarray]:
    """`call(*points)` on rows and the rows it rejects: all where it raises."""
    try:
        with failures() as failed:
            return call(*points), failed.rows
    except GeometryError:
        return None, True


def _verdict_for(max_residual: float, rel_tol: float) -> str:
    if max_residual <= rel_tol:
        return "theorem"
    if max_residual > REFUTE_FACTOR * rel_tol:
        return "refuted"
    return "inconclusive"


def _sweep(family: DeformationFamily, claims: Sequence[RelationClaim],
           epsilons: Sequence[float], samples: int, seed: int,
           rel_tol: float) -> tuple[VerificationReport, ...]:
    """Run the claims over `samples` deformations at each epsilon.

    Sample i of every epsilon block uses seed + i, so any subset of
    samples can be reproduced independently of evaluation order.  The
    blocks run as one grid of rows, block after block, drawn, built and
    judged in batches of at most BATCH_ROWS rows that may span blocks;
    each claim's residuals are split back into blocks for the medians.
    Each deformation is drawn and built once and every claim is judged on
    it, so the claims of one family see the same figures.  A verdict
    compares the claim's largest residual with `rel_tol` alone.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(epsilons) * samples >= 2**63:  # the grid's rows index as int64
        raise ValueError("samples times epsilons must be < 2^63")
    # Normalizing every sample by the same base diameter keeps the residual
    # a pure function of the deformation: defects shrink with epsilon
    # instead of being re-measured against an epsilon-dependent yardstick.
    base_scale = family.base_diameter()
    total = len(epsilons) * samples
    # per claim: its residuals over the grid, row by row, and the flags
    # they raised
    grids: list[list[float]] = [[] for _ in claims]
    flags: list[set[str]] = [set() for _ in claims]
    for start in range(0, total, BATCH_ROWS):
        judged = _judge_rows(family, claims, epsilons, samples, seed,
                             range(start, min(start + BATCH_ROWS, total)),
                             base_scale)
        for (residuals, raised), grid, seen in zip(judged, grids, flags):
            grid.extend(residuals)
            seen.update(raised)
    reports = []
    for claim, residuals, seen in zip(claims, grids, flags):
        max_res = max(residuals)
        reports.append(VerificationReport(
            kind=claim.kind,
            family=family.name,
            samples=total,
            seed=seed,
            epsilons=tuple(epsilons),
            max_residual=max_res,
            mean_residual=math.fsum(residuals) / len(residuals),
            verdict=_verdict_for(max_res, rel_tol),
            median_residuals=tuple(
                _median(residuals[start:start + samples])
                for start in range(0, total, samples)),
            rel_tol=rel_tol,
            refute_tol=REFUTE_FACTOR * rel_tol,
            flags=tuple(sorted(seen)),
        ))
    return tuple(reports)


def _judge_rows(family: DeformationFamily, claims: Sequence[RelationClaim],
                epsilons: Sequence[float], samples: int, seed: int,
                rows: range, scale: float,
                ) -> list[tuple[list[float], tuple[str, ...]]]:
    """Each claim's residuals on rows `rows` of the grid, row k * samples
    + i the sample of (epsilons[k], seed + i), drawn, built and judged as
    one batch, with the flags they raised.  At epsilon 0 every row is the
    base figure, whose single sample is judged once for them all.

    The error raised is the one the per-draw loop meets first: where the
    batch names the row of a sample without a valid draw, the rows before
    it run again as a batch; a row that the batch marks failed, or whose
    residual is NaN, runs again alone on floats, where a claim that
    raises names itself, the epsilon and the seed.  Any other error of
    the batch is raised as it comes.
    """
    import numpy as np

    if tuple(epsilons) == (0.0,):
        config = sample(family, 0.0, seed)
        return [([float(v.residual)] * len(rows), v.flags) for v in (
            _judged(claim, config, scale, 0.0, seed) for claim in claims)]
    with np.errstate(all="ignore"):
        try:
            config = sample(family, epsilons, seed, samples, rows=rows)
        except RejectionBudgetExhausted as exc:
            if exc.row is not None and exc.row > rows.start:
                # their error, if any, comes first
                _judge_rows(family, claims, epsilons, samples, seed,
                            range(rows.start, exc.row), scale)
            raise
        judged = []
        suspect = np.zeros(len(rows), bool)
        for claim in claims:
            with failures() as failed:
                verdict = claim.evaluate(config, scale=scale)
            residual = np.broadcast_to(verdict.residual, (len(rows),))
            # an infinite residual is a verdict (lines that never meet),
            # not an error: only NaN is
            suspect |= failed.rows | np.isnan(residual)
            judged.append((residual.tolist(), verdict.flags))
    # a row that failed, or whose residual is NaN, raises here if the
    # per-draw loop raises on it
    for g in (rows.start + np.flatnonzero(suspect)).tolist():
        epsilon, s = epsilons[g // samples], seed + g % samples
        config = sample(family, epsilon, s)
        for claim in claims:
            _judged(claim, config, scale, epsilon, s)
    return judged


def _judged(claim: RelationClaim, config: Configuration, scale: float,
            epsilon: float, seed: int) -> RelationVerdict:
    """`claim.evaluate` of the single sample of (epsilon, seed): an error
    it raises names the claim, the epsilon and the seed."""
    try:
        return claim.evaluate(config, scale=scale)
    except GeometryError as exc:
        raise type(exc)(f"{claim.kind}({', '.join(claim.labels)}) at "
                        f"epsilon={epsilon}, seed={seed}: {exc}") from exc


def verify(family: DeformationFamily, claims: Sequence[RelationClaim],
           samples: int, epsilon: float, seed: int,
           rel_tol: float = REL_TOL) -> tuple[VerificationReport, ...]:
    """Run the claims of one family over `samples` deformations at one
    epsilon, sample i from seed + i; one report per claim, in order."""
    return _sweep(family, claims, (epsilon,), samples, seed, rel_tol)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def fit_scaling_exponent(epsilons: Sequence[float],
                         residuals: Sequence[float]) -> float:
    """Least-squares slope of log residual against log epsilon."""
    if len(epsilons) != len(residuals) or len(epsilons) < 2:
        raise ValueError("need matching epsilon/residual sequences of length >= 2")
    xs = [math.log(e) for e in epsilons]
    ys = [math.log(max(r, 1e-300)) for r in residuals]
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def _holds_at_zero(family: DeformationFamily, claims: Sequence[RelationClaim],
                   rel_tol: float) -> tuple[bool, ...]:
    """Whether each claim holds on the undeformed base figure, built once."""
    try:
        config = sample(family, 0.0, 0)
    except (ValueError, GeometryError):  # no base figure, or none built
        return (False,) * len(claims)
    scale = family.base_diameter()
    held = []
    for claim in claims:
        try:
            verdict = claim.evaluate(config, scale=scale)
            held.append(verdict.residual <= rel_tol)
        except GeometryError:
            held.append(False)
    return tuple(held)


def scaling_probe(family: DeformationFamily, claims: Sequence[RelationClaim],
                  epsilons: Sequence[float], samples: int, seed: int,
                  rel_tol: float = REL_TOL) -> tuple[VerificationReport, ...]:
    """Residual growth against epsilon, to separate exact relations from
    approximate coincidences; one report per claim of the family, in order.

    Requires at least three distinct epsilons spanning two decades.  Exact
    relations stay at the noise floor for every epsilon; a coincidence that
    only holds in the degenerate limit grows with a positive power of
    epsilon and is classified `approximate` (it held at epsilon = 0) or
    `refuted`.
    """
    eps = sorted(set(float(e) for e in epsilons))
    if len(eps) < 3:
        raise ValueError("scaling probe needs >= 3 distinct epsilon values")
    if eps[0] <= 0.0 or eps[-1] / eps[0] < 100.0:
        raise ValueError("epsilon values must be positive and span >= 2 decades")
    # Every block reuses seeds seed..seed+samples-1, so sample i sees the
    # same perturbation direction at every epsilon.  Pairing the blocks
    # this way removes the block-to-block sampling noise that would
    # otherwise dominate the fitted slope.
    reports = _sweep(family, claims, eps, samples, seed, rel_tol)
    held: tuple[bool, ...] | None = None
    probed = []
    for i, report in enumerate(reports):
        if report.verdict == "theorem":
            probed.append(replace(report, scaling_exponent=0.0, exponent_note=(
                "residuals at noise floor for every epsilon")))
            continue
        # The slope estimate carries sampling scatter orders of magnitude
        # above 1e-6, so rounding only scrubs float noise from the fit.
        exponent = round(fit_scaling_exponent(eps, report.median_residuals), 6)
        if exponent >= APPROXIMATE_MIN_EXPONENT:
            if held is None:
                held = _holds_at_zero(family, claims, rel_tol)
            if held[i]:
                probed.append(replace(
                    report, verdict="approximate", scaling_exponent=exponent,
                    exponent_note=(
                        f"residuals grow like epsilon^{exponent:.2f}; "
                        "relation holds only in the degenerate limit")))
                continue
        probed.append(replace(
            report, verdict="refuted", scaling_exponent=exponent,
            exponent_note=f"residuals grow like epsilon^{exponent:.2f}"))
    return tuple(probed)
