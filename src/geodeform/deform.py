"""Randomized deformation of degenerate base configurations.

A family owns a degenerate base point tuple and a builder.  Sampling
perturbs every base point by an independent uniform draw from the disk of
radius epsilon times the base diameter and rebuilds; builder rejections
(non-convex, degenerate, ...) re-draw from the same stream up to a fixed
budget, so a given (epsilon, seed) always yields the same configuration.

Randomness comes from an in-repo SplitMix64 generator rather than the
standard library so that reports are reproducible bit for bit on any
platform and interpreter version.

A sweep draws, builds and judges the samples of one family and epsilon
as one batch: every coordinate is a float64 array with one row per
sample, run through the same constructions and detectors as a single
sample, and row i is bit for bit the sample of seed + i.  Sample i's
stream is SplitMix64(seed + i) (Steele, Lea & Flood, OOPSLA 2014), whose
k-th output is a function of seed + i and k alone, so a batch computes
all the draws it needs at once.  Rows the builder rejects come back in
rounds, each giving every open row several successive attempts in one
builder call; a row keeps its first accepted attempt, as the per-draw
loop does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from .configurations import Configuration
from .core import GeometryError, Point, diameter, failures
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
    """No valid sample found within the re-draw budget."""


def _mix(z):
    """The SplitMix64 output of state `z`: two xor-shift-multiply rounds
    and a final xor-shift.  The same code runs on a Python int and on a
    uint64 array, whose arithmetic wraps as the mask does."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
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
    arrays, and the state of each stream just after its last pair taken.

    Pair j of a stream at state s is the outputs of s + (2j + 1) * GAMMA
    and s + (2j + 2) * GAMMA, and the stream takes its first `need` pairs
    inside the disk, as `in_unit_disk` called `need` times does.  A pass
    mixes enough pairs for nearly every stream; the few left short start
    over in the next pass, which mixes twice as many.
    """
    import numpy as np

    x, y = np.empty((states.size, need)), np.empty((states.size, need))
    after = np.empty_like(states)
    # a pair lands inside with probability pi / 4: mix the pairs a stream
    # needs on average, and two standard deviations more
    width = int(1.28 * need + 2.0 * math.sqrt(need)) + 1
    todo = np.arange(states.size)

    def coordinate(first: int) -> np.ndarray:
        """2 * uniform() - 1 of outputs first, first + 2, ... of the
        streams of todo, `width` of each: the x (first = 1) or the y
        (first = 2) of their next pairs."""
        counters = np.arange(first, 2 * width + 1, 2, dtype=np.uint64)
        bits = _mix(states[todo, None] + counters * np.uint64(GAMMA))
        return 2.0 * ((bits >> 11) * 2.0 ** -53) - 1.0

    while todo.size:
        px, py = coordinate(1), coordinate(2)
        inside = px * px + py * py <= 1.0
        rank = inside.cumsum(axis=1)  # the inside pairs up to each pair
        done = rank[:, -1] >= need
        taken = inside & (rank <= need) & done[:, None]
        rows = todo[done]
        x[rows] = px[taken].reshape(-1, need)
        y[rows] = py[taken].reshape(-1, need)
        # the pairs a stream used: those up to its last one taken
        used = (rank[done] < need).sum(axis=1) + 1
        after[rows] = states[rows] + used.astype(np.uint64) * np.uint64(
            2 * GAMMA & MASK64)
        todo, width = todo[~done], 2 * width
    return x, y, after


@dataclass(frozen=True)
class DeformationFamily:
    """A degenerate base configuration plus the builder that decorates it."""

    name: str
    base_points: tuple[Point, ...]
    builder: Callable[..., Configuration]
    epsilon_floor: float = 0.0

    def base_diameter(self) -> float:
        return diameter(self.base_points)

    def admits(self, epsilon: float) -> bool:
        if epsilon == 0.0:
            return self.epsilon_floor == 0.0
        return epsilon >= self.epsilon_floor


@dataclass(frozen=True)
class RelationClaim:
    """A relation kind applied to labeled points of a configuration."""

    kind: str
    labels: tuple[str, ...]
    description: str = ""

    def evaluate(self, config: Configuration,
                 scale: float | None = None) -> RelationVerdict:
        # Judge the defect against the whole figure, not just the claimed
        # labels: near a degenerate base the claimed points may cluster,
        # and a residual over their own diameter would hide growth.
        points = [config.point(label) for label in self.labels]
        if scale is None:
            scale = config.diameter()
        return evaluate_relation(self.kind, points, scale=scale)


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate result of running a claim over sampled deformations."""

    claim: str
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


def sample(family: DeformationFamily, epsilon: float, seed: int,
           count: int | None = None,
           max_rejections: int = 1000) -> Configuration:
    """One deformed configuration for (epsilon, seed), deterministic.

    With `count`, the samples of seeds seed .. seed + count - 1 as one
    configuration of float64 arrays: the points the builder builds on
    rows (for a family program, those its claims and requires read),
    whose row i is bit for bit `sample(family, epsilon, seed + i)`.  Where
    a row finds no valid draw within the budget, the single sample of its
    seed raises the error.
    """
    if epsilon < 0.0 or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if not family.admits(epsilon):
        raise ValueError(
            f"family {family.name!r} requires epsilon >= {family.epsilon_floor} "
            f"(got {epsilon})")
    radius = epsilon * family.base_diameter() if epsilon > 0.0 else 0.0
    if not math.isfinite(radius):
        raise ValueError(
            f"family {family.name!r}: the figure is too large to deform: "
            f"epsilon={epsilon} times its diameter is not finite")
    if count is not None:
        return _sample_rows(family, epsilon, radius, seed, count,
                            max_rejections)
    if epsilon == 0.0:
        return family.builder(*family.base_points)
    rng = SplitMix64(seed)
    last_error: GeometryError | None = None
    for _ in range(max_rejections):
        pts = []
        for p in family.base_points:
            dx, dy = rng.in_unit_disk()
            pts.append(Point(p.x + radius * dx, p.y + radius * dy))
        try:
            return family.builder(*pts)
        except GeometryError as exc:
            last_error = exc
            continue
    raise RejectionBudgetExhausted(
        f"family {family.name!r}: no valid sample within {max_rejections} "
        f"draws at epsilon={epsilon}, seed={seed} (last: {last_error})")


def _sample_rows(family: DeformationFamily, epsilon: float, radius: float,
                 seed: int, count: int, max_rejections: int) -> Configuration:
    """`sample` of `count` rows.

    The first round makes one attempt per row and builds them at once, so
    a batch the builder accepts whole is that one build.  Each later round
    gives every row still without a valid sample its next `tries`
    attempts, twice as many as the round before, as long as one build
    holds no more than the first round's `count` rows and no row goes
    over the budget.  It draws them from the rows' streams at once and
    builds them in one call; a row keeps its first accepted attempt, and a
    row with none goes on from where its stream stands.  After a round
    that accepts no row, the first row left runs as a single sample, which
    finds that row's sample or raises its error: a family whose every draw
    fails ends as soon as the per-draw loop does.
    """
    import numpy as np

    base = family.base_points
    if epsilon > 0.0:
        states = np.uint64(seed & MASK64) + np.arange(count, dtype=np.uint64)
    todo = np.arange(count)  # the rows without a sample, in order
    made = tries = 0  # the attempts each row of todo has made, and last made
    budget = max_rejections if epsilon > 0.0 else 1
    config = None  # the batch: the first round's, with its rows in columns
    # the x and y of each label of the batch, row by row as it is kept
    columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def keep(built: Configuration, size: int, rows, picked) -> None:
        """Rows `rows` of the batch are rows `picked` of `built`, a
        configuration of `size` rows."""
        for label, cols in columns.items():
            p = built.point(label)
            for col, part in zip(cols, (p.x, p.y)):
                col[rows] = np.broadcast_to(part, (size,))[picked]

    while todo.size:
        hit = None
        if made < budget:
            # one attempt per row, then twice as many each round, as fit
            # in the first round's rows and in the budget
            tries = (min(2 * tries, count // todo.size, budget - made)
                     if made else 1)
            made += tries
            size = todo.size * tries
            if epsilon > 0.0:
                # attempt j of a row is its pairs j * P .. j * P + P - 1;
                # row r's attempt j is row r * tries + j of the build
                step = len(base)
                dx, dy, states[todo] = _disk_draws(states[todo], tries * step)
                pts = [Point(p.x + radius * dx[:, i::step].ravel(),
                             p.y + radius * dy[:, i::step].ravel())
                       for i, p in enumerate(base)]
            else:
                pts = [Point(np.full(count, p.x), np.full(count, p.y))
                       for p in base]
            try:
                with failures() as rejected:
                    built = family.builder(*pts)
            except GeometryError:
                pass  # a failure of every row, whatever its draw
            else:
                ok = ~np.broadcast_to(rejected.rows, (size,)).reshape(
                    todo.size, tries)
                if config is None:
                    # the first round: after one that raises, the single
                    # sample below raises or the RuntimeError does
                    if ok.all():
                        return built
                    columns = {label: (np.zeros(count), np.zeros(count))
                               for label in built.objects}
                    config = replace(built, objects={
                        label: Point(*cols) for label, cols in columns.items()})
                hit = ok.any(axis=1)
                rows = hit.nonzero()[0]
                keep(built, size, todo[rows],
                     rows * tries + ok[rows].argmax(axis=1))
                built = None  # free this round's rows before the next
        if hit is not None and hit.any():
            todo = todo[~hit]
            continue
        single = sample(family, epsilon, seed + int(todo[0]),
                        max_rejections=max_rejections)
        if config is None:
            raise RuntimeError(f"family {family.name!r}: the builder fails "
                               f"on every row that a single sample builds")
        keep(single, 1, todo[:1], 0)
        todo = todo[1:]
    return config


def _verdict_for(max_residual: float, rel_tol: float) -> str:
    if max_residual <= rel_tol:
        return "theorem"
    if max_residual > REFUTE_FACTOR * rel_tol:
        return "refuted"
    return "inconclusive"


def _sweep(family: DeformationFamily, claims: Sequence[RelationClaim],
           epsilons: Sequence[float], samples: int, seed: int,
           rel_tol: float) -> tuple[VerificationReport, ...]:
    """Run the claims over `samples` deformations at each epsilon in turn.

    Sample i of every block uses seed + i, so any subset of samples can be
    reproduced independently of evaluation order.  Each deformation is
    drawn and built once and every claim is judged on it, so the claims of
    one family see the same figures.  A verdict compares the claim's
    largest residual with `rel_tol` alone.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    # Normalizing every sample by the same base diameter keeps the residual
    # a pure function of the deformation: defects shrink with epsilon
    # instead of being re-measured against an epsilon-dependent yardstick.
    base_scale = family.base_diameter()
    # per claim: the residuals of each epsilon block, and the flags raised
    blocks: list[list[list[float]]] = [[] for _ in claims]
    flags: list[set[str]] = [set() for _ in claims]
    for epsilon in epsilons:
        for per_claim in blocks:
            per_claim.append([])
        for start in range(0, samples, BATCH_ROWS):
            judged = _judge_rows(family, claims, epsilon, seed + start,
                                 min(BATCH_ROWS, samples - start), base_scale)
            for (residuals, raised), per_claim, seen in zip(judged, blocks,
                                                            flags):
                per_claim[-1].extend(residuals)
                seen.update(raised)
    reports = []
    for claim, per_claim, seen in zip(claims, blocks, flags):
        residuals = [r for block in per_claim for r in block]
        max_res = max(residuals)
        reports.append(VerificationReport(
            claim=claim.description or claim.kind,
            kind=claim.kind,
            family=family.name,
            samples=samples * len(epsilons),
            seed=seed,
            epsilons=tuple(epsilons),
            max_residual=max_res,
            mean_residual=math.fsum(residuals) / len(residuals),
            verdict=_verdict_for(max_res, rel_tol),
            median_residuals=tuple(_median(block) for block in per_claim),
            rel_tol=rel_tol,
            refute_tol=REFUTE_FACTOR * rel_tol,
            flags=tuple(sorted(seen)),
        ))
    return tuple(reports)


def _judge_rows(family: DeformationFamily, claims: Sequence[RelationClaim],
                epsilon: float, seed: int, count: int, scale: float,
                ) -> list[tuple[list[float], tuple[str, ...]]]:
    """Each claim's residuals on the samples of seeds seed .. seed +
    count - 1, drawn, built and judged as one batch, with the flags they
    raised.

    Where a sample finds no valid draw, or a claim cannot be judged on it,
    the samples run one at a time as the per-draw loop does, so the error
    raised is the one that loop meets first.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        try:
            config = sample(family, epsilon, seed, count)
        except RejectionBudgetExhausted:
            _one_at_a_time(family, claims, epsilon, range(seed, seed + count),
                           scale)
            raise
        judged = []
        suspect = np.zeros(count, bool)
        for claim in claims:
            try:
                with failures() as failed:
                    verdict = claim.evaluate(config, scale=scale)
            except (GeometryError, ArithmeticError):
                _one_at_a_time(family, claims, epsilon,
                               range(seed, seed + count), scale)
                raise
            residual = np.broadcast_to(verdict.residual, (count,))
            suspect |= failed.rows | ~np.isfinite(residual)
            judged.append((residual.tolist(), verdict.flags))
    # a row that failed, or whose residual is not finite, raises here if
    # the per-draw loop raises on it
    _one_at_a_time(family, claims, epsilon,
                   (seed + r for r in np.flatnonzero(suspect).tolist()), scale)
    return judged


def _one_at_a_time(family: DeformationFamily,
                   claims: Sequence[RelationClaim], epsilon: float,
                   seeds, scale: float) -> None:
    """The per-draw loop over `seeds`, for the error it raises first."""
    for s in seeds:
        config = sample(family, epsilon, s)
        for claim in claims:
            claim.evaluate(config, scale=scale)


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
    if not family.admits(0.0):
        return (False,) * len(claims)
    try:
        config = family.builder(*family.base_points)
    except GeometryError:
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
    for e in epsilons:
        if not math.isfinite(e):
            raise ValueError(f"epsilon {e} is not a finite number")
    eps = sorted(set(float(e) for e in epsilons))
    if len(eps) < 3:
        raise ValueError("scaling probe needs >= 3 distinct epsilon values")
    if eps[0] <= 0.0 or eps[-1] / eps[0] < 100.0:
        raise ValueError("epsilon values must be positive and span >= 2 decades")
    for e in eps:
        if not family.admits(e):
            raise ValueError(f"epsilon {e} below family floor {family.epsilon_floor}")
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
