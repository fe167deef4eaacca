"""Deformation sampling, verification verdicts, and the scaling probe."""

import math

import numpy as np
import pytest

from geodeform import deform
from geodeform.catalog import CLAIMS, FAMILIES
from geodeform.core import Point, signed_area
from geodeform.deform import (
    APPROXIMATE_MIN_EXPONENT,
    GAMMA,
    MASK64,
    REFUTE_FACTOR,
    DeformationFamily,
    RejectionBudgetExhausted,
    RelationClaim,
    SplitMix64,
    fit_scaling_exponent,
    sample,
    scaling_probe,
    verify,
)
from geodeform.deform import _disk_draws, _mix


def test_splitmix64_reference_sequence():
    """First outputs for seed 0, from the published reference constants."""
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_splitmix64_uniform_range_and_determinism():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    for _ in range(1000):
        u, v = a.uniform(), b.uniform()
        assert u == v
        assert 0.0 <= u < 1.0


def test_splitmix64_disk_draws_inside():
    gen = SplitMix64(42)
    for _ in range(500):
        x, y = gen.in_unit_disk()
        assert x * x + y * y <= 1.0


# seeds whose streams wrap past 2^64 at once, next to plain ones
SEEDS_NEAR_WRAP = [0, 987654321, 2**64 - 1, 2**64 - 2, 2**64 - GAMMA, -1]


@pytest.mark.parametrize("seed", SEEDS_NEAR_WRAP)
def test_splitmix64_counter_form_is_the_stepped_stream(seed):
    """Output k of the stream of `seed` is _mix(seed + k * GAMMA), on a
    Python int and on a uint64 array alike."""
    gen = SplitMix64(seed)
    stepped = [gen.next_u64() for _ in range(64)]
    assert [_mix((seed + k * GAMMA) & MASK64) for k in range(1, 65)] \
        == stepped
    states = np.full(3, seed & MASK64, dtype=np.uint64)
    counters = np.arange(1, 65, dtype=np.uint64) * np.uint64(GAMMA)
    assert _mix(states[:, None] + counters).tolist() == [stepped] * 3


@pytest.mark.parametrize("need", [1, 2, 3, 4, 12])
def test_disk_draws_are_in_unit_disk_in_turn(monkeypatch, need):
    """Row i holds the next `need` in_unit_disk draws of stream i, and the
    pairs it used for them step the stream to its state after them.
    Among 3000 streams some are still short of pairs inside the disk
    after the first pass."""
    passes = []

    def counted_mix(z):
        if type(z) is np.ndarray:
            passes.append(len(z))
        return _mix(z)

    monkeypatch.setattr(deform, "_mix", counted_mix)
    seeds = [*range(3000), *(s & MASK64 for s in SEEDS_NEAR_WRAP)]
    states = np.array(seeds, dtype=np.uint64)
    x, y, ends = _disk_draws(states, need)
    assert x.shape == y.shape == ends.shape == (len(seeds), need)
    after = states + ends[:, -1] * np.uint64(2 * GAMMA & MASK64)
    assert passes[0] == len(seeds) and passes[-1] < len(seeds)
    for row, seed in enumerate(seeds):
        gen = SplitMix64(seed)
        want = [gen.in_unit_disk() for _ in range(need)]
        assert list(zip(x[row].tolist(), y[row].tolist())) == want, seed
        assert int(after[row]) == gen._state, seed


@pytest.mark.parametrize("spacing", [1, 7919, 2**32 + 15, 2**63 + 12345])
@pytest.mark.parametrize("need", [5, 17, 64])
def test_disk_draws_match_in_unit_disk_over_seed_spacings(monkeypatch,
                                                         spacing, need):
    """On 400 streams whose seeds step by `spacing`, row i holds the next
    `need` in_unit_disk draws of stream i, and each column of `ends`
    steps the stream to its state after that draw; some streams reach
    the second pass."""
    passes = []

    def counted_mix(z):
        if type(z) is np.ndarray:
            passes.append(len(z))
        return _mix(z)

    monkeypatch.setattr(deform, "_mix", counted_mix)
    seeds = [i * spacing & MASK64 for i in range(400)]
    x, y, ends = _disk_draws(np.array(seeds, dtype=np.uint64), need)
    assert len(passes) > 1 and passes[-1] < len(seeds)
    for row, seed in enumerate(seeds):
        gen = SplitMix64(seed)
        for k in range(need):
            assert (x[row, k], y[row, k]) == gen.in_unit_disk(), (seed, k)
            assert (seed + int(ends[row, k]) * 2 * GAMMA) & MASK64 \
                == gen._state, (seed, k)


def test_sample_epsilon_zero_is_the_base():
    fam = FAMILIES["theorem1"]
    config = sample(fam, 0.0, 123)
    for label, base in zip("ABCD", fam.base_points):
        assert config.point(label) == base


def test_sample_is_deterministic():
    fam = FAMILIES["theorem1"]
    c1 = sample(fam, 0.37, 999)
    c2 = sample(fam, 0.37, 999)
    assert c1.points() == c2.points()
    c3 = sample(fam, 0.37, 1000)
    assert c1.points() != c3.points()


def test_sample_keeps_quadrilaterals_strictly_convex():
    fam = FAMILIES["theorem1"]
    for seed in range(1000):
        config = sample(fam, 0.3, seed)
        a, b, c, d = (config.point(l) for l in "ABCD")
        areas = [signed_area(a, b, c), signed_area(b, c, d),
                 signed_area(c, d, a), signed_area(d, a, b)]
        assert len({x > 0 for x in areas}) == 1, seed
        assert min(abs(x) for x in areas) > 0.0


def test_sample_rejection_budget():
    def never_works(*pts):
        raise ValueError("no configuration here")

    fam = DeformationFamily("impossible", (Point(0, 0), Point(1, 0)),
                            never_works)
    with pytest.raises((RejectionBudgetExhausted, ValueError)):
        sample(fam, 0.1, 0, max_rejections=5)


def test_verify_theorem_claims():
    fam = FAMILIES["theorem1"]
    rep, = verify(fam, (CLAIMS["theorem1_perp"].claim,), 200, 0.5, 0)
    assert rep.verdict == "theorem"
    assert rep.max_residual <= 1e-9
    assert rep.mean_residual <= rep.max_residual
    assert rep.samples == 200 and rep.seed == 0


def test_verify_refutes_false_collinearity():
    fam = FAMILIES["theorem1"]
    claim = RelationClaim("collinear", ("O_ab", "O_bc", "O_cd"),
                          "apexes collinear (false in general)")
    rep, = verify(fam, (claim,), 100, 0.5, 0)
    assert rep.verdict == "refuted"
    assert rep.max_residual > 100.0 * rep.rel_tol


def test_verify_single_sample_degenerate_is_theorem():
    fam = FAMILIES["example1"]
    rep, = verify(fam, (CLAIMS["example1_equilateral"].claim,), 1, 0.0, 0)
    assert rep.verdict == "theorem"
    assert rep.max_residual == 0.0


def test_verify_is_reproducible():
    fam = FAMILIES["bisector"]
    claim = CLAIMS["bisector_concyclic"].claim
    assert (verify(fam, (claim,), 50, 0.4, 7)
            == verify(fam, (claim,), 50, 0.4, 7))


def test_scaling_probe_theorem_stays_on_noise_floor():
    rep, = scaling_probe(FAMILIES["theorem1"], (CLAIMS["theorem1_perp"].claim,),
                         (1e-3, 1e-2, 1e-1), 40, 0)
    assert rep.verdict == "theorem"
    assert rep.max_residual <= 1e-9
    assert len(rep.median_residuals) == 3


def test_scaling_probe_flags_first_order_coincidence():
    """Apex-diagonal midpoints coincide only for the square: the defect
    grows linearly in epsilon, so the probe must fit exponent 1 and call
    the claim approximate rather than a theorem."""
    claim = RelationClaim("midpoints_coincide",
                          ("O_ab", "O_cd", "O_bc", "O_da"),
                          "diagonal midpoints coincide (square only)")
    rep, = scaling_probe(FAMILIES["theorem1"], (claim,), (1e-3, 1e-2, 1e-1),
                         40, 0)
    assert rep.verdict == "approximate"
    assert rep.scaling_exponent is not None
    assert rep.scaling_exponent >= 1.0


def test_scaling_probe_epsilon_floor_respected():
    fam = FAMILIES["example2"]
    assert fam.epsilon_floor == 1e-6
    assert fam.radius(1e-6) == 1e-6 * fam.base_diameter()
    for epsilon in (1e-9, 0.0):
        with pytest.raises(ValueError, match="requires epsilon >= 1e-06"):
            fam.radius(epsilon)
    assert FAMILIES["theorem1"].radius(0.0) == 0.0
    with pytest.raises(ValueError):
        scaling_probe(fam, (CLAIMS["example2_concyclic"].claim,),
                      (1e-9, 1e-3), 10, 0)


def test_fit_scaling_exponent_recovers_powers():
    eps = (1e-3, 1e-2, 1e-1)
    quadratic = [0.7 * e * e for e in eps]
    linear = [3.1 * e for e in eps]
    assert abs(fit_scaling_exponent(eps, quadratic) - 2.0) < 1e-9
    assert abs(fit_scaling_exponent(eps, linear) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        fit_scaling_exponent((1e-2,), (0.1,))


def test_probe_uses_common_random_numbers():
    """Median residual ratios between adjacent epsilon blocks track the
    epsilon ratio tightly because every block reuses the same seeds."""
    claim = RelationClaim("midpoints_coincide",
                          ("O_ab", "O_cd", "O_bc", "O_da"),
                          "diagonal midpoints coincide (square only)")
    rep, = scaling_probe(FAMILIES["theorem1"], (claim,), (1e-3, 1e-2, 1e-1), 60,
                         11)
    m1, m2, m3 = rep.median_residuals
    assert abs(m2 / m1 - 10.0) < 0.05
    assert abs(m3 / m2 - 10.0) < 0.5


def test_shared_sweep_judges_each_claim_as_alone():
    """Claims swept together on one family's draws get the reports they get
    one at a time, the scaling fit and the base-figure check included."""
    fam = FAMILIES["theorem1"]
    exact = CLAIMS["theorem1_perp"].claim
    loose = RelationClaim("midpoints_coincide",
                          ("O_ab", "O_cd", "O_bc", "O_da"),
                          "diagonal midpoints coincide (square only)")
    false = RelationClaim("equal_length", ("O_ab", "O_bc", "A", "B"),
                          "apex gap equals a side (false)")
    claims = (exact, loose, false)
    grid = (1e-3, 1e-2, 1e-1)
    probed = scaling_probe(fam, claims, grid, 30, 4)
    assert probed == tuple(scaling_probe(fam, (c,), grid, 30, 4)[0]
                           for c in claims)
    assert [r.verdict for r in probed] == ["theorem", "approximate",
                                           "refuted"]
    verified = verify(fam, claims, 30, 0.5, 4)
    assert verified == tuple(verify(fam, (c,), 30, 0.5, 4)[0] for c in claims)


def test_engine_constants():
    assert REFUTE_FACTOR == 100.0
    assert APPROXIMATE_MIN_EXPONENT == 0.5


def test_verdict_bands():
    """inconclusive sits between theorem and refuted by construction."""
    fam = FAMILIES["theorem1"]
    claim = RelationClaim("collinear", ("O_ab", "O_bc", "O_cd"),
                          "apexes collinear (false in general)")
    rep, = verify(fam, (claim,), 20, 0.5, 3)
    assert rep.refute_tol == rep.rel_tol * REFUTE_FACTOR
    assert rep.verdict in ("theorem", "inconclusive", "refuted")
    assert rep.verdict == "refuted"
    # a residual within REFUTE_FACTOR of the pass threshold is neither
    rep, = verify(fam, (claim,), 20, 0.5, 3,
                  rel_tol=rep.max_residual / 10)
    assert rep.verdict == "inconclusive"
