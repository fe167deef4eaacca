"""Acceptance gate: the twelve release criteria, one pass/fail line each.

Each test prints a single `criterion NN: PASS ...` or `criterion NN: FAIL ...`
line (visible with `pytest -s` or in the captured output of a failure) and
then asserts.  Tolerances are the release thresholds, not the tighter margins
the implementation actually achieves.
"""

import itertools
import json
import math
import random
import time

import pytest

from geodeform.catalog import CLAIMS, FAMILIES
from geodeform.centers import CenterKind, triangle_center
from geodeform.cli import main
from geodeform.configurations import Configuration
from geodeform.core import Circle, GeometryError, Point, diameter, dist
from geodeform.deform import RelationClaim, SplitMix64, sample, \
    scaling_probe, verify
from geodeform.relations import evaluate_relation
from geodeform.script import ParseError, evaluate, parse
from fermat_oracle import fermat_oracle
from oracle_builders import build_bisector_variant, build_example1, \
    build_example2, build_example3, build_theorem1

EPS = 2.0 ** -52


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_quadrilateral_claims_hold_on_1000_samples():
    fam = FAMILIES["theorem1"]
    start = time.perf_counter()
    perp, equal = verify(fam, (CLAIMS["theorem1_perp"].claim,
                               CLAIMS["theorem1_equal"].claim), 1000, 0.5, 0)
    elapsed = time.perf_counter() - start
    ok = (perp.max_residual <= 1e-9 and equal.max_residual <= 1e-9
          and elapsed <= 2.0)
    _report(1, ok, f"perp max={perp.max_residual:.2e} "
                   f"equal max={equal.max_residual:.2e} time={elapsed:.2f}s")


def test_criterion_02_square_collapses_apexes():
    cfg = FAMILIES["theorem1"].builder(Point(0, 0), Point(1, 0), Point(1, 1),
                                       Point(0, 1))
    apexes = [cfg.point(l) for l in ("O_ab", "O_bc", "O_cd", "O_da")]
    spread = max(dist(p, q) for p, q in itertools.combinations(apexes, 2))
    _report(2, spread <= 1e-12, f"apex spread={spread:.2e}")


def test_criterion_03_bisector_meets_stay_concyclic():
    bc = CLAIMS["bisector_concyclic"]
    rep, = verify(bc.family, (bc.claim,), 1000, 0.5, 0)
    _report(3, rep.max_residual <= 1e-9,
            f"max residual={rep.max_residual:.2e}")


def test_criterion_04_erected_centroids_equilateral_with_one_fermat(tmp_path):
    bc_eq = CLAIMS["example1_equilateral"]
    bc_f = CLAIMS["example1_fermat_on_circle"]
    base = bc_eq.family.base_diameter()
    worst_eq = worst_f1 = 0.0
    closest_f2 = math.inf
    conventions = set()
    for i in range(500):
        cfg = sample(bc_eq.family, 0.5, i)
        worst_eq = max(worst_eq,
                       bc_eq.claim.evaluate(cfg, scale=base).residual)
        worst_f1 = max(worst_f1,
                       bc_f.claim.evaluate(cfg, scale=base).residual)
        ring = [cfg.point(l) for l in ("O_a", "O_b", "O_c")]
        closest_f2 = min(closest_f2,
                         evaluate_relation("concyclic",
                                           ring + [cfg.point("F2")]).residual)
        conventions.add(bc_f.annotate(cfg).get("convention"))
    # The report must pin which of the two isogonic points satisfies the
    # claim, and it must be the same one on every sample.
    out = tmp_path / "convention.json"
    code = main(["verify", "example1_fermat_on_circle", "--samples", "20",
                 "--seed", "0", "--json", str(out)])
    recorded = json.loads(out.read_text())["claims"][0]["convention"]
    ok = (worst_eq <= 1e-9 and worst_f1 <= 1e-9 and closest_f2 > 1e-9
          and len(conventions) == 1 and code == 0
          and recorded == next(iter(conventions)) and "F1" in recorded)
    _report(4, ok, f"equilateral max={worst_eq:.2e} on-circle "
                   f"max={worst_f1:.2e} other-point min={closest_f2:.2e} "
                   f"convention={recorded!r}")


def test_criterion_05_chained_apex_circle_over_epsilon_range():
    bc = CLAIMS["example2_concyclic"]
    base = bc.family.base_diameter()
    rng = random.Random(0)
    worst = 0.0
    for i in range(500):
        eps = rng.uniform(1e-3, 0.4)
        cfg = sample(bc.family, eps, 1000 + i)
        worst = max(worst, bc.claim.evaluate(cfg, scale=base).residual)
    _report(5, worst <= 1e-7, f"max residual={worst:.2e}")


def test_criterion_06_circumcevian_reflections_concyclic():
    fam = FAMILIES["example3"]
    prime, double = verify(fam, (CLAIMS["example3_prime_concyclic"].claim,
                                 CLAIMS["example3_doubleprime_concyclic"].claim),
                           500, 0.5, 0)
    ok = prime.max_residual <= 1e-8 and double.max_residual <= 1e-8
    _report(6, ok, f"line-reflection max={prime.max_residual:.2e} "
                   f"midpoint-reflection max={double.max_residual:.2e}")


def test_criterion_07_isogonic_center_matches_distance_minimizer():
    rng = random.Random(7)
    worst = 0.0
    produced = 0
    while produced < 200:
        a, b, c = (Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(3))
        sides = (dist(a, b), dist(b, c), dist(c, a))
        if min(sides) < 1e-3:
            continue
        wide = False
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            u, v = q - p, r - p
            cosang = ((u.x * v.x + u.y * v.y)
                      / (math.hypot(u.x, u.y) * math.hypot(v.x, v.y)))
            wide = wide or cosang <= -0.5
        if wide:
            continue
        x13 = triangle_center(CenterKind.X13, a, b, c)
        oracle = fermat_oracle(a, b, c)
        worst = max(worst, dist(x13, oracle) / max(sides))
        produced += 1
    _report(7, worst <= 1e-6, f"max |closed form - oracle| / diameter="
                              f"{worst:.2e} over 200 triangles")


def test_criterion_08_scaling_probe_separates_true_from_false():
    fam = FAMILIES["theorem1"]
    true_rep, = scaling_probe(fam, (CLAIMS["theorem1_perp"].claim,),
                              (1e-3, 1e-2, 1e-1, 0.5), samples=50, seed=0)
    false_claim = RelationClaim("midpoints_coincide",
                                ("O_ab", "O_cd", "O_bc", "O_da"),
                                "apex diagonal midpoints coincide")
    false_rep, = scaling_probe(fam, (false_claim,), (1e-3, 1e-2, 1e-1),
                               samples=50, seed=0)
    ok = (true_rep.verdict == "theorem"
          and true_rep.max_residual <= 1e-9
          and false_rep.scaling_exponent is not None
          and false_rep.scaling_exponent >= 1.0
          and false_rep.verdict in ("approximate", "refuted"))
    _report(8, ok, f"true verdict={true_rep.verdict} "
                   f"max={true_rep.max_residual:.2e}; false "
                   f"verdict={false_rep.verdict} "
                   f"exponent={false_rep.scaling_exponent}")


def test_criterion_09_conic_membership_detects_small_displacement():
    def on_ellipse(t):
        return Point(2.0 * math.cos(t), math.sin(t))

    five = [on_ellipse(t) for t in (0.3, 1.1, 2.0, 2.9, 4.0)]
    p6 = on_ellipse(5.1)
    member = evaluate_relation("on_conic", five + [p6])
    gx, gy = p6.x / 2.0, 2.0 * p6.y
    norm = math.hypot(gx, gy)
    moved = Point(p6.x + 1e-3 * gx / norm, p6.y + 1e-3 * gy / norm)
    displaced = evaluate_relation("on_conic", five + [moved])
    ok = (member.passed and not displaced.passed
          and 1e-4 <= displaced.residual <= 1e-2)
    _report(9, ok, f"member residual={member.residual:.2e} displaced "
                   f"residual={displaced.residual:.2e}")


def _transformed(cfg, point_map, radius_factor):
    objs = {}
    for label, obj in cfg.objects.items():
        if isinstance(obj, Point):
            objs[label] = point_map(obj)
        elif isinstance(obj, Circle):
            objs[label] = Circle(point_map(obj.center),
                                 obj.radius * radius_factor)
        else:
            raise TypeError(f"unexpected object type {type(obj).__name__}")
    return Configuration(objects=objs, params=dict(cfg.params),
                         edges=cfg.edges)


def test_criterion_10_residuals_survive_similarity_transforms():
    theta = 0.7368421
    c, s = math.cos(theta), math.sin(theta)

    def rotated(p):
        return Point(p.x * c - p.y * s + 3.25, p.x * s + p.y * c - 1.75)

    def scaled(p):
        return Point(p.x * 1000.0, p.y * 1000.0)

    worst_drift = 0.0
    stable = True
    for bc in CLAIMS.values():
        cfg = sample(bc.family, 0.35, 12345)
        plain, moved, grown = (
            bc.claim.evaluate(c, scale=diameter(list(c.points().values())))
            .residual for c in (cfg, _transformed(cfg, rotated, 1.0),
                                _transformed(cfg, scaled, 1000.0)))
        worst_drift = max(worst_drift, abs(moved - plain))
        stable = stable and (grown == plain)
    ok = worst_drift <= 10 * EPS and stable
    _report(10, ok, f"rotation drift={worst_drift:.2e} (bound "
                    f"{10 * EPS:.2e}) scale-by-1000 bitwise stable={stable}")


MALFORMED = [
    ("point A = (0 0)\n", 1, 12),
    ("point A = (0,0)\npoint A = (1,1)\n", 2, 7),
    ("assert concyclic(A,B)\n", 1, 8),
    ("point A = (0,0)\npoint B = midpoint(A)\n", 2, 11),
    ("point A = (0,0)\nassert nonsense(A,A,A)\n", 2, 8),
    ("point A = (1,2\npoint B = (3,4)\n", 1, 14),
    ("param t =\n", 1, 9),
    ("point A = midpoint(B, C)\n", 1, 20),
    ("frobnicate A\n", 1, 1),
    ("point A = (0,0)\nassert collinear(A, A)\n", 2, 8),
]


ORACLES = {"theorem1": build_theorem1, "bisector": build_bisector_variant,
           "example1": build_example1, "example2": build_example2,
           "example3": build_example3}
# points a family program defines only as arguments of a later construction
HELPER_LABELS = {"example3": {"M_a", "M_b", "M_c"}}


def _built(family_name, builder, points):
    """Point coordinates and circles as hex strings, plus the edges, of
    the configuration; or the class of the rejection."""
    try:
        config = builder(*points)
    except GeometryError as exc:
        return type(exc)
    helpers = HELPER_LABELS.get(family_name, set())
    coords = {label: (p.x.hex(), p.y.hex())
              for label, p in config.points().items() if label not in helpers}
    circles = [(c.center.x.hex(), c.center.y.hex(), c.radius.hex())
               for c in config.objects.values() if isinstance(c, Circle)]
    return coords, circles, config.edges


def _first_oracle_mismatch():
    """Every draw `sample` makes for seeds 0..199 at two epsilons, the
    rejected ones included: the program builder and the oracle must agree
    bit for bit, or reject with the same exception class.  Returns the
    first draw where they do not, or None."""
    for name, family in FAMILIES.items():
        for eps in (0.001, 0.5):
            radius = eps * family.base_diameter()
            for seed in range(200):
                rng = SplitMix64(seed)
                for _ in range(1000):  # the rejection budget of `sample`
                    points = []
                    for p in family.base_points:
                        dx, dy = rng.in_unit_disk()
                        points.append(Point(p.x + radius * dx,
                                            p.y + radius * dy))
                    built = _built(name, family.builder, points)
                    if built != _built(name, ORACLES[name], points):
                        return f"{name} eps={eps} seed={seed}"
                    if not isinstance(built, type):
                        break
    return None


def test_criterion_11_script_path_agrees_with_library_path(tmp_path, capsys):
    fam = FAMILIES["theorem1"]
    cfg = sample(fam, 0.5, 0)
    overrides = {}
    for label in "abcd":
        p = cfg.point(label.upper())
        overrides[label + "x"] = p.x
        overrides[label + "y"] = p.y
    program = parse(open("scripts/theorem1.geo").read())
    _, verdicts = evaluate(program, overrides)
    base = fam.base_diameter()
    builtin = [CLAIMS["theorem1_perp"].claim.evaluate(cfg, scale=base),
               CLAIMS["theorem1_equal"].claim.evaluate(cfg, scale=base)]
    residuals_match = all(
        v.passed == b.passed and abs(v.residual - b.residual) <= 1e-12
        for v, b in zip(verdicts, builtin))

    positions_match = True
    for source, line, col in MALFORMED:
        try:
            evaluate(parse(source))
            positions_match = False
        except ParseError as err:
            positions_match = (positions_match
                               and (err.line, err.col) == (line, col))

    ok_script = tmp_path / "ok.geo"
    ok_script.write_text("point A = (0,0)\npoint B = (2,0)\n"
                         "point M = midpoint(A, B)\n"
                         "assert collinear(A, M, B)\n")
    bad_assert = tmp_path / "bad_assert.geo"
    bad_assert.write_text("point A = (0,0)\npoint B = (1,0)\n"
                          "point C = (0,1)\nassert collinear(A, B, C)\n")
    broken = tmp_path / "broken.geo"
    broken.write_text(MALFORMED[0][0])
    codes = (main(["run", str(ok_script)]),
             main(["run", str(bad_assert)]),
             main(["run", str(broken)]),
             main(["verify", "nosuch"]),
             main(["run", str(ok_script), "--param", "zz=1"]))
    capsys.readouterr()
    exit_codes_match = codes == (0, 1, 2, 2, 2)

    oracle_mismatch = _first_oracle_mismatch()

    ok = (residuals_match and positions_match and exit_codes_match
          and oracle_mismatch is None)
    _report(11, ok, f"script residuals match={residuals_match} "
                    f"parse positions match={positions_match} "
                    f"exit codes={codes} "
                    f"first oracle mismatch={oracle_mismatch}")


def _scrubbed(document):
    if isinstance(document, dict):
        return {k: _scrubbed(v) for k, v in document.items()
                if k != "wall_time_s"}
    if isinstance(document, list):
        return [_scrubbed(v) for v in document]
    return document


def test_criterion_12_repeated_runs_are_reproducible(tmp_path, capsys):
    outputs = []
    for run in (1, 2):
        json_path = tmp_path / f"report{run}.json"
        svg_path = tmp_path / f"figure{run}.svg"
        code = main(["verify", "all", "--seed", "7",
                     "--json", str(json_path), "--svg", str(svg_path)])
        assert code == 0
        outputs.append((json.loads(json_path.read_text()),
                        svg_path.read_bytes(),
                        capsys.readouterr().out))
    first, second = outputs
    json_same = _scrubbed(first[0]) == _scrubbed(second[0])
    svg_same = first[1] == second[1]
    stdout_same = first[2] == second[2]
    ok = json_same and svg_same and stdout_same
    _report(12, ok, f"json identical={json_same} svg identical={svg_same} "
                    f"stdout identical={stdout_same}")
