"""Command-line interface: exit codes, output shape, JSON reports."""

import argparse
import dataclasses
import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from importlib import metadata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodeform import cli, script
from geodeform.catalog import CLAIMS, claim_names
from geodeform.cli import main
from geodeform.script import parse
from ledger import INVOCATIONS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PYPROJECT = ROOT / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_exits_clean(capsys):
    code, out, err = run_cli(capsys, "verify", "all",
                             "--samples", "100", "--seed", "7")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 8
    for line in lines:
        assert "theorem" in line


def test_verify_single_claim_report_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem1_perp",
                           "--samples", "50", "--seed", "0")
    assert code == 0
    assert re.search(r"theorem1_perp: theorem max_residual=\S+ "
                     r"mean_residual=\S+", out)


def test_verify_eps_grid_reports_exponent(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem1_perp",
                           "--samples", "20", "--seed", "0",
                           "--eps-grid", "1e-3,1e-2,1e-1")
    assert code == 0
    assert "exponent=" in out


def test_verify_unknown_claim(capsys):
    code, out, err = run_cli(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown claim" in err
    assert "theorem1_perp" in err  # the valid list is offered


@pytest.mark.parametrize("extra, message", [
    ("nosuch", "unknown claim(s): nosuch"),
    pytest.param(str(SCRIPTS / "eps_demo.geo"), "no deform statement",
                 id="eps_demo.geo-no deform statement"),
])
def test_verify_all_does_not_hide_other_arguments(capsys, extra, message):
    """`all` stands for every built-in claim in its place; the other
    arguments are checked as they would be without it."""
    code, out, err = run_cli(capsys, "verify", "all", extra, "--samples", "2")
    assert code == 2 and not out
    assert message in err


def test_verify_program_equals_its_named_claims(capsys):
    argv = ("--seed", "7", "--samples", "50")
    by_path = run_cli(capsys, "verify", str(SCRIPTS / "theorem1.geo"), *argv)
    by_name = run_cli(capsys, "verify", "theorem1_perp", "theorem1_equal",
                      *argv)
    assert by_path == by_name
    assert by_path[0] == 0 and len(by_path[1].splitlines()) == 2


USER_FIGURE = """\
point A = (0, 0)
point B = (1, 0)
point C = (0, 1)
deform A B C about (0, 0) (1, 0) (0, 1)
point M = midpoint(A, B)
point G = centroid(A, B, C)
assert collinear(C, G, M) as median "the centroid lies on a median"
assert collinear(A, G, B) as on_side "the centroid lies on a side"
"""


def test_verify_deforms_a_user_figure(capsys, tmp_path):
    path = tmp_path / "medians.geo"
    path.write_text(USER_FIGURE)
    report = tmp_path / "medians.json"
    code, out, err = run_cli(capsys, "verify", str(path), "theorem1_perp",
                             "--samples", "30", "--json", str(report))
    assert code == 1 and not err
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "median", "on_side", "theorem1_perp"]
    claims = json.loads(report.read_text())["claims"]
    assert [(c["family"], c["verdict"]) for c in claims] == [
        ("medians", "theorem"), ("medians", "refuted"),
        ("theorem1", "theorem")]
    assert claims[0]["description"] == "the centroid lies on a median"


def test_verify_all_expands_in_place(capsys, tmp_path):
    path = tmp_path / "medians.geo"
    path.write_text(USER_FIGURE)
    code, out, _ = run_cli(capsys, "verify", str(path), "all",
                           "--samples", "2")
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "median", "on_side", *claim_names()]


@pytest.mark.parametrize("source, message", [
    (USER_FIGURE.replace("deform", "# deform"), "no deform statement"),
    (re.sub(r' as \w+ "[^"]*"', "", USER_FIGURE), "no named assert"),
])
def test_verify_program_without_deform_or_claims_is_usage_error(
        capsys, tmp_path, source, message):
    path = tmp_path / "figure.geo"
    path.write_text(source)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and not out
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


def test_verify_program_parse_error_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.geo"
    path.write_text(USER_FIGURE.replace('"the centroid lies on a side"',
                                        '"unterminated'))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and not out
    assert err.strip() == f"{path}:8:38: unterminated string"
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "missing.geo"))
    assert code == 2 and err.startswith("error: ")


def test_verify_eps_below_family_floor(capsys):
    """An epsilon below a selected family's floor, alone or in a grid,
    makes the invocation unusable before any claim is judged: exit 2,
    nothing on stdout, and one `error:` line naming the first family and
    epsilon that have no perturbation radius."""
    floor = "error: family 'example2' requires epsilon >= 1e-06 (got {})\n"
    for argv, got in [
            (["example2_concyclic", "--samples", "5", "--eps", "1e-9"],
             "1e-09"),
            (["example2_concyclic", "--samples", "3",
              "--eps-grid", "1e-8,1e-7,1e-5"], "1e-08"),
            (["all", "--eps", "1e-7"], "1e-07"),
            (["all", "--eps", "0", "--samples", "5"], "0.0"),
            (["all", "--eps-grid", "1e-7,1e-6,1e-5", "--samples", "20"],
             "1e-07")]:
        assert run_cli(capsys, "verify", *argv) == (
            2, "", floor.format(got)), argv


@pytest.mark.parametrize("deform", ["deform A about (0.2, 0.3)",
                                    "deform A C about (0.2, 0.3) (0.2, 0.3)"])
@pytest.mark.parametrize("eps", [["--eps", "0.5"], ["--eps", "0"],
                                 ["--eps-grid", "0.001,0.01,0.1"]])
def test_verify_base_without_length_is_usage_error(capsys, tmp_path, deform,
                                                   eps):
    """Base points that span no length give no deformation radius and no
    scale to judge against: exit 2 with one `error:` line before any
    verdict, not a `theorem` of a claim that `run` finds false."""
    geo = tmp_path / "bogus.geo"
    geo.write_text("point A = (0, 0)\npoint C = (1, 0)\npoint D = (0, 1)\n"
                   f"{deform}\n"
                   'assert collinear(A, C, D) as bogus "x"\n',
                   encoding="utf-8")
    assert run_cli(capsys, "verify", str(geo), *eps) == (
        2, "", "error: family 'bogus': the base points span no length, so "
               "the figure cannot be deformed\n")
    assert run_cli(capsys, "run", str(geo))[0] == 1


def test_verify_bad_eps_grid_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "theorem1_perp", "--eps-grid", "banana"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["verify", "theorem1_perp", "--eps-grid", ","])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        ": error: argument --eps-grid: --eps-grid is empty")
    # a non-finite value is named, wherever it stands in the grid; a
    # value that starts with "-" reads as it does glued on with "="
    not_finite = "epsilon must be finite and >= 0, got {}"
    two_decades = "epsilon values must be positive and span >= 2 decades"
    for flag, value, message in [
            ("--eps-grid", "0.001,0.01,0.1,nan", not_finite.format("nan")),
            ("--eps-grid", "nan,0.001,0.01,0.1", not_finite.format("nan")),
            ("--eps-grid", "0.001,inf,0.01,0.1", not_finite.format("inf")),
            ("--eps-grid", "-inf,0.001,0.01,0.1", not_finite.format("-inf")),
            ("--eps", "-1e-3", "epsilon must be finite and >= 0, got -0.001"),
            ("--eps-grid", "0.001,0.1",
             "scaling probe needs >= 3 distinct epsilon values"),
            ("--eps-grid", "0.01,0.02,0.05", two_decades),
            ("--eps-grid", "0,0.01,0.1", two_decades)]:
        for argv in ([flag, value], [f"{flag}={value}"]):
            assert run_cli(capsys, "verify", "theorem1_perp", "--samples",
                           "5", *argv) == (2, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-1e-9", "-inf"])
@pytest.mark.parametrize("command", [
    ["verify", "theorem1_perp", "--samples", "5"],
    ["run", str(SCRIPTS / "theorem1.geo")],
])
def test_bad_tol_is_usage_error(capsys, command, tol):
    with pytest.raises(SystemExit) as info:
        main(command + ["--tol", tol])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"--tol wants a finite number > 0, got {tol!r}" in err


def test_tol_moves_the_verdict_threshold_only(capsys):
    """A threshold below every construction guard still builds each
    figure, and `run` and `verify` agree on the program."""
    path = str(SCRIPTS / "example2.geo")
    code, out, _ = run_cli(capsys, "run", path, "--tol", "1e-16")
    assert (code, out) == (0, "PASS concyclic(F_a,F_b,F_c,F2) "
                              "residual=0.00e+00\n")
    code, out, _ = run_cli(capsys, "verify", path, "--tol", "1e-16",
                           "--samples", "20")
    assert code == 0 and out.startswith("example2_concyclic: theorem ")


def test_verify_runs_outside_the_checkout(tmp_path):
    """The built-in families load their programs from the package, not
    from the working directory."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "geodeform.cli", "verify", "theorem1_perp",
         "--samples", "10"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("theorem1_perp: theorem ")


def _modules_after(*argv):
    """The modules a fresh interpreter has loaded after importing the CLI,
    reading the built-in claim names (which builds no family, and which
    the benchmark's start-up also does), and running `geodeform ARGV`
    (without arguments, nothing more), which exits 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys\n"
            "import geodeform.cli\n"
            "from geodeform.catalog import claim_names\n"
            "claim_names()\n"
            "code = geodeform.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1].split()


def test_start_up_loads_no_network_or_xml_modules():
    """Importing the CLI and touching the claim catalog, which every
    invocation does first, loads no urllib.request, http, email or xml
    module.  (pathlib, in the standard library, loads urllib.parse.)"""
    loaded = [m for m in _modules_after()
              if m.split(".")[0] in ("urllib", "http", "email", "xml")]
    assert set(loaded) <= {"urllib", "urllib.parse"}, loaded


@pytest.mark.parametrize("argv, loads_json", [
    ((), False),
    (("render", "crown", "--out", "{tmp}/crown.svg"), False),
    (("shapes",), False),
    (("run", "scripts/example3.geo", "--json", "{tmp}/run.json"), True),
])
def test_only_a_json_report_loads_json(tmp_path, argv, loads_json):
    """Start-up, `render` and `shapes` load no json module; the report
    writer binds json's string encoder on first use."""
    modules = _modules_after(*(a.format(tmp=tmp_path) for a in argv))
    assert any(m.split(".")[0] == "json" for m in modules) == loads_json


@pytest.mark.parametrize("argv, loads_numpy", [
    ((), False),
    (("run", "scripts/example3.geo", "--json", "{tmp}/run.json", "--svg",
      "{tmp}/run.svg"), False),
    (("render", "crown", "--out", "{tmp}/crown.svg"), False),
    (("shapes",), False),
    (("verify", "theorem1_perp", "--samples", "3"), True),
])
def test_only_verify_loads_numpy(tmp_path, argv, loads_numpy):
    """A command that builds no row of a batch starts without numpy."""
    modules = _modules_after(*(a.format(tmp=tmp_path) for a in argv))
    assert ("numpy" in modules) == loads_numpy


@pytest.mark.parametrize("argv, loads_verifier", [
    (("run", "scripts/theorem1.geo", "--json", "{tmp}/run.json", "--svg",
      "{tmp}/run.svg"), False),
    (("render", "crown", "--out", "{tmp}/crown.svg"), False),
    (("shapes",), False),
    (("verify", "theorem1_perp", "--samples", "3"), True),
])
def test_only_verify_loads_the_row_sampler(tmp_path, argv, loads_verifier):
    """`run`, `render` and `shapes` start without `geodeform.deform` (nor
    numpy, which it loads to draw); `verify` loads both."""
    modules = set(_modules_after(*(a.format(tmp=tmp_path) for a in argv)))
    loaded = {"geodeform.deform", "numpy"} & modules
    assert loaded == ({"geodeform.deform", "numpy"} if loads_verifier
                      else set())


def test_script_module_loads_no_verifier():
    """The `.geo` language alone loads neither the row sampler nor the
    claim catalog."""
    code = ("import sys, geodeform.script\n"
            "print(' '.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    modules = set(proc.stdout.split())
    assert "geodeform.script" in modules
    assert not {"geodeform.deform", "geodeform.catalog"} & modules


@pytest.mark.parametrize("command", [
    ["verify", "example3_prime_concyclic", "--eps", "1e308", "--samples", "1"],
    ["verify", "example1_equilateral", "--eps", "1e307", "--samples", "1"],
    ["verify", "example1_fermat_on_circle", "--eps", "1e307", "--samples", "1",
     "--svg"],
])
def test_exhausted_rejection_budget_is_usage_error(capsys, tmp_path, command):
    """Deformations so large that no draw builds end in one error line."""
    svg = tmp_path / "claim.svg"
    if command[-1] == "--svg":
        command = command + [str(svg)]
    code, _, err = run_cli(capsys, *command)
    assert code == 2
    assert err.startswith("error: family ")
    assert len(err.splitlines()) == 1
    assert not svg.exists()


DIVIDES_BY_ZERO = """\
param k = 0
point A = (0, 0)
point B = (1, 0)
point C = (0, 1)
point E = (1 / k, 0)
deform A B C about (0, 0) (1, 0) (0, 1)
assert collinear(A, B, E) as zd "division by zero"
"""


@pytest.mark.parametrize("command, code, stream, text", [
    (["verify"], 2, "err",
     "error: family 'zd': no valid sample within 1000 draws at epsilon=0.5, "
     "seed=0 (last: float division by zero)\n"),
    (["verify", "--eps", "0"], 2, "err", "error: float division by zero\n"),
    (["verify", "--eps-grid", "0.001,0.01,0.1", "--samples", "20"], 2, "err",
     "error: family 'zd': no valid sample within 1000 draws at "
     "epsilon=0.001, seed=0 (last: float division by zero)\n"),
    (["run"], 1, "out",
     "FAIL collinear(A,B,E) residual=inf [E: float division by zero]\n"),
], ids=["verify", "verify-eps-0", "verify-eps-grid", "run"])
def test_a_division_by_zero_is_a_construction_error(capsys, tmp_path,
                                                    command, code, stream,
                                                    text):
    """A point whose coordinate divides by zero fails as a degenerate
    construction does: every draw rejects it, and `run` fails the assert
    over it; no traceback."""
    geo = tmp_path / "zd.geo"
    geo.write_text(DIVIDES_BY_ZERO, encoding="utf-8")
    got, out, err = run_cli(capsys, command[0], str(geo), *command[1:])
    assert got == code
    assert {"out": out, "err": err} == {"out": "", "err": "",
                                        stream: text}
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("grid", [[], ["--eps-grid", "0.001,0.01,0.1"]])
def test_nonpositive_samples_is_usage_error(capsys, samples, grid):
    code, _, err = run_cli(capsys, "verify", "theorem1_perp",
                           "--samples", samples, *grid)
    assert code == 2
    assert err == "error: samples must be >= 1\n"


@pytest.mark.parametrize("samples, grid", [
    (2**63, []), (2**62, ["--eps-grid", "0.001,0.01,0.1"])])
def test_a_grid_past_int64_rows_is_usage_error(capsys, samples, grid):
    """A grid of 2^63 rows or more has no int64 row index: one error line
    and exit 2, before any sample is drawn."""
    code, out, err = run_cli(capsys, "verify", "theorem1_perp",
                             "--samples", str(samples), *grid)
    assert (code, out) == (2, "")
    assert err == "error: samples times epsilons must be < 2^63\n"


@pytest.mark.parametrize("command", [
    ["verify", "theorem1_perp", "--samples", "1"],
    ["run", str(SCRIPTS / "theorem1.geo")],
])
@pytest.mark.parametrize("option", ["--json", "--svg"])
def test_unwritable_output_is_usage_error(capsys, tmp_path, command, option):
    target = tmp_path / "missing" / "out"
    code, _, err = run_cli(capsys, *command, option, str(target))
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_verify_json_document(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "theorem1_perp", "theorem1_equal",
                         "--samples", "25", "--seed", "3",
                         "--json", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["tool"] == "geodeform 0.1.0"
    assert doc["command"] == "verify"
    assert doc["seed"] == 3 and doc["samples"] == 25
    assert doc["tolerance"] == {"rel_tol": 1e-9, "abs_floor": 1e-12}
    assert [c["name"] for c in doc["claims"]] == ["theorem1_perp",
                                                  "theorem1_equal"]
    for entry in doc["claims"]:
        assert entry["verdict"] == "theorem"
        assert entry["max_residual"] <= 1e-9
        assert "wall_time_s" in entry


def test_verify_json_with_a_huge_tolerance(capsys, tmp_path):
    """--tol takes any finite value above 0; the refutation bound, 100
    times it, overflows past 1.8e306 and is written as null, as a
    non-finite residual is."""
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "theorem1_perp",
                             "--samples", "3", "--tol", "1e308",
                             "--json", str(out_path))
    assert (code, out, err) == (0, "theorem1_perp: theorem max_residual="
                                   "0.000e+00 mean_residual=0.000e+00\n", "")
    text = out_path.read_text()
    assert '      "rel_tol": 1e+308,\n      "refute_tol": null,\n' in text


def _claims_json(capsys, tmp_path, *argv):
    """The scrubbed `claims` entries of `verify ... --json`."""
    out_path = tmp_path / "claims.json"
    code, _, _ = run_cli(capsys, "verify", *argv, "--json", str(out_path))
    assert code == 0
    return [{k: v for k, v in entry.items() if k != "wall_time_s"}
            for entry in json.loads(out_path.read_text())["claims"]]


@pytest.mark.parametrize("epsilons", [("--eps", "0.3"),
                                      ("--eps-grid", "1e-3,1e-2,1e-1")])
def test_shared_sweep_equals_one_claim_runs(capsys, tmp_path, epsilons):
    """Judging the claims of a family on shared draws gives each claim the
    report it gets when it is verified alone."""
    common = ("--samples", "12", "--seed", "5", *epsilons)
    together = _claims_json(capsys, tmp_path, "all", *common)
    alone = [entry for name in claim_names()
             for entry in _claims_json(capsys, tmp_path, name, *common)]
    assert together == alone
    assert [e["name"] for e in together] == list(claim_names())


def _counting_theorem1(monkeypatch):
    """Point both theorem1 claims at one copy of their family whose builder
    counts its calls, as a caller wrapping the builder would."""
    calls = []
    family = CLAIMS["theorem1_perp"].family

    def builder(*points):
        calls.append(points)
        return family.builder(*points)

    counted = dataclasses.replace(family, builder=builder)
    for name in ("theorem1_perp", "theorem1_equal"):
        monkeypatch.setitem(CLAIMS, name, dataclasses.replace(
            CLAIMS[name], family=counted))
    return calls


@pytest.mark.parametrize("claims", [("theorem1_perp", "theorem1_equal"),
                                    ("theorem1_perp", "theorem1_perp")])
def test_claims_of_one_family_share_one_sweep(capsys, monkeypatch, claims):
    calls = _counting_theorem1(monkeypatch)
    argv = ("--samples", "30", "--seed", "2")

    def rows_built():
        # a sweep builds its samples as rows, each call a redraw round
        return sum(np.size(points[0].x) for points in calls)

    run_cli(capsys, "verify", "theorem1_perp", *argv)
    alone, alone_rows = len(calls), rows_built()
    calls.clear()
    code, out, _ = run_cli(capsys, "verify", *claims, *argv)
    assert code == 0
    assert alone_rows >= 30 and len(calls) == alone
    assert rows_built() == alone_rows
    assert [line.split(":")[0] for line in out.splitlines()] == list(claims)


def test_verify_keeps_the_requested_order(capsys, tmp_path):
    order = ["theorem1_perp", "bisector_concyclic", "theorem1_equal"]
    out_path = tmp_path / "order.json"
    code, out, _ = run_cli(capsys, "verify", *order, "--samples", "10",
                           "--json", str(out_path))
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == order
    entries = json.loads(out_path.read_text())["claims"]
    assert [e["name"] for e in entries] == order
    # the two theorem1 claims were judged by one sweep and carry its time
    assert entries[0]["wall_time_s"] == entries[2]["wall_time_s"]


def test_verify_convention_note_present(capsys):
    code, out, _ = run_cli(capsys, "verify", "example1_fermat_on_circle",
                           "--samples", "10", "--seed", "1")
    assert code == 0
    assert "F1" in out  # records which Fermat point satisfies the claim


def test_run_golden_script(capsys):
    code, out, _ = run_cli(capsys, "run", str(SCRIPTS / "theorem1.geo"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(l.startswith("PASS") for l in lines)


def test_run_reports_parse_position(capsys, tmp_path):
    bad = tmp_path / "bad.geo"
    bad.write_text("point A = (0 0)\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert f"{bad}:1:12:" in err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_deleted_relation_kind_is_a_parse_error(capsys, tmp_path, command):
    """A program that asserts a deleted kind stops at the kind's name with
    exit 2 and one error line, as for any unknown kind."""
    path = tmp_path / "medial.geo"
    path.write_text("point A = (0, 0)\npoint B = (4, 0)\npoint C = (1, 3)\n"
                    "deform A B C about (0, 0) (4, 0) (1, 3)\n"
                    "assert perspective(A, B, C, B, C, A) as p \"ABC\"\n")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"{path}:5:8: unknown relation 'perspective'\n"


# a superscript two, which float() rejects, and an Arabic-Indic three,
# which it reads as 3.0
@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_run_rejects_non_ascii_digits(capsys, tmp_path, digit):
    bad = tmp_path / "digit.geo"
    bad.write_text(f"point A = ({digit}, 0)\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2 and not out
    assert err == f"{bad}:1:12: unexpected character {digit!r}\n"


# an Arabic-Indic three inside a label, and a Latin capital E with acute
@pytest.mark.parametrize("label, col", [("A\u0663", 8), ("\u00c9", 7)])
def test_run_rejects_non_ascii_identifiers(capsys, tmp_path, label, col):
    bad = tmp_path / "label.geo"
    bad.write_text(f"point {label} = (0, 0)\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2 and not out
    assert err == f"{bad}:1:{col}: unexpected character {label[-1]!r}\n"


@pytest.mark.parametrize("command", [["run"], ["verify"], ["render"]])
def test_a_program_that_is_not_utf8_is_usage_error(capsys, tmp_path,
                                                     command):
    bad = tmp_path / "latin1.geo"
    bad.write_bytes(b"point A = (0, 0)\n# caf\xe9\n")
    svg = tmp_path / "out.svg"
    extra = ["--out", str(svg)] if command == ["render"] else []
    code, out, err = run_cli(capsys, *command, str(bad), *extra)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: the file is not UTF-8 text\n"
    assert not svg.exists()


@pytest.mark.parametrize("command", [["run"], ["verify", "--samples", "5"],
                                     ["render"]])
def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path, command):
    """A program saved with a UTF-8 byte-order mark, as Windows Notepad
    writes it, gives what the same program without one gives; a second
    mark is a character the program does not have."""
    def outputs(name, prefix):
        path = tmp_path / name
        path.write_bytes(prefix + USER_FIGURE.encode())
        svg = tmp_path / f"{name}.svg"
        option = "--out" if command == ["render"] else "--svg"
        code, out, err = run_cli(capsys, *command, str(path), option, str(svg))
        return (code, out, err.replace(str(path), "PATH"),
                svg.read_text() if svg.exists() else None)

    plain = outputs("plain.geo", b"")
    assert plain[0] in (0, 1) and plain[3] is not None
    assert outputs("marked.geo", b"\xef\xbb\xbf") == plain
    assert outputs("twice.geo", b"\xef\xbb\xbf" * 2) == (
        2, "", "PATH:1:1: unexpected character '\\ufeff'\n", None)


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch,
                                                   tmp_path):
    """The parser is built once per process, and no call leaves anything
    in it for the next: not an appended --param, not an invocation that
    argparse rejects, not another subcommand."""
    built = []
    construct = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    path = SCRIPTS / "bisector.geo"
    report = tmp_path / "run.json"

    def run(*argv):
        code, out, err = run_cli(capsys, "run", str(path), *argv,
                                 "--json", str(report))
        assert (code, err) == (0, ""), argv
        document = json.loads(report.read_text())
        del document["wall_time_s"]
        return out, document

    first = run()
    assert first[1]["params"] == parse(path.read_text()).params()
    assert run("--param", "ax=0.05")[1]["params"]["ax"] == 0.05
    assert run() == first
    with pytest.raises(SystemExit) as info:
        main(["run", str(path), "--tol", "0"])
    assert info.value.code == 2
    capsys.readouterr()
    assert run() == first
    assert run_cli(capsys, "verify", "theorem1_perp", "--samples", "5")[0] == 0
    assert run() == first
    # the top-level parser and one per subcommand, each built once
    assert len(built) == len(set(built)) == 5 and "geodeform" in built


# argv beyond the ledger's: help glued to a value or after other flags,
# "--" before the command, an abbreviation argparse finds ambiguous, a
# command in the wrong case, and leftovers after a valid parse
_PARSE_EDGES = {
    "help_abbreviated": ["run", "x.geo", "--he"],
    "help_with_a_value": ["run", "x.geo", "-hx"],
    "help_then_command": ["-h", "run"],
    "help_then_extra": ["run", "-h", "extra"],
    "dash_before_command": ["--", "run", "x.geo"],
    "dash_after_path": ["run", "x.geo", "--", "--json"],
    "dash_in_claims": ["verify", "all", "--", "nosuch"],
    "ambiguous_abbreviation": ["verify", "all", "--s", "3"],
    "unknown_flag": ["verify", "all", "--bogus", "x"],
    "two_leftovers": ["shapes", "a", "-b"],
    "command_in_capitals": ["RUN", "x.geo"],
    "invalid_value": ["run", "x.geo", "--tol", "0"],
    "glued_negative": ["verify", "all", "--eps=-1e-3"],
    "render_without_out": ["render", "crown"],
    "repeated_params": ["render", "crown", "--out", "f.svg", "--param",
                        "a=1", "--param=b=2"],
}


@pytest.mark.parametrize("argv", [
    *(pytest.param(argv, id=name) for name, argv, _ in INVOCATIONS),
    *(pytest.param(argv, id=name) for name, argv in _PARSE_EDGES.items())])
def test_dispatch_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    """`main`'s dispatch to a subcommand's parser gives what the top-level
    parser's `parse_args` gives, but for the `command` no one reads: the
    same arguments, or the same exit and the same help or usage text."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
    parser, _ = cli._build_parser()

    def parsed(parse):
        try:
            args = vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, capsys.readouterr()
        args.pop("command", None)
        return args, capsys.readouterr()

    assert parsed(cli._parse_args) == parsed(parser.parse_args)


@pytest.mark.parametrize("command", ["run", "verify", "render", "shapes"])
def test_a_valid_invocation_is_parsed_once(capsys, monkeypatch, tmp_path,
                                           command):
    """Only the subcommand's parser scans the arguments: the top-level
    parser, which would scan them all again, is not asked."""
    argv = {"run": ["run", str(SCRIPTS / "bisector.geo"), "--param", "ax=0.05"],
            "verify": ["verify", "theorem1_perp", "--samples", "5"],
            "render": ["render", "crown", "--out", str(tmp_path / "f.svg")],
            "shapes": ["shapes"]}[command]
    scanned = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        scanned.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run_cli(capsys, *argv)[0] == 0
    assert scanned == [f"geodeform {command}"]


def test_run_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", str(tmp_path / "none.geo"))
    assert code == 2
    assert err.strip()


def test_run_failing_assert_exits_one(capsys, tmp_path):
    script = tmp_path / "fail.geo"
    script.write_text("point A = (0,0)\npoint B = (1,0)\npoint C = (0,1)\n"
                      "assert collinear(A, B, C)\n")
    code, out, _ = run_cli(capsys, "run", str(script))
    assert code == 1
    assert out.startswith("FAIL collinear(A,B,C)")
    # an angle that overflows poisons its point; a require over a
    # poisoned label fails every assert with that label's message
    head = "point A = (0, 0)\npoint B = (1, 0)\n"
    degenerate = ("O: degenerate triangle Point(x=0.0, y=0.0), "
                  "Point(x=1.0, y=0.0), Point(x=2.0, y=0.0)")
    for source, want in [
            ("point M = rotate(A, B, 1e308 * 10)\nassert collinear(A, B, M)\n",
             "FAIL collinear(A,B,M) residual=inf [M: non-finite angle inf]\n"),
            ("point C = (2, 0)\npoint D = (0, 1)\n"
             "point O = circumcenter(A, B, C)\nrequire inside(O, A, B, D)\n"
             "assert collinear(A, B, C)\nassert collinear(A, B, D)\n",
             f"FAIL collinear(A,B,C) residual=inf [{degenerate}]\n"
             f"FAIL collinear(A,B,D) residual=inf [{degenerate}]\n")]:
        script.write_text(head + source)
        assert run_cli(capsys, "run", str(script)) == (1, want, "")


def test_run_fails_an_assert_whose_detector_raises(capsys, tmp_path):
    """A detector that raises on the figure's points fails its assert with
    the error's message; the asserts after it are still judged."""
    script = tmp_path / "raising.geo"
    script.write_text("point A = (0, 0)\npoint B = (1, 0)\npoint C = (0, 1)\n"
                      "assert perpendicular(A, A, B, C)\n"
                      "assert concurrent(A, A, B, C, A, C)\n"
                      "assert on_conic(A, A, A, A, A, B)\n")
    coincident = ("line through coincident points Point(x=0.0, y=0.0) and "
                  "Point(x=0.0, y=0.0)")
    assert run_cli(capsys, "run", str(script)) == (1, (
        "FAIL perpendicular(A,A,B,C) residual=inf "
        "[perpendicularity of a zero-length segment]\n"
        f"FAIL concurrent(A,A,B,C,A,C) residual=inf [{coincident}]\n"
        "FAIL on_conic(A,A,A,A,A,B) residual=inf "
        "[conic fit to a coincident cluster]\n"), "")


def test_run_param_override(capsys):
    code, out, _ = run_cli(capsys, "run", str(SCRIPTS / "eps_demo.geo"),
                           "--param", "eps=0")
    assert code == 0
    assert "PASS" in out


def test_runs_of_one_file_in_one_process_lex_it_once(monkeypatch, capsys,
                                                    tmp_path):
    """`run` reads its file every time but parses each text once: a second
    run of the file with other params lexes nothing, and a rewritten file
    parses afresh."""
    lexed = []
    lex = script._lex
    monkeypatch.setattr(script, "_lex",
                        lambda source: lexed.append(source) or lex(source))
    path = tmp_path / "sweep.geo"
    # the path in a comment makes a text that no other test parsed
    text = (f"# {path}\nparam s = 1\npoint A = (0, 0)\npoint B = (s, 0)\n"
            "point C = (0, 1)\nassert collinear(A, C, B)\n")
    path.write_text(text)
    first = run_cli(capsys, "run", str(path), "--param", "s=2")
    second = run_cli(capsys, "run", str(path), "--param", "s=3")
    assert len(lexed) == 1
    assert first[0] == second[0] == 1
    assert first[1] != second[1]
    path.write_text(text.replace("collinear(A, C, B)",
                                 "perpendicular(A, B, A, C)"))
    third = run_cli(capsys, "run", str(path), "--param", "s=3")
    assert len(lexed) == 2
    assert third == (0, "PASS perpendicular(A,B,A,C) residual=0.00e+00\n",
                     "")


def test_run_rejects_unknown_param(capsys):
    code, _, err = run_cli(capsys, "run", str(SCRIPTS / "eps_demo.geo"),
                           "--param", "nope=1")
    assert code == 2
    assert "eps" in err  # offers the declared names


def test_run_rejects_malformed_param(capsys):
    code, _, err = run_cli(capsys, "run", str(SCRIPTS / "eps_demo.geo"),
                           "--param", "eps")
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400",
                                   "abc", "", "1,5", "0x1",
                                   # float() reads these as 1.0 and 0.3
                                   "0_1", "\u0660.\u0663"])
@pytest.mark.parametrize("command", [
    ["run", str(SCRIPTS / "eps_demo.geo")],
    ["render", str(SCRIPTS / "eps_demo.geo"), "--out"],
])
def test_non_finite_param_is_usage_error(capsys, tmp_path, command, value):
    """As with --eps and --tol: one error line and exit 2, not a failed
    assert over non-finite points; a value that is no number at all
    names the param the same way."""
    if command[-1] == "--out":
        command = command + [str(tmp_path / "figure.svg")]
    code, out, err = run_cli(capsys, *command, "--param", f"eps={value}")
    assert (code, out) == (2, "")
    assert not (tmp_path / "figure.svg").exists()
    assert err == f"error: --param eps wants a finite number, got {value!r}\n"


@pytest.mark.parametrize("command, message", [
    (["verify", "theorem1_perp", "--samples", "1_0"],
     "argument --samples: invalid int value: '1_0'"),
    (["verify", "theorem1_perp", "--samples", "\uff11\uff10"],
     "argument --samples: invalid int value: '\uff11\uff10'"),
    (["verify", "theorem1_perp", "--seed", "\u0667"],
     "argument --seed: invalid int value: '\u0667'"),
    (["verify", "theorem1_perp", "--seed", "1_000"],
     "argument --seed: invalid int value: '1_000'"),
    (["verify", "theorem1_perp", "--eps", "0_5"],
     "argument --eps: invalid float value: '0_5'"),
    (["verify", "theorem1_perp", "--eps", "\u0660.\u0665"],
     "argument --eps: invalid float value: '\u0660.\u0665'"),
    (["verify", "theorem1_perp", "--eps-grid", "0_001,0.01,0.1"],
     "argument --eps-grid: --eps-grid wants comma-separated numbers, got "
     "'0_001,0.01,0.1'"),
    (["verify", "theorem1_perp", "--eps-grid", "0.001,0.01,\u0660.1"],
     "argument --eps-grid: --eps-grid wants comma-separated numbers, got "
     "'0.001,0.01,\u0660.1'"),
    (["verify", "theorem1_perp", "--tol", "1_0"],
     "argument --tol: --tol wants a finite number > 0, got '1_0'"),
    (["run", str(SCRIPTS / "eps_demo.geo"), "--tol", "\u0661e-9"],
     "argument --tol: --tol wants a finite number > 0, got '\u0661e-9'"),
])
def test_numeric_flag_takes_ascii_digits_only(capsys, tmp_path, monkeypatch,
                                              command, message):
    """float() and int() read `_` between digits and any Unicode digit; a
    flag, like a `.geo` literal, does not: exit 2 naming the flag, and
    nothing written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(command + ["--json", "out.json", "--svg", "out.svg"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.splitlines()[-1].endswith(f": error: {message}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelled, plain", [
    (["--eps", ".5", "--samples", "+12", "--seed", " 3"],
     ["--eps", "0.5", "--samples", "12", "--seed", "3"]),
    (["--eps-grid", ".001,1e-2,+0.1", "--tol", "1E-9", "--samples", "12"],
     ["--eps-grid", "0.001,0.01,0.1", "--tol", "0.000000001",
      "--samples", "12"]),
])
def test_numeric_flag_ascii_spellings_still_read(capsys, spelled, plain):
    runs = [run_cli(capsys, "verify", "theorem1_perp", *argv)
            for argv in (spelled, plain)]
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_param_ascii_spellings_still_read(capsys):
    path = str(SCRIPTS / "eps_demo.geo")
    assert run_cli(capsys, "run", path, "--param", "eps=.25") == \
        run_cli(capsys, "run", path, "--param", "eps=+2.5e-1")
    assert run_cli(capsys, "run", path, "--param", "eps=-0.25")[0] == 0


@pytest.mark.parametrize("command", [
    ["run"],
    ["run", "--json", "report.json", "--svg", "figure.svg"],
    ["render", "--out", "figure.svg"],
])
def test_overflowing_number_literal_is_a_parse_error(capsys, tmp_path,
                                                     monkeypatch, command):
    """Every command stops at the literal with exit 2, writing nothing."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F.geo").write_text(
        "param x = 1e999\npoint A = (0, 0)\npoint B = (x, 0)\n"
        "segment A B\nassert collinear(A, B, B)\n")
    code, out, err = run_cli(capsys, command[0], "F.geo", *command[1:])
    assert (code, out) == (2, "")
    assert err == "F.geo:1:11: number 1e999 is out of range\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "F.geo"]


# a figure whose diameter overflows, and one whose pixel coordinates do
OVERFLOWING = ("point A = (-1.5e{e}, 0)\npoint B = (1.5e{e}, 0)\n"
               "point C = (0, 1e{e})\nsegment A B\n"
               "deform A B C about (-1.5e{e}, 0) (1.5e{e}, 0) (0, 1e{e})\n"
               "assert collinear(A, B, C)\n"
               "assert collinear(A, B, B, A) as flat \"AB is a line\"\n")


@pytest.mark.parametrize("command, e", [
    (["render", "{geo}", "--out", "{svg}"], 308),
    (["render", "{geo}", "--out", "{svg}"], 307),
    (["run", "{geo}", "--svg", "{svg}"], 308),
    (["run", "{geo}", "--svg", "{svg}"], 307),
    (["verify", "{geo}", "--samples", "2", "--svg", "{svg}"], 307),
    # at 1e308 epsilon times the diameter overflows: nothing is drawn
    (["verify", "{geo}", "--samples", "2", "--svg", "{svg}"], 308),
    (["verify", "{geo}", "--samples", "2", "--json", "{json}"], 308),
    # the figure fails after the report is made, and no report is written
    (["run", "{geo}", "--json", "{json}", "--svg", "{svg}"], 308),
    (["verify", "{geo}", "--samples", "2", "--json", "{json}", "--svg",
      "{svg}"], 307),
])
def test_a_figure_too_large_to_draw_is_usage_error(capsys, tmp_path, command,
                                                   e):
    """One error line, exit 2 and no file written: not a document of
    `inf`s, nor a report left behind by a command that failed."""
    geo, svg = tmp_path / "big.geo", tmp_path / "big.svg"
    report = tmp_path / "big.json"
    geo.write_text(OVERFLOWING.format(e=e), encoding="utf-8")
    code, _, err = run_cli(capsys, *(a.format(geo=geo, svg=svg, json=report)
                                     for a in command))
    assert code == 2
    if command[0] == "verify" and e == 308:
        assert err == "error: family 'big': the figure is too large to " \
                      "deform: epsilon=0.5 times its diameter is not finite\n"
    else:
        assert err == "error: the figure is too large to draw: its pixel " \
                      "frame is not finite\n"
    assert not svg.exists() and not report.exists()


def _strict_json(path):
    """The document, parsed as RFC 8259 JSON: no Infinity or NaN."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=refuse)


def test_run_writes_a_non_finite_residual_as_null(capsys, tmp_path):
    geo, out = tmp_path / "big.geo", tmp_path / "big.json"
    geo.write_text(OVERFLOWING.format(e=308), encoding="utf-8")
    code, _, _ = run_cli(capsys, "run", str(geo), "--json", str(out))
    assert code == 1
    residuals = [entry["residual"] for entry in _strict_json(out)["asserts"]]
    assert residuals == [None, None]


def test_verify_writes_non_finite_residuals_as_null(capsys, tmp_path):
    """Opposite sides of the unit square never meet: every residual is
    inf."""
    geo, out = tmp_path / "par.geo", tmp_path / "par.json"
    geo.write_text("point A = (0, 0)\npoint B = (1, 0)\npoint C = (1, 1)\n"
                   "point D = (0, 1)\n"
                   "deform A B C D about (0, 0) (1, 0) (1, 1) (0, 1)\n"
                   "assert concurrent(A, B, C, D, A, C) as par \"meet\"\n",
                   encoding="utf-8")
    code, _, _ = run_cli(capsys, "verify", str(geo), "--eps", "0",
                         "--samples", "2", "--json", str(out))
    assert code == 1
    claim, = _strict_json(out)["claims"]
    assert (claim["max_residual"], claim["mean_residual"],
            claim["median_residuals"]) == (None, None, [None])


def test_warning_prints_as_one_plain_line_on_every_call(capsys):
    """A straight angle warns on stderr as errors are reported, with no
    source path or line, and a second call in the same process warns
    again."""
    argv = ["run", str(SCRIPTS / "bisector.geo"), "--param", "cy=1e-300"]
    for _ in range(2):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err == ("warning: straight angle: bisector direction set "
                       "perpendicular to the rays\n")


def test_run_json_document(capsys, tmp_path):
    out_path = tmp_path / "run.json"
    code, _, _ = run_cli(capsys, "run", str(SCRIPTS / "bisector.geo"),
                         "--json", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["command"] == "run"
    assert doc["asserts"][0]["kind"] == "concyclic"
    assert doc["asserts"][0]["passed"] is True


def test_shapes_lists_all_kinds(capsys):
    code, out, _ = run_cli(capsys, "shapes")
    assert code == 0
    names = out.split()
    assert len(names) == 10
    assert names == sorted(names)
    assert "regular_hexagon" in names
    assert "crown" in names


def test_render_shape_to_file(capsys, tmp_path):
    out_path = tmp_path / "hex.svg"
    code, _, _ = run_cli(capsys, "render", "regular_hexagon",
                         "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count("<line ") == 12
    assert svg.count('class="point"') == 7


def test_render_shape_name_ignores_case(capsys, tmp_path):
    upper, lower = tmp_path / "upper.svg", tmp_path / "lower.svg"
    assert run_cli(capsys, "render", "REGULAR_HEXAGON", "--out", str(upper))[0] == 0
    assert run_cli(capsys, "render", "regular_hexagon", "--out", str(lower))[0] == 0
    assert upper.read_bytes() == lower.read_bytes()


def test_render_shape_runs_outside_the_checkout(tmp_path):
    """The base shapes are read from the package, not from the working
    directory."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "geodeform.cli", "render", "crown",
         "--out", "crown.svg"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "crown.svg").read_text().count('class="point"') == 6


def test_render_script_to_file(capsys, tmp_path):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run_cli(capsys, "render", str(SCRIPTS / "theorem1.geo"),
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("<?xml")
    # collinear labels have no circle to draw: only their point markers
    geo = tmp_path / "flat.geo"
    geo.write_text("point A = (0, 0)\npoint B = (1, 0)\npoint C = (2, 0)\n"
                   "circle A B C\n")
    assert run_cli(capsys, "render", str(geo), "--out", str(out_path))[0] == 0
    svg = out_path.read_text()
    assert svg.count("<circle ") == svg.count('<circle class="point"') == 3


def test_render_unknown_target(capsys, tmp_path):
    code, _, err = run_cli(capsys, "render", "not_a_shape_or_file",
                           "--out", str(tmp_path / "x.svg"))
    assert code == 2
    assert err.strip()


def test_verify_svg_side_output(capsys, tmp_path):
    out_path = tmp_path / "claim.svg"
    code, _, _ = run_cli(capsys, "verify", "bisector_concyclic",
                         "--samples", "5", "--seed", "2",
                         "--svg", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("<?xml")


def _toml_parser():
    """`tomllib` on Python 3.11+, `tomli` on 3.10 if present, else None."""
    try:
        import tomllib
    except ModuleNotFoundError:
        try:
            import tomli as tomllib
        except ModuleNotFoundError:
            return None
    return tomllib


def test_console_entry_point():
    """`pyproject.toml` declares the `geodeform` command the README documents,
    and an installed copy of the package, if any, agrees with it."""
    try:
        dist = metadata.distribution("geodeform")
    except metadata.PackageNotFoundError:
        dist = None
    installed = None
    if dist is not None:
        installed = [e.value for e in dist.entry_points
                     if e.group == "console_scripts" and e.name == "geodeform"]

    tomllib = _toml_parser()
    if tomllib is not None:
        with PYPROJECT.open("rb") as f:
            scripts = tomllib.load(f).get("project", {}).get("scripts", {})
        declared = scripts.get("geodeform")
    elif installed is not None:
        declared = installed[0] if installed else None
    else:
        pytest.importorskip("tomllib")

    assert declared == "geodeform.cli:main"
    ep = metadata.EntryPoint(name="geodeform", value=declared,
                             group="console_scripts")
    assert ep.load() is main
    if installed is not None:
        assert installed == [declared]


# ---------------------------------------------------------------------------
# the report writer

_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f'
                                          '\u00e9\u00df\u2028\ud800'
                                          '\U0001f600'),
                          st.characters()))
_LEAF = st.one_of(
    _TEXT, st.none(), st.booleans(), st.integers(),
    st.integers(-10**300, 10**300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1e-7, 1e16]))
_DOCUMENT = st.recursive(
    _LEAF, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                   st.lists(inner, max_size=4).map(tuple),
                                   st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_DOCUMENT)
def test_report_text_is_json_dumps_indent_2(document):
    assert cli._json_text(document) == json.dumps(
        document, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_report_text_refuses_a_non_finite_float_as_json_does(value):
    document = {"claims": [{"max_residual": 1.0}, {"max_residual": value}]}
    with pytest.raises(ValueError) as want:
        json.dumps(document, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._json_text(document)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("document", [{"a": [object()]}, {1: "x"}, {1.5}])
def test_report_text_refuses_what_it_has_no_form_for(document):
    with pytest.raises(TypeError):
        cli._json_text(document)


@pytest.mark.parametrize("argv", [
    ("run", "scripts/example3.geo", "--json", "{tmp}/run.json",
     "--svg", "{tmp}/run.svg"),
    ("verify", "theorem1_perp", "--samples", "20", "--json",
     "{tmp}/verify.json"),
])
def test_a_command_with_reports_leaves_no_cyclic_garbage(capsys, tmp_path,
                                                         argv):
    """After a first call, which loads modules and builds the parser, a
    call leaves nothing for the cycle collector."""
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
