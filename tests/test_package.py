"""The package's import structure: each module imports on its own, the
package's exports resolve on first access to the objects their modules
define, and the claim catalog is built on first use."""

import os
import pathlib
import subprocess
import sys

import pytest

from geodeform import cli
from geodeform.catalog import CLAIMS, FAMILIES, claim_names

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geodeform"

# the names `import geodeform` offers, by the module that defines each
EXPORTS = {
    "catalog": ["CLAIMS", "FAMILIES", "NamedClaim", "claim_names",
                "program_claims"],
    "centers": ["CenterKind", "IllConditioned", "Orientation",
                "equilateral_apex", "right_isosceles_apex",
                "triangle_center"],
    "configurations": ["Configuration", "NonConvexQuadrilateral",
                       "PointOnVertex", "PointOutsideCircumcircle"],
    "core": ["FLOOR", "GUARD", "Circle", "CoincidentPoints",
             "CollinearPoints", "DegenerateAngleWarning", "GeometryError",
             "Line", "NonFiniteInput", "Parallel", "Point", "angle_bisector",
             "circumcircle", "dist", "intersect", "line_through", "midpoint",
             "reflect_line", "reflect_point", "rotate", "signed_area"],
    "deform": ["DeformationFamily", "RejectionBudgetExhausted",
               "RelationClaim", "SplitMix64", "VerificationReport",
               "fit_scaling_exponent", "sample", "scaling_probe", "verify"],
    "relations": ["REL_TOL", "DegeneratePosition", "RelationVerdict",
                  "TooFewPoints", "evaluate_relation"],
    "render": ["render", "render_svg"],
    "script": ["ArityError", "ParseError", "Program", "UnknownParam",
               "UseBeforeDefine", "deformation_family", "evaluate", "parse",
               "second_intersection"],
}


def _python(code: str, *argv: str) -> str:
    """Standard output of `code` run by a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem != "__init__"))
def test_each_module_imports_alone(module):
    """A module imported first, in a fresh interpreter, finds everything
    it imports: an import cycle between modules fails here."""
    _python(f"import geodeform.{module}")


def test_exports_are_their_modules_objects(tmp_path):
    """After a `run` has imported what it needs, each export of the package
    is the object its module defines; `geodeform.render` is the function,
    not the module of the same name."""
    code = (
        "import importlib, inspect, sys\n"
        "import geodeform, geodeform.cli\n"
        "assert geodeform.cli.main(sys.argv[1:]) == 0\n"
        f"exports = {EXPORTS!r}\n"
        "for module, names in exports.items():\n"
        "    home = importlib.import_module('geodeform.' + module)\n"
        "    for name in names:\n"
        "        assert getattr(geodeform, name) is getattr(home, name), name\n"
        "assert inspect.isfunction(geodeform.render)\n"
        "star = {}\n"
        "exec('from geodeform import *', star)\n"
        "missing = {n for ns in exports.values() for n in ns} - set(star)\n"
        "assert not missing, missing\n"
        "print('ok')\n")
    out = _python(code, "run", "scripts/theorem1.geo",
                  "--svg", str(tmp_path / "figure.svg"))
    assert out.splitlines()[-1] == "ok"


def test_claim_names_are_the_catalog_order():
    assert claim_names() == list(CLAIMS)
    assert list(FAMILIES) == list(dict.fromkeys(
        CLAIMS[name].family.name for name in claim_names()))


def test_claim_names_build_no_family():
    code = ("import sys\n"
            "from geodeform.catalog import claim_names\n"
            "print(len(claim_names()), 'geodeform.deform' in sys.modules)\n")
    assert _python(code) == f"{len(CLAIMS)} False\n"


def test_traced_claims_are_the_ones_verify_reads(monkeypatch, capsys):
    """The benchmark's tracer swaps each `CLAIMS` entry in place for one
    with a wrapped builder and puts it back after: `verify` reads the
    swapped entry."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from spans import Tracer

    before = dict(CLAIMS)
    tracer = Tracer()
    with tracer.installed():
        assert all(CLAIMS[name] is not before[name] for name in before)
        assert cli.main(["verify", "theorem1_perp", "--samples", "3"]) == 0
    capsys.readouterr()
    assert all(CLAIMS[name] is before[name] for name in before)
    assert ("configurations.build", "theorem1", "ok") in tracer.table
