"""The package attributes the benchmark (`bench/run.py`, `bench/spans.py`)
reads from outside the package.

The tracer skips an entry point it cannot find, so a renamed or removed
attribute would not fail the benchmark: its per-layer metric would read
0.  These tests fail instead.
"""

import dataclasses
import importlib
import pathlib

from geodeform.deform import RelationClaim

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# (module, attribute): each is looked up, and replaced by a wrapper, there
ENTRY_POINTS = [
    ("catalog", "claim_names"),
    ("cli", "main"),
    ("cli", "verify"),
    ("cli", "scaling_probe"),
    ("cli", "sample"),
    ("cli", "parse"),
    ("cli", "evaluate"),
    ("deform", "sample"),
    ("deform", "evaluate_relation"),
    ("script", "evaluate_relation"),
    ("script", "triangle_center"),
    ("render", "render_svg"),
]


def _module(name):
    return importlib.import_module(f"geodeform.{name}")


def test_point_constructor_is_python_code():
    """run.py counts Point constructions by the code object of its
    `__init__` under cProfile."""
    from geodeform.core import Point

    assert Point.__init__.__code__.co_filename


def test_claim_records_take_a_wrapped_family():
    """spans.py gives each claim a copy of its family with a wrapped
    builder, by `dataclasses.replace` on the claim and the family."""
    claims = _module("catalog").CLAIMS
    assert claims
    for name, named in claims.items():
        assert dataclasses.is_dataclass(named), name
        assert {"family", "claim"} <= {f.name for f in
                                       dataclasses.fields(named)}, name
        family = dataclasses.replace(named.family,
                                     builder=named.family.builder)
        assert dataclasses.replace(named, family=family).family is family


def test_entry_points_are_called_where_they_are_patched(monkeypatch,
                                                        tmp_path):
    calls = {}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for module, attr in ENTRY_POINTS:
        owner = _module(module)
        monkeypatch.setattr(owner, attr,
                            counted((module, attr), getattr(owner, attr)))
    monkeypatch.setattr(RelationClaim, "evaluate",
                        counted("RelationClaim.evaluate",
                                RelationClaim.evaluate))
    cli = _module("cli")
    cli.main(["verify", "example1_fermat_on_circle", "--samples", "3"])
    cli.main(["verify", "theorem1_perp", "--samples", "3",
              "--eps-grid", "0.01,0.1"])
    cli.main(["run", str(SCRIPTS / "example1.geo"), "--svg",
              str(tmp_path / "figure.svg")])
    _module("catalog").claim_names()
    expected = ENTRY_POINTS + ["RelationClaim.evaluate"]
    assert [key for key in expected if key not in calls] == []
