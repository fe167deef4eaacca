"""The output ledger: what a fixed set of `geodeform` invocations prints,
writes and exits with, recorded in `tests/golden/ledger.json`.

Each entry of `INVOCATIONS` is run in-process by `cli.main`, from the
repository root, with any input files it names written to a fresh
directory, `$TMP` in its arguments.  Its record is the exit code, the
standard output and error, the `--json` report written to
`$TMP/report.json` and the SVG written to `$TMP/figure.svg` (None where
the invocation wrote none).  The directory's path reads `$TMP` in every
record, and the report's `wall_time_s` values read null.  Texts are kept
as lists of lines, so a changed output shows as changed lines in a diff.

`tests/test_ledger.py` runs every entry and compares it with its record.
Rewrite the ledger after an intended output change with

    PYTHONPATH=src python tests/ledger.py

It names on standard error each entry it added, removed or changed.  Read
the diff of those: every changed line is a changed output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import platform
import re
import sys
import tempfile
from unittest import mock

from test_batch import ALL_KINDS_PROGRAM

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "golden" / "ledger.json"
SHAPES = sorted(p.stem for p in (ROOT / "src" / "geodeform" / "shapes")
                .glob("*.geo"))
SCRIPTS = sorted(p.stem for p in (ROOT / "scripts").glob("*.geo"))

REPORT, FIGURE = "$TMP/report.json", "$TMP/figure.svg"

# no params, and a description with a backslash, a tab and non-ASCII
# letters: the reports' string escapes and `"params": {}`
ESCAPES_PROGRAM = """\
point A = (0, 0)
point B = (4, 0.3)
point C = (1.2, 3.1)
deform A B C about (0, 0) (1, 0) (0.5, 0.8660254037844386)
point G = centroid(A, B, C)
point M = midpoint(B, C)
assert collinear(A, G, M) as median "Schwerpunkt\tauf der \\ Seitenhalbierenden: Größe égale"
"""

# (name, argv, {input file name: its text})
INVOCATIONS: list[tuple[str, list[str], dict[str, str]]] = [
    *((f"verify_all_seed_{seed}",
       ["verify", "all", "--seed", seed, "--json", REPORT, "--svg", FIGURE],
       {}) for seed in ("7", "1101", "12345", "769288840")),
    ("verify_all_eps_grid",
     ["verify", "all", "--eps-grid", "0.001,0.01,0.1", "--samples", "300",
      "--json", REPORT], {}),
    ("verify_all_5000_samples",
     ["verify", "all", "--samples", "5000", "--seed", "3", "--json", REPORT],
     {}),
    ("verify_all_eps_0",
     ["verify", "all", "--eps", "0", "--samples", "5", "--json", REPORT], {}),
    ("verify_all_eps_1e-7",
     ["verify", "all", "--eps", "1e-7", "--json", REPORT], {}),
    ("verify_all_eps_grid_1e-7",
     ["verify", "all", "--eps-grid", "1e-7,1e-6,1e-5", "--samples", "20",
      "--json", REPORT], {}),
    ("verify_theorem1_perp_eps_0",
     ["verify", "theorem1_perp", "--eps", "0", "--samples", "2",
      "--json", REPORT], {}),
    ("verify_theorem1_perp_huge_grid",
     ["verify", "theorem1_perp", "--eps-grid", "1e-3,1e-2,1.5e308",
      "--json", REPORT], {}),
    ("verify_theorem1_perp_huge_tol",
     ["verify", "theorem1_perp", "--samples", "3", "--tol", "1e308",
      "--json", REPORT], {}),
    *((f"run_{name}",
       ["run", f"scripts/{name}.geo", "--json", REPORT, "--svg", FIGURE], {})
      for name in SCRIPTS),
    *((f"render_{name}", ["render", name, "--out", FIGURE], {})
      for name in SHAPES),
    ("render_script", ["render", "scripts/example3.geo", "--out", FIGURE],
     {}),
    ("run_all_kinds",
     ["run", "$TMP/all_kinds.geo", "--json", REPORT, "--svg", FIGURE],
     {"all_kinds.geo": ALL_KINDS_PROGRAM}),
    ("verify_all_kinds",
     ["verify", "$TMP/all_kinds.geo", "--json", REPORT, "--svg", FIGURE],
     {"all_kinds.geo": ALL_KINDS_PROGRAM}),
    ("verify_escapes",
     ["verify", "$TMP/escapes.geo", "--samples", "20", "--json", REPORT],
     {"escapes.geo": ESCAPES_PROGRAM}),
    ("run_escapes",
     ["run", "$TMP/escapes.geo", "--json", REPORT, "--svg", FIGURE],
     {"escapes.geo": ESCAPES_PROGRAM}),
    ("run_byte_order_mark",
     ["run", "$TMP/marked.geo", "--json", REPORT, "--svg", FIGURE],
     {"marked.geo": "\ufeff" + ESCAPES_PROGRAM}),
    ("shapes", ["shapes"], {}),
    ("verify_unknown_claim", ["verify", "nosuch"], {}),
    ("verify_empty_eps_grid", ["verify", "all", "--eps-grid", ","], {}),
    ("run_parse_error", ["run", "$TMP/broken.geo"],
     {"broken.geo": "point A = (0, 0)\npoint B = midpoint(A)\n"}),
    ("verify_deleted_kind",
     ["verify", "$TMP/perspective.geo"],
     {"perspective.geo": "point A = (0, 0)\npoint B = (1, 0)\n"
                         "point C = (0, 1)\n"
                         "deform A B C about (0, 0) (1, 0) (0, 1)\n"
                         "assert perspective(A, B, C, A, B, C) as p \"x\"\n"}),
    ("verify_coincident_base",
     ["verify", "$TMP/coincident.geo", "--json", REPORT],
     {"coincident.geo": "point A = (0, 0)\npoint C = (1, 0)\n"
                        "point D = (0, 1)\n"
                        "deform A about (0.2, 0.3)\n"
                        "assert collinear(A, C, D) as bogus \"x\"\n"}),
    # argument parsing: help, usage errors, and the spellings argparse
    # accepts for a valid invocation
    ("no_arguments", [], {}),
    ("help", ["-h"], {}),
    *((f"{command}_help", [command, "-h"], {})
      for command in ("run", "verify", "render")),
    ("unknown_command", ["nosuch"], {}),
    ("shapes_extra_argument", ["shapes", "extra"], {}),
    ("run_extra_argument", ["run", "scripts/eps_demo.geo", "extra"], {}),
    ("run_param_without_value", ["run", "scripts/eps_demo.geo", "--param"],
     {}),
    ("run_without_path", ["run"], {}),
    ("run_after_double_dash", ["run", "--", "scripts/eps_demo.geo"], {}),
    ("verify_abbreviated_flag", ["verify", "theorem1_perp", "--sam", "3"],
     {}),
    ("run_equals_forms",
     ["run", "scripts/eps_demo.geo", "--param=eps=0.3", "--tol=1e-3"], {}),
]

_WALL_TIME = re.compile(r'("wall_time_s": )[^,\n}]+')


def _lines(text: str | None) -> list[str] | None:
    return None if text is None else text.split("\n")


def run(argv: list[str], files: dict[str, str]) -> dict:
    """The record of one invocation (see the module docstring)."""
    from geodeform.cli import main

    # argparse wraps its usage text to the terminal's width: fix it
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, COLUMNS="80"):
        for name, text in files.items():
            pathlib.Path(tmp, name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(ROOT)  # contextlib.chdir needs Python 3.11
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([a.replace("$TMP", tmp) for a in argv])
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
        finally:
            os.chdir(cwd)

        def written(path: str) -> str | None:
            path = pathlib.Path(path.replace("$TMP", tmp))
            return path.read_text(encoding="utf-8") if path.exists() else None

        report = written(REPORT)
        texts = [out.getvalue(), err.getvalue(),
                 report and _WALL_TIME.sub(r"\1null", report)]
        texts = [t and t.replace(tmp, "$TMP") for t in texts]
        return {"exit": code, "stdout": _lines(texts[0]),
                "stderr": _lines(texts[1]), "report": _lines(texts[2]),
                "svg": _lines(written(FIGURE))}


def versions() -> dict[str, str]:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def main(ledger: pathlib.Path = LEDGER) -> None:
    """Write the record of every invocation to `ledger`, and name on
    standard error each entry whose record it added, removed or changed."""
    old = ({e["name"]: e for e in
            json.loads(ledger.read_text(encoding="utf-8"))["entries"]}
           if ledger.exists() else {})
    entries = [{"name": name, "argv": argv, "files": files, **run(argv, files)}
               for name, argv, files in INVOCATIONS]
    text = json.dumps({**versions(), "entries": entries}, indent=1,
                      ensure_ascii=False)
    ledger.write_text(text + "\n", encoding="utf-8")
    new = {e["name"]: e for e in entries}
    for name in [*old, *(name for name in new if name not in old)]:
        if name not in new:
            print(f"removed {name}", file=sys.stderr)
        elif name not in old:
            print(f"added {name}", file=sys.stderr)
        elif new[name] != old[name]:
            print(f"changed {name}", file=sys.stderr)
    print(f"wrote {len(entries)} entries to {os.path.relpath(ledger, ROOT)}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
