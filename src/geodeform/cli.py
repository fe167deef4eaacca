"""Command-line front end.

Four subcommands:

    geodeform verify <claim|program.geo ...|all>
                                       judge claims over deformations
    geodeform run <script.geo>         evaluate a script's assertions
    geodeform shapes                   list the shipped base shapes
    geodeform render <shape|script>    write an SVG figure

`verify` judges built-in claims by name, or the named asserts of a `.geo`
program with a `deform` statement, loaded as the built-in families are.
The base shapes are `.geo` programs shipped in `geodeform/shapes`, so
`render` draws a shape and a script the same way.  Human-readable results
go to standard output, diagnostics to standard error, machine-readable
reports only where --json is given; a warning prints as `warning: ...`,
without the source line that raised it.  Exit code 0 means every selected
claim or assertion held, 1 means at least one did not, 2 means the
invocation itself was unusable (bad flags, unknown claim, unreadable or
malformed script, a verified program without `deform` or named assert,
an epsilon a selected family does not admit, unwritable output, no valid
deformation within the rejection budget).  A valid invocation's arguments
are parsed once, by its subcommand's parser; the top-level parser only
prints help or a usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
import warnings
from importlib.resources import files
from pathlib import PurePath
from typing import TYPE_CHECKING, Callable

from . import __version__
from .core import FLOOR, GeometryError
from .relations import REL_TOL
from .render import render
from .script import ParseError, UnknownParam, evaluate, parse

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

    from .catalog import NamedClaim
    from .deform import VerificationReport

__all__ = ["main"]

# What `verify` calls of the row sampler, bound on first use (by
# `_load_verifier`, or by `__getattr__` for a caller that looks one up
# here): `run`, `render` and `shapes` never load `deform`.
_VERIFIER = ("sample", "scaling_probe", "sharing", "verify")


def _load_verifier() -> None:
    from . import deform

    for name in _VERIFIER:  # a name already bound here, even replaced, stays
        globals().setdefault(name, getattr(deform, name))


def __getattr__(name: str):
    if name not in _VERIFIER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_verifier()
    return globals()[name]


def _tool_tag() -> str:
    return f"geodeform {__version__}"


# json's C string encoder, bound on first use: `render` and `shapes`
# never load json
_quote: Callable[[str], str] | None = None


def _json_text(document: dict) -> str:
    """The report as `json.dumps(document, indent=2, allow_nan=False)`
    writes it, and a newline; ValueError when a number in it is not finite
    (JSON has no Infinity or NaN), TypeError for a value JSON has no form
    for or a key that is not a str.  (json's own indenting encoder is pure
    Python, and leaves a reference cycle behind each call.)"""
    global _quote
    if _quote is None:
        import json.encoder

        _quote = json.encoder.encode_basestring_ascii
    out: list[str] = []
    _put_json(document, out, "\n")
    out.append("\n")
    return "".join(out)


def _put_json(value, out: list[str], newline: str) -> None:
    """Append `value` to `out`, its lines after the first starting with
    `newline` (a line break and the indent of `value`)."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON "
                             "compliant: " + repr(value))
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _put_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():  # a key that is not a str: TypeError
            out.append(sep + _quote(key) + ": ")
            _put_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8, its line ends as they are; text
    that does not encode leaves no file behind."""
    data = text.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)


def _finite(value: float | None) -> float | None:
    """The value, or None (JSON null) where it is not finite."""
    return value if value is None or math.isfinite(value) else None


def _ascii(kind: type) -> Callable[[str], float]:
    """`kind` on ASCII text alone, the reader of every numeric flag: float()
    and int() also read `_` and any Unicode digit, and a `.geo` does not."""
    def read(text: str) -> float:
        if "_" in text or not text.isascii():
            raise ValueError(f"not an ASCII number: {text!r}")
        return kind(text)
    read.__name__ = kind.__name__  # argparse says "invalid int value: ..."
    return read


def _parse_tol(text: str) -> float:
    try:
        value = _ascii(float)(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"--tol wants a finite number > 0, got {text!r}")
    return value


def _parse_eps_grid(text: str) -> list[float]:
    try:
        values = [_ascii(float)(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--eps-grid wants comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("--eps-grid is empty")
    return values


# ---------------------------------------------------------------------------
# verify

def _report_entry(named: NamedClaim, report: VerificationReport,
                  wall_time: float, convention: str | None) -> dict:
    entry = {
        "name": named.name,
        "family": report.family,
        "kind": report.kind,
        "labels": list(named.claim.labels),
        "description": named.claim.description,
        "verdict": report.verdict,
        "max_residual": _finite(report.max_residual),
        "mean_residual": _finite(report.mean_residual),
        "median_residuals": [_finite(m) for m in report.median_residuals],
        "epsilons": list(report.epsilons),
        "samples": report.samples,
        "seed": report.seed,
        "rel_tol": report.rel_tol,
        "refute_tol": _finite(report.refute_tol),
        "scaling_exponent": _finite(report.scaling_exponent),
        "exponent_note": report.exponent_note,
        "flags": list(report.flags),
        "convention": convention,
        "wall_time_s": round(wall_time, 6),
    }
    return entry


def _selected_claims(names: list[str]) -> list[NamedClaim] | None:
    """The claims `verify` was asked for, in order: built-in claims by
    name (`all` for every one, in its place) and the named asserts of
    `.geo` programs.  None after reporting on stderr why the invocation is
    unusable."""
    from .catalog import CLAIMS, claim_names, program_claims

    names = [n for name in names
             for n in (CLAIMS if name == "all" else [name])]
    unknown = [n for n in names if n not in CLAIMS and not n.endswith(".geo")]
    if unknown:
        print(f"unknown claim(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"valid claims: all, {', '.join(claim_names())}, or a "
              f"PROGRAM.geo", file=sys.stderr)
        return None
    selected = []
    for name in names:
        if name in CLAIMS:
            selected.append(CLAIMS[name])
            continue
        program = _read_program(name)
        if program is None:
            return None
        try:
            claims = program_claims(program, PurePath(name).stem)
        except ValueError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return None
        selected.extend(claims.values())
    return selected


def cmd_verify(args: argparse.Namespace) -> int:
    _load_verifier()
    selected = _selected_claims(args.claims)
    if selected is None:
        return 2
    grid = args.eps_grid
    entries = []
    all_theorem = True
    # The claims of one family are judged on shared draws: the first claim
    # met of a family sweeps it for all its selected claims, each keeping
    # the report and the time of that sweep.  Families that deform the
    # same figure share its draws and first screened round (`sharing`)
    # until the sweeps end.
    judged: dict[NamedClaim, tuple[VerificationReport, float]] = {}
    try:
        # unusable before any verdict: an epsilon a family has no radius for
        for family in dict.fromkeys(named.family for named in selected):
            for epsilon in grid or [args.eps]:
                family.radius(epsilon)
        with sharing():
            for named in selected:
                if named not in judged:
                    family = named.family
                    claims = list(dict.fromkeys(
                        c for c in selected if c.family == family))
                    start = time.perf_counter()
                    relations = [c.claim for c in claims]
                    if grid is not None:
                        reports = scaling_probe(family, relations, grid,
                                                args.samples, args.seed,
                                                args.tol)
                    else:
                        reports = verify(family, relations, args.samples,
                                         args.eps, args.seed, args.tol)
                    elapsed = time.perf_counter() - start
                    judged.update((c, (report, elapsed))
                                  for c, report in zip(claims, reports))
                report, wall = judged[named]
                convention = None
                if named.annotate is not None:
                    start = time.perf_counter()
                    probe_eps = grid[-1] if grid is not None else args.eps
                    notes = named.annotate(
                        sample(named.family, probe_eps, args.seed))
                    convention = notes.get("convention")
                    wall += time.perf_counter() - start
                entries.append(_report_entry(named, report, wall, convention))
                all_theorem = all_theorem and report.verdict == "theorem"
                line = (f"{named.name}: {report.verdict}"
                        f" max_residual={report.max_residual:.3e}"
                        f" mean_residual={report.mean_residual:.3e}")
                if report.scaling_exponent is not None and grid is not None:
                    line += f" exponent={report.scaling_exponent}"
                if convention:
                    line += f" [{convention}]"
                print(line)

        report = _json_text({
            "tool": _tool_tag(),
            "command": "verify",
            "claims_requested": args.claims,
            "samples": args.samples,
            "seed": args.seed,
            "tolerance": {"rel_tol": args.tol, "abs_floor": FLOOR},
            "epsilon": args.eps if grid is None else None,
            "epsilon_grid": grid,
            "claims": entries,
        }) if args.json else None
        # the figure is drawn, and written, before the report is: a figure
        # that cannot be drawn leaves neither file behind
        if args.svg:
            eps = grid[-1] if grid is not None else args.eps
            render(sample(selected[0].family, eps, args.seed), args.svg)
        if report is not None:
            _write_text(args.json, report)
    except (ValueError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all_theorem else 1


# ---------------------------------------------------------------------------
# run

def _parse_overrides(pairs: list[str]) -> dict[str, float]:
    overrides: dict[str, float] = {}
    read = _ascii(float)
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"--param wants name=value, got {pair!r}")
        try:
            number = read(value)
        except ValueError:
            number = math.nan  # reported as not finite, below
        if not math.isfinite(number):
            raise ValueError(f"--param {name} wants a finite number, "
                             f"got {value!r}")
        overrides[name] = number
    return overrides


def _read_program(path: str | Traversable, hint: str | None = None):
    """Read and parse a script, a file name or a shipped program; or
    return None after reporting on stderr why that failed (exit 2)."""
    try:
        handle = (open(path, "r", encoding="utf-8") if isinstance(path, str)
                  else path.open("r", encoding="utf-8"))
        with handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if hint:
            print(hint, file=sys.stderr)
        return None
    except UnicodeDecodeError:
        print(f"error: {path}: the file is not UTF-8 text", file=sys.stderr)
        return None
    try:  # a byte-order mark, as Windows Notepad writes, is not source
        return parse(source.removeprefix("\ufeff"))
    except ParseError as exc:
        print(f"{path}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return None


def _evaluate_script(path: str | Traversable, pairs: list[str],
                     hint: str | None = None):
    """Read, parse and evaluate a script, a file name or a shipped program,
    with its --param overrides.

    Returns (program, configuration, verdicts, evaluation seconds), or None
    after reporting on stderr why the invocation is unusable (exit 2).
    """
    program = _read_program(path, hint)
    if program is None:
        return None
    try:
        overrides = _parse_overrides(pairs)
        start = time.perf_counter()
        config, verdicts = evaluate(program, overrides)
    except (UnknownParam, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return program, config, verdicts, time.perf_counter() - start


def cmd_run(args: argparse.Namespace) -> int:
    loaded = _evaluate_script(args.path, args.param)
    if loaded is None:
        return 2
    program, config, verdicts, wall = loaded

    entries = []
    all_passed = True
    for stmt, verdict in zip(program.asserts(), verdicts):
        passed = verdict.residual <= args.tol
        status = "PASS" if passed else "FAIL"
        all_passed = all_passed and passed
        labels = ",".join(stmt.labels)
        line = f"{status} {verdict.kind}({labels}) residual={verdict.residual:.2e}"
        if verdict.error:
            line += f" [{verdict.error}]"
        print(line)
        entries.append({
            "kind": verdict.kind,
            "labels": list(stmt.labels),
            "passed": passed,
            "residual": _finite(verdict.residual),
            "flags": list(verdict.flags),
            "error": verdict.error,
        })

    try:
        report = _json_text({
            "tool": _tool_tag(),
            "command": "run",
            "path": args.path,
            "params": {k: v for k, v in sorted(config.params.items())},
            "tolerance": {"rel_tol": args.tol, "abs_floor": FLOOR},
            "asserts": entries,
            "wall_time_s": round(wall, 6),
        }) if args.json else None
        # as in verify: the figure first, so one too large to draw leaves
        # no report behind
        if args.svg:
            render(config, args.svg)
        if report is not None:
            _write_text(args.json, report)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# shapes and render

def _shapes() -> dict[str, Traversable]:
    """The shipped base-shape programs by name, sorted by name."""
    programs = (files("geodeform") / "shapes").iterdir()
    return {entry.name.removesuffix(".geo"): entry
            for entry in sorted(programs, key=lambda e: e.name)
            if entry.name.endswith(".geo")}


def cmd_shapes(_args: argparse.Namespace) -> int:
    for name in _shapes():
        print(name)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    source = _shapes().get(args.source.lower(), args.source)
    loaded = _evaluate_script(
        source, args.param,
        "(give a shape name from `geodeform shapes` or a .geo file)")
    if loaded is None:
        return 2
    try:
        render(loaded[1], args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The CLI's parser and its subcommands' parsers by name, built once
    per process: parsing keeps no state in them, so every `main` of a
    process shares them.  A valid invocation is parsed once, by its
    subcommand's parser (`_parse_args`)."""
    parser = argparse.ArgumentParser(
        prog="geodeform",
        description="Verify geometric coincidences under random deformation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="judge claims over sampled deformations")
    p_verify.add_argument("claims", nargs="+", metavar="CLAIM|PROGRAM.geo",
                          help="built-in claim names, 'all', or .geo programs "
                               "whose named asserts to judge")
    p_verify.add_argument("--samples", type=_ascii(int), default=1000)
    p_verify.add_argument("--seed", type=_ascii(int), default=0)
    p_verify.add_argument("--eps", type=_ascii(float), default=0.5,
                          help="deformation magnitude relative to base size")
    p_verify.add_argument("--eps-grid", type=_parse_eps_grid, default=None,
                          metavar="A,B,C",
                          help="epsilon grid; runs the scaling probe instead")
    p_verify.add_argument("--tol", type=_parse_tol, default=REL_TOL,
                          help="relative tolerance for the theorem verdict")
    p_verify.add_argument("--json", metavar="PATH",
                          help="write the machine-readable report here")
    p_verify.add_argument("--svg", metavar="PATH",
                          help="render one sampled configuration here")
    p_verify.set_defaults(func=cmd_verify)

    p_run = sub.add_parser("run", help="evaluate a .geo script")
    p_run.add_argument("path", metavar="SCRIPT.geo")
    p_run.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE", help="override a script param")
    p_run.add_argument("--tol", type=_parse_tol, default=REL_TOL)
    p_run.add_argument("--json", metavar="PATH")
    p_run.add_argument("--svg", metavar="PATH")
    p_run.set_defaults(func=cmd_run)

    p_shapes = sub.add_parser("shapes", help="list decorated base shapes")
    p_shapes.set_defaults(func=cmd_shapes)

    p_render = sub.add_parser("render", help="write an SVG figure")
    p_render.add_argument("source", metavar="SHAPE|SCRIPT.geo")
    p_render.add_argument("--out", required=True, metavar="PATH")
    p_render.add_argument("--param", action="append", default=[],
                          metavar="NAME=VALUE")
    p_render.set_defaults(func=cmd_render)
    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`argv` parsed as the top-level parser's `parse_args` parses it, but
    for the `command` it leaves out.  An argv that starts with a
    subcommand goes straight to that subcommand's parser, as the
    subparsers action would hand it on, and is scanned once; any other
    argv is help or a usage error, which the top-level parser gives."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


_NEGATIVE_NUMBER = re.compile(r"-(?:[0-9.]|inf|nan)", re.I).match


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with "-" and is not a plain
    # negative integer, such as "-1e-3" or "-inf,0.1", as an option: glue
    # it to its flag ("--eps=-1e-3") so that it reaches the flag's checks
    end = argv.index("--") if "--" in argv else len(argv)
    for i in reversed(range(1, end)):
        if (argv[i - 1].startswith("--") and "=" not in argv[i - 1]
                and _NEGATIVE_NUMBER(argv[i])):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _parse_args(argv)
    # a warning prints as an error does, the same line wherever the package
    # is; the filters stay, so `-W error` still raises, and entering the
    # block lets every call show its warnings again
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
