"""geodeform benchmark: end-to-end timings and per-layer costs.

    python3 bench/run.py --workload verify_all --seed 0 --seconds 25 --trace 0

Drives the public CLI in-process (`geodeform.cli.main`) from one process
with no extra threads, on the package under `src/` and the scripts under
`scripts/` of the checkout this file sits in.  A warm-up pass comes first
and is the reference that every later pass must reproduce.  Passes then
repeat until `--seconds` have gone by.  The last line on standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  End-to-end times are corrected for the host's speed, which
hostref.py gauges next to the timed work.  See bench/README.md for what
each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from collections import Counter
from pathlib import Path

import hostref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
WORK = OUT / "work"
_clock = time.perf_counter

# Chosen so that a pass takes a few seconds on a 2-core host (host-speed
# corrected medians: verify_all 2.5 s, eps_grid 2.2 s, script_sweep 3.9 s),
# which leaves room for several timed passes in a run.
VERIFY_ARGS = ("--eps", "0.5", "--samples", "1000")
VERIFY_SAMPLES = 1000
GRID_ARGS = ("--eps-grid", "0.001,0.01,0.1", "--samples", "300")
GRID_SAMPLES = 3 * 300
SWEEP_CONFIGS = 200  # nudged configurations per script per pass
# Largest nudge of a script param.  The coordinate figures are several
# units across, so 0.1 keeps each one inside the region where its asserts
# hold (convex quadrilaterals, the cevian point inside the circumcircle).
# eps_demo's one param, eps = 0.25, stays in [0.15, 0.35], where its
# concyclic assert holds.
NUDGE = 0.1
SETUP_REPEATS = 10
# script_sweep gauges the host's speed every PROBE_EVERY ops (about 0.1 s)
# with a short reference of PROBE_LOOPS rounds, since the speed can change
# within a pass.
PROBE_EVERY = 30
PROBE_LOOPS = 3000
MIN_PASSES = 3

WORKLOADS = {
    "verify_all": "the CLI default, every built-in claim at eps 0.5 and "
                  "1000 samples; builders and the rejection path dominate",
    "eps_grid": "the scaling probe at eps 0.001, 0.01, 0.1: the same "
                "builders on near-degenerate figures, no rejections",
    "script_sweep": "one `run` per nudged configuration of each shipped "
                    ".geo script: parser, evaluator and renderer, no "
                    "deform code",
}

FAMILIES = ("theorem1", "bisector", "example1", "example2", "example3")
REJECTION_CAUSES = (("theorem1", "NonConvexQuadrilateral"),
                    ("bisector", "NonConvexQuadrilateral"),
                    ("example3", "PointOutsideCircumcircle"))
CENTERS = ("X2", "X5", "X13", "X14")
RELATION_KINDS = ("perpendicular", "equal_length", "concyclic")
SCRIPTS = ("bisector", "eps_demo", "example1", "example2", "example3",
           "theorem1")

END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    us, per_sample = "us", "count/sample"
    rows = []
    for family in FAMILIES:
        rows += [(f"deform.draw_us.{family}", us, "lower"),
                 (f"deform.attempts_per_sample.{family}", per_sample, "lower"),
                 (f"deform.py_calls_per_sample.{family}", per_sample, "lower"),
                 (f"configurations.build_us.{family}", us, "lower"),
                 (f"configurations.reject_us.{family}", us, "lower"),
                 (f"core.points_per_sample.{family}", per_sample, "lower")]
    rows += [(f"deform.rejections.{family}.{cause}", "count", "lower")
             for family, cause in REJECTION_CAUSES]
    rows += [(f"deform.rejections.{family}.other", "count", "lower")
             for family in FAMILIES]
    rows.append(("deform.aggregate_us", us, "lower"))
    rows += [(f"centers.center_us.{kind}", us, "lower") for kind in CENTERS]
    rows += [(f"relations.check_us.{kind}", us, "lower")
             for kind in RELATION_KINDS]
    for name in SCRIPTS:
        rows += [(f"script.parse_us.{name}", us, "lower"),
                 (f"script.eval_us.{name}", us, "lower")]
    rows += [("render.svg_us", us, "lower"),
             ("cli.overhead_us", us, "lower"),
             ("src_lines", "lines", "lower"),
             ("trace.overhead_frac", "ratio", "lower")]
    return rows


# ---------------------------------------------------------------------------
# calling the CLI


class _StampedOut(io.StringIO):
    """Captured stdout that notes when each line ends."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        written = super().write(text)
        if "\n" in text:
            now = _clock()
            self.stamps.extend([now] * text.count("\n"))
        return written


class Call:
    def __init__(self, rc, start, wall, out: _StampedOut, err: str):
        self.rc, self.start, self.wall = rc, start, wall
        self.stdout, self.stamps, self.stderr = out.getvalue(), out.stamps, err


def invoke(main, argv: list[str], tracer=None, profiler=None) -> Call:
    out, err = _StampedOut(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if profiler is not None:
            profiler.enable()
        start = _clock()
        try:
            if tracer is not None:
                rc = tracer.call("cli.main", None, main, (argv,), {})
            else:
                rc = main(argv)
        except SystemExit as exc:  # argparse rejects the invocation
            rc = exc.code
        except Exception:  # a crash is a failed op, not a dead benchmark
            rc = None
            err.write(traceback.format_exc())
        wall = _clock() - start
        if profiler is not None:
            profiler.disable()
    return Call(rc, start, wall, out, err.getvalue())


@contextlib.contextmanager
def _one_shot_mark(module, attr: str, marks: list):
    """Append the time of the first call to module.attr to `marks`.  The
    marker puts the original back at that call, so later calls pay
    nothing."""
    original = getattr(module, attr)

    def first(*args, **kwargs):
        setattr(module, attr, original)
        marks.append(_clock())
        return original(*args, **kwargs)

    setattr(module, attr, first)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _scrub(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k != "wall_time_s"}


class Pass:
    def __init__(self, wall: float, ops: int) -> None:
        self.wall, self.ops, self.failed = wall, ops, 0
        self.latencies_ms: list[float] = []  # script_sweep: one per op
        self.claim_ms: dict[str, float] = {}  # verify: per judged sample
        self.errors: list[str] = []


# ---------------------------------------------------------------------------
# workloads


class VerifyWorkload:
    """`verify all`; one op is one judged deformed sample."""

    def __init__(self, name: str, seed: int) -> None:
        from geodeform.catalog import CLAIMS, claim_names

        self.grid = name == "eps_grid"
        self.args = GRID_ARGS if self.grid else VERIFY_ARGS
        self.samples = GRID_SAMPLES if self.grid else VERIFY_SAMPLES
        self.claims = claim_names()
        self.family_of = {c: CLAIMS[c].family.name for c in self.claims}
        self.seed = str(random.Random(seed).getrandbits(31))
        self.json = WORK / "verify.json"
        self.ops = len(self.claims) * self.samples
        self.reference = None

    def argv(self, claim: str = "all") -> list[str]:
        return ["verify", claim, *self.args, "--seed", self.seed,
                "--json", str(self.json.relative_to(ROOT))]

    def run_pass(self, main, tracer=None) -> Pass:
        import geodeform.cli as cli

        # The first claim's interval starts when `main` hands it to the
        # deform layer, after argument parsing and the catalog lookup.
        entry = "scaling_probe" if self.grid else "verify"
        handed = []
        before = hostref.measure()
        with _one_shot_mark(cli, entry, handed):
            call = invoke(main, self.argv(), tracer)
        scale = hostref.factor(before, hostref.measure())
        result = Pass(call.wall * scale, self.ops)
        lines = call.stdout.splitlines()
        previous = handed[0] if handed else call.start
        for line, stamp in zip(lines, call.stamps):
            claim = line.split(":", 1)[0]
            if claim in self.family_of:
                result.claim_ms[claim] = ((stamp - previous) * scale * 1e3
                                          / self.samples)
            previous = stamp
        try:
            document = json.loads(self.json.read_text(encoding="utf-8"))
            self.json.unlink()
            entries = {e["name"]: e for e in document.pop("claims")}
        except (OSError, ValueError, KeyError):
            document, entries = None, {}
        outputs = (document, {c: _scrub(e) for c, e in entries.items()},
                   dict(zip([line.split(":", 1)[0] for line in lines], lines)))
        if self.reference is None:
            self.reference = outputs
        bad = set()
        for claim in self.claims:
            entry = entries.get(claim)
            if (entry is None or entry["verdict"] != "theorem"
                    or (self.grid and entry["scaling_exponent"] != 0)
                    or any(ref.get(claim) != now.get(claim) for ref, now
                           in zip(self.reference[1:], outputs[1:]))):
                bad.add(claim)
        if (call.rc != (1 if bad else 0) or document is None
                or document != self.reference[0]):
            bad.update(self.claims)
        result.failed = len(bad) * self.samples
        if bad:
            result.errors.append(
                f"rc={call.rc} claims failed: {sorted(bad)} {call.stderr[-500:]}")
        return result

    def profile_counts(self, main) -> dict[str, dict[str, int]]:
        """Python calls and Point constructions per family, counted by
        cProfile over one `verify` per claim; the times are discarded."""
        from geodeform.core import Point

        point_init = getattr(Point.__init__, "__code__", None)
        calls, points, judged = Counter(), Counter(), Counter()
        for claim in self.claims:
            family = self.family_of[claim]
            profiler = cProfile.Profile()
            call = invoke(main, self.argv(claim), profiler=profiler)
            if call.rc != 0:
                raise RuntimeError(f"profiled `verify {claim}` exited "
                                   f"{call.rc}: {call.stderr[-500:]}")
            judged[family] += self.samples
            for entry in profiler.getstats():
                if isinstance(entry.code, types.CodeType):
                    calls[family] += entry.callcount
                    if entry.code is point_init:
                        points[family] += entry.callcount
        return {"calls": dict(calls), "points": dict(points),
                "judged": dict(judged)}


class SweepWorkload:
    """`run` over every shipped script with seeded param nudges; one op is
    one `run` invocation."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        declared = {}
        for name in SCRIPTS:
            text = (ROOT / "scripts" / f"{name}.geo").read_text(encoding="utf-8")
            declared[name] = re.findall(r"^param\s+(\w+)\s*=\s*(\S+)", text,
                                        re.MULTILINE)
        self.op_list = []
        for index in range(SWEEP_CONFIGS * len(SCRIPTS)):
            name = SCRIPTS[index % len(SCRIPTS)]
            argv = ["run", f"scripts/{name}.geo"]
            for param, value in declared[name]:
                nudged = float(value) + rng.uniform(-NUDGE, NUDGE)
                argv += ["--param", f"{param}={nudged!r}"]
            stem = f"{(WORK / f'op{index}').relative_to(ROOT)}"
            argv += ["--json", stem + ".json", "--svg", stem + ".svg"]
            self.op_list.append((name, argv, Path(stem)))
        self.ops = len(self.op_list)
        self.reference = None

    def run_pass(self, main, tracer=None) -> Pass:
        result = Pass(0.0, self.ops)
        digests, raw_ms = [], []
        probes = [hostref.measure(PROBE_LOOPS)]
        for op, (name, argv, stem) in enumerate(self.op_list):
            if tracer is not None:
                tracer.context = name
            call = invoke(main, argv, tracer)
            raw_ms.append(call.wall * 1e3)
            try:
                document = json.loads(stem.with_suffix(".json").read_bytes())
                svg = stem.with_suffix(".svg").read_bytes()
            except (OSError, ValueError):
                document, svg = None, b""
            # Rewriting an existing file can make ext4 flush it on close,
            # which puts the disk's latency into the next pass's timings.
            stem.with_suffix(".json").unlink(missing_ok=True)
            stem.with_suffix(".svg").unlink(missing_ok=True)
            digest = hashlib.sha256(json.dumps(_scrub(document or {})).encode()
                                    + svg + call.stdout.encode()).digest()
            digests.append(digest)
            if (call.rc != 0 or document is None
                    or not all(a["passed"] for a in document["asserts"])
                    or (self.reference and digest != self.reference[op])):
                result.failed += 1
                result.errors.append(
                    f"{' '.join(argv)}: rc={call.rc}, output differs from the "
                    f"warm-up pass or an assert failed: "
                    f"{call.stdout[-300:]}{call.stderr[-300:]}")
            if (op + 1) % PROBE_EVERY == 0 or op + 1 == self.ops:
                probes.append(hostref.measure(PROBE_LOOPS))
        # each op is scaled by the probes on either side of its group
        for op, latency in enumerate(raw_ms):
            group = op // PROBE_EVERY
            result.latencies_ms.append(latency * hostref.factor(
                probes[group], probes[group + 1], PROBE_LOOPS))
        result.wall = sum(result.latencies_ms) / 1e3
        if self.reference is None:
            self.reference = digests
        return result

    def profile_counts(self, main) -> dict:
        return {}


# ---------------------------------------------------------------------------
# measurement


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter that imports the CLI and touches
    the claim catalog, as every invocation does before any work.  Each
    time is scaled by the import reference timed just before and after
    it (see hostref.py)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import geodeform.cli\n"
            "from geodeform.catalog import claim_names\n"
            "claim_names()\n")
    times = []
    before = hostref.measure_imports(ROOT)
    for repeat in range(SETUP_REPEATS + 1):
        start = _clock()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True, timeout=60)
        wall = _clock() - start
        after = hostref.measure_imports(ROOT)
        if repeat:  # the first one also writes the bytecode caches
            times.append(wall * 2.0 * hostref.IMPORTS_NOMINAL_S
                         / (before + after))
        before = after
    return times


def end_to_end(workload, passes: list[Pass], setup: list[float]) -> dict:
    """The user-visible figures, each a median over the passes or the
    set-ups.  Every time is already scaled to the nominal host."""
    wall = statistics.median(p.wall for p in passes)
    if isinstance(workload, SweepWorkload):
        # Every pass repeats the same ops; an op's latency is its median over
        # the passes, which also drops the single timings a host hiccup hit.
        latencies = [statistics.median(op)
                     for op in zip(*(p.latencies_ms for p in passes))]
    else:
        # Samples cannot be timed one by one from outside.  A judged
        # sample's latency is its claim's mean per-sample time, from the
        # previous result line to its own, counted once per judged sample;
        # so p99 is the slowest claim's mean, not a measured tail.
        latencies = []
        for claim in workload.claims:
            values = [p.claim_ms[claim] for p in passes
                      if claim in p.claim_ms]
            if values:
                latencies += [statistics.median(values)] * workload.samples
    latencies = latencies or [0.0, 0.0]  # no op finished; correct is false
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": workload.ops / wall,
        "op_p50_ms": statistics.median(latencies),
        "op_p99_ms": statistics.quantiles(latencies, n=100)[98],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


class Table:
    """Sums of one or more traced passes' span tables."""

    def __init__(self, tables: list[dict]) -> None:
        self.rows: dict[tuple, list[float]] = {}
        for table in tables:
            for key, row in table.items():
                total = self.rows.setdefault(key, [0, 0.0, 0.0])
                for i in range(3):
                    total[i] += row[i]

    def sum(self, name, key=None, ok=None, field=0, outcome=None) -> float:
        return sum(row[field] for (n, k, o), row in self.rows.items()
                   if n == name and (key is None or k == key)
                   and (ok is None or (o == "ok") == ok)
                   and (outcome is None or o == outcome))

    def per_call_us(self, name, key=None, field=1) -> float:
        count = self.sum(name, key)
        return self.sum(name, key, field=field) / count * 1e6 if count else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def exact_counts(table: Table) -> dict:
    """The counts that must repeat bit for bit for a given seed."""
    counts = {}
    for (name, key, outcome), row in sorted(table.rows.items()):
        if name in ("configurations.build", "deform.sample"):
            counts[f"{name}.{key}.{outcome}"] = row[0]
    return counts


def per_layer(workload, tables, profile, plain, traced) -> dict:
    table = Table(tables)
    passes = len(tables)
    metrics = {}
    judged = table.sum("deform.evaluate")
    for family in FAMILIES:
        accepted = table.sum("deform.sample", family, ok=True)
        builds = table.sum("configurations.build", family)
        metrics[f"deform.draw_us.{family}"] = _ratio(
            table.sum("deform.sample", family, field=2) * 1e6, accepted)
        metrics[f"deform.attempts_per_sample.{family}"] = _ratio(builds, accepted)
        metrics[f"configurations.build_us.{family}"] = _ratio(
            table.sum("configurations.build", family, ok=True, field=2) * 1e6,
            accepted)
        metrics[f"configurations.reject_us.{family}"] = _ratio(
            table.sum("configurations.build", family, ok=False, field=2) * 1e6,
            accepted)
        rejected = table.sum("configurations.build", family, ok=False)
        for f, cause in REJECTION_CAUSES:
            if f == family:
                count = table.sum("configurations.build", family, outcome=cause)
                metrics[f"deform.rejections.{f}.{cause}"] = count / passes
                rejected -= count
        metrics[f"deform.rejections.{family}.other"] = rejected / passes
        fam_judged = profile.get("judged", {}).get(family, 0)
        metrics[f"deform.py_calls_per_sample.{family}"] = _ratio(
            profile.get("calls", {}).get(family, 0), fam_judged)
        metrics[f"core.points_per_sample.{family}"] = _ratio(
            profile.get("points", {}).get(family, 0), fam_judged)
    metrics["deform.aggregate_us"] = _ratio(
        (table.sum("deform.verify", field=2)
         + table.sum("deform.scaling_probe", field=2)) * 1e6, judged)
    for kind in CENTERS:
        metrics[f"centers.center_us.{kind}"] = table.per_call_us(
            "centers.center", kind)
    for kind in RELATION_KINDS:
        metrics[f"relations.check_us.{kind}"] = table.per_call_us(
            "relations.check", kind)
    for name in SCRIPTS:
        metrics[f"script.parse_us.{name}"] = table.per_call_us(
            "script.parse", name)
        metrics[f"script.eval_us.{name}"] = table.per_call_us(
            "script.eval", name, field=2)
    metrics["render.svg_us"] = table.per_call_us("render.svg")
    metrics["cli.overhead_us"] = table.per_call_us("cli.main", field=2)
    metrics["src_lines"] = sum(
        len(path.read_bytes().splitlines())
        for path in sorted((SRC / "geodeform").rglob("*.py")))
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in plain) - 1.0)
    return metrics


def check_repeatable(workload_name: str, seed: int, counts: dict) -> list[str]:
    """Compare exact counts with those an earlier run of the same seed, the
    same source and the same interpreter stored; store them if new."""
    digest = hashlib.sha256(sys.version.encode())
    for path in sorted([*(SRC / "geodeform").rglob("*.py"),
                        *(ROOT / "scripts").glob("*.geo"),
                        *Path(__file__).parent.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    store = OUT / "counts" / f"{workload_name}-{seed}-{digest.hexdigest()[:16]}.json"
    if store.exists():
        earlier = json.loads(store.read_text(encoding="utf-8"))
        if earlier != counts:
            return [f"exact counts drifted from the run stored in {store}"]
        return []
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(counts, indent=1, sort_keys=True),
                     encoding="utf-8")
    return []


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from geodeform.cli import main
    from spans import Tracer

    setup = [] if trace else measure_setup()
    if workload_name == "script_sweep":
        workload = SweepWorkload(seed)
    else:
        workload = VerifyWorkload(workload_name, seed)
    tracer = Tracer()
    checked = [workload.run_pass(main)]  # warm-up and reference
    # Keep the collector from re-scanning what the process holds after the
    # warm-up.  A real CLI process is short-lived and never pays that scan,
    # but thousands of invocations in one process would.
    gc.freeze()
    plain, traced, tables = [], [], []
    deadline = _clock() + seconds
    while True:
        started = _clock()
        plain.append(workload.run_pass(main))
        if trace:
            tracer.reset()  # keep the spans of the last traced pass only
            with tracer.installed():
                traced.append(workload.run_pass(main, tracer))
            tables.append(tracer.table)
        # stop when another round would overrun the measuring time
        now = _clock()
        if len(plain) >= MIN_PASSES and now + (now - started) > deadline:
            break
    checked += plain + traced
    errors = [e for p in checked for e in p.errors]
    if not trace:
        metrics = end_to_end(workload, plain, setup)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        try:
            profile = workload.profile_counts(main)
            if profile != workload.profile_counts(main):
                errors.append("profiled call counts differ between two passes")
        except RuntimeError as exc:
            profile = {}
            errors.append(str(exc))
        counts = [exact_counts(Table([t])) for t in tables]
        if any(c != counts[0] for c in counts):
            errors.append("builder and sample counts differ between passes")
        errors += check_repeatable(workload_name, seed,
                                   {"passes": counts[0], "profile": profile})
        tracer.dump(OUT / f"spans-{workload_name}.jsonl")
        metrics = per_layer(workload, tables, profile, plain, traced)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    attempted = sum(p.ops for p in checked)
    failed = sum(p.failed for p in checked)
    for error in errors[:10]:
        print(f"bench: {error}", file=sys.stderr)
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "geodeform").is_dir() or not (ROOT / "scripts").is_dir():
        print(f"bench: no geodeform sources under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # Each CPU of the host this was written on changes speed on its own,
    # from one second to the next.  On one CPU, the host-speed reference
    # and the set-up subprocesses, which inherit the pin, run where the
    # timed work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
