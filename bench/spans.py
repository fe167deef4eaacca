"""Spans around the calls into each geodeform layer, recorded from outside
the package.

`Tracer.installed()` swaps a timing wrapper in for each public entry point
that the benchmark attributes to a layer, and puts the originals back when
the block ends, so untraced passes run the unmodified code.  A wrapper
replaces the name where the caller looks it up (the caller's module global,
the claim's family, the class attribute), which is why one function can be
patched in two modules.  An entry point that a later version of the package
no longer has is skipped, and its metrics read 0.

Every span adds its count, total time and self time (its duration minus the
traced spans inside it) to a table keyed by (span name, key, outcome).  The
outcome is "ok" or the class name of the exception that ended the call,
which is how builder rejections are told apart by cause.  The spans
themselves are kept in memory until the next `reset`, for `dump`.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.table: dict[tuple, list[float]] = {}
        self.context: str | None = None  # key for the script spans
        self.spans: list = []
        self._stack: list[list] = []

    def reset(self) -> None:
        self.table = {}
        self.spans = []

    def call(self, name: str, key, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        frame = [0.0, index]  # time covered by child spans, span id
        parent = self._stack[-1][1] if self._stack else -1
        self._stack.append(frame)
        outcome = "ok"
        start = _clock()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            duration = _clock() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            row = self.table.get((name, key, outcome))
            if row is None:
                row = self.table[(name, key, outcome)] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[0]
            self.spans[index] = (name, key, outcome, parent, start, duration)

    def wrap(self, name: str, fn, key_of=lambda args: None):
        def traced(*args, **kwargs):
            return self.call(name, key_of(args), fn, args, kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        catalog, cli, configurations, deform, render, script = (
            importlib.import_module(f"geodeform.{name}") for name in
            ("catalog", "cli", "configurations", "deform", "render", "script"))

        saved = []

        def patch(owner, attr, name, key_of=lambda args: None):
            if hasattr(owner, attr):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, key_of))

        by_family = lambda args: args[0].name  # noqa: E731
        by_first = lambda args: getattr(args[0], "name", args[0])  # noqa: E731
        by_context = lambda args: self.context  # noqa: E731

        patch(cli, "verify", "deform.verify", by_family)
        patch(cli, "scaling_probe", "deform.scaling_probe", by_family)
        patch(cli, "sample", "deform.sample", by_family)
        patch(deform, "sample", "deform.sample", by_family)
        patch(deform.RelationClaim, "evaluate", "deform.evaluate")
        for module in (deform, script):
            patch(module, "evaluate_relation", "relations.check", by_first)
        for module in (configurations, script):
            patch(module, "triangle_center", "centers.center", by_first)
        patch(cli, "parse", "script.parse", by_context)
        patch(cli, "evaluate", "script.eval", by_context)
        patch(render, "render_svg", "render.svg")

        # Builders are fields of frozen families shared between claims, so
        # each claim gets a copy of its family with a wrapped builder.
        claims = getattr(catalog, "CLAIMS", {})
        originals = dict(claims)
        families = {}
        for claim_name, built_in in originals.items():
            family = built_in.family
            if family.name not in families:
                families[family.name] = dataclasses.replace(
                    family, builder=self.wrap(
                        "configurations.build", family.builder,
                        lambda args, f=family.name: f))
            claims[claim_name] = dataclasses.replace(
                built_in, family=families[family.name])
        try:
            yield self
        finally:
            claims.update(originals)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the kept spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["name", "key", "outcome", "parent",
                                     "start_s", "duration_s"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
