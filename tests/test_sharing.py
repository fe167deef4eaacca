"""Families that deform the same figure share its draws and its first
screened round within one `verify` invocation, and nothing else.

`verify all` sweeps theorem1 and bisector on the unit square under one
convex screen, and example1, example2 and example3 on the unit
equilateral triangle.  Inside `deform.sharing()`, which `cmd_verify`
opens, each set of streams is drawn once and each deformation's first
screened round is screened once; a claim verified alone shares nothing,
so it pins the shared sweep against one that shares nothing.
"""

import dataclasses
import json

import numpy as np
import pytest

from geodeform import deform
from geodeform.catalog import CLAIMS, FAMILIES
from geodeform.cli import main
from geodeform.deform import BATCH_ROWS, sharing, verify
from numpy_calls import counted_draws_and_screens, verify_counts

SETTINGS = {"eps": ["--eps", "0.5", "--samples", "1000"],
            "grid": ["--eps-grid", "0.001,0.01,0.1", "--samples", "300"]}
VERIFY_ALL = ["verify", "all", *SETTINGS["eps"]]
GRID_ALL = ["verify", "all", *SETTINGS["grid"]]


def _verified(capsys, tmp_path, *argv):
    """Each claim's stdout line and JSON entry, without its wall time."""
    out = tmp_path / "report.json"
    main([*argv, "--json", str(out)])
    lines = capsys.readouterr().out.splitlines()
    entries = json.loads(out.read_text(encoding="utf-8"))["claims"]
    for entry in entries:
        del entry["wall_time_s"]
    return ({line.split(":", 1)[0]: line for line in lines},
            {entry["name"]: entry for entry in entries})


@pytest.mark.parametrize("seed", ["0", "1101"])
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_each_claim_alone_reports_as_in_verify_all(capsys, tmp_path, seed,
                                                   setting):
    """Any subset of a run reproduces independently: a built-in claim
    verified alone, sharing nothing, prints the line and writes the JSON
    entry it does inside `verify all`, which shares draws and rounds."""
    args = [*SETTINGS[setting], "--seed", seed]
    lines, entries = _verified(capsys, tmp_path, "verify", "all", *args)
    assert list(lines) == list(CLAIMS)
    for name in CLAIMS:
        alone_lines, alone_entries = _verified(capsys, tmp_path, "verify",
                                               name, *args)
        assert alone_lines == {name: lines[name]}
        assert alone_entries == {name: entries[name]}


def test_verify_all_draws_each_stream_once():
    """One `verify all` computes 5 raw draws where its families verified
    one by one compute 11: bisector reads theorem1's first round, example2
    example1's, and example1 and example3 read theorem1's first draw.
    theorem1's screen runs in 3 sub-rounds and example3's in 3; bisector
    runs none.  On the grid, one draw serves every family."""
    by_family = {f: [n for n, c in CLAIMS.items() if c.family.name == f]
                 for f in FAMILIES}
    alone = [verify_counts(["verify", *names, *SETTINGS["eps"]])
             for names in by_family.values()]
    assert [sum(counts) for counts in zip(*alone)] == [11, 9]
    assert verify_counts(VERIFY_ALL) == (5, 6)
    grid_alone = [verify_counts(["verify", *names, *SETTINGS["grid"]])
                  for names in by_family.values()]
    assert [sum(counts) for counts in zip(*grid_alone)] == [5, 3]
    assert verify_counts(GRID_ALL) == (1, 2)


def test_nothing_is_shared_across_invocations():
    """Each invocation starts with an empty memo and drops it on return:
    two successive in-process runs count the same, as a one-shot run."""
    assert verify_counts(VERIFY_ALL) == verify_counts(VERIFY_ALL)
    assert verify_counts(GRID_ALL) == verify_counts(GRID_ALL)
    assert deform._SHARED.get() is None


def _held(monkeypatch, samples: int):
    """The `sharing` block of `verify all --samples <samples>`, with what
    it holds when the command returns."""
    kept = []
    leave = deform.sharing.__exit__

    def kept_exit(self, *exc_info):
        kept.append(self)
        leave(self, *exc_info)

    monkeypatch.setattr(deform.sharing, "__exit__", kept_exit)
    verify_counts(["verify", "all", "--samples", str(samples)])
    (shared,) = kept
    return shared


def test_the_memo_holds_one_batch_read_only(monkeypatch):
    """A sweep of several batches memoizes its first batch alone, exactly
    what a one-batch sweep memoizes, and every array it holds is
    read-only."""
    one, many = (_held(monkeypatch, n) for n in (BATCH_ROWS, 10000))
    assert many.draws.keys() == one.draws.keys()
    for key, arrays in many.draws.items():
        for a, b in zip(arrays, one.draws[key]):
            assert a.shape[0] <= BATCH_ROWS and a.tobytes() == b.tobytes()
    assert len(many.rounds) == len(one.rounds) == 3
    for key, (found, made, used) in many.rounds.items():
        assert key[5] == range(BATCH_ROWS)  # the rows of the first batch
        arrays = [made, used, *(a for owner, pts in found
                                for a in (owner, *(c for p in pts
                                                   for c in (p.x, p.y))))]
        assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        next(iter(many.draws.values()))[0][0, 0] = 0.0


def test_library_calls_outside_verify_share_nothing():
    """`verify` outside `sharing()` draws and screens as if alone."""
    with counted_draws_and_screens() as counts:
        for name in ("theorem1_perp", "bisector_concyclic"):
            verify(CLAIMS[name].family, [CLAIMS[name].claim], 1000, 0.5, 0)
    assert (counts["draws"], counts["screens"]) == (6, 6)


def _reports_and_counts(first, second):
    claims = [CLAIMS["theorem1_perp"].claim]
    with sharing(), counted_draws_and_screens() as counts:
        reports = [verify(first, claims, 1000, 0.5, 3)]
        before = dict(counts)
        reports.append(verify(second, claims, 1000, 0.5, 3))
    return reports, (counts["draws"] - before["draws"],
                     counts["screens"] - before["screens"])


def test_a_family_with_another_builder_shares_its_first_round():
    """A copy of a family with a wrapped builder, as the bench tracer
    makes, draws and screens nothing of its own, and builds the same
    samples."""
    family = FAMILIES["theorem1"]
    built = []

    def builder(*points):
        built.append(np.size(points[0].x))
        return family.builder(*points)

    copy = dataclasses.replace(family, builder=builder)
    reports, extra = _reports_and_counts(family, copy)
    assert extra == (0, 0) and built == [1000]
    assert reports[0] == reports[1]


def test_a_plain_function_screen_shares_only_the_draws():
    """Screens compare as values when the program gives them; a plain
    function compares by identity, so its family screens again, on
    draws it does not compute again."""
    family = FAMILIES["theorem1"]
    assert family.screen == FAMILIES["bisector"].screen
    assert family.screen != FAMILIES["example3"].screen
    copy = dataclasses.replace(
        family, screen=lambda *points: family.screen(*points))
    reports, extra = _reports_and_counts(family, copy)
    assert extra == (0, 3)
    assert reports[0] == reports[1]


def test_a_deformation_of_another_size_screens_its_own_round():
    """The same figure at another epsilon reads the shared draws but
    screens its own first round, and reports as it does alone."""
    family = FAMILIES["theorem1"]
    claims = [CLAIMS["theorem1_perp"].claim]
    alone = verify(family, claims, 1000, 0.25, 3)
    with sharing(), counted_draws_and_screens() as counts:
        verify(family, claims, 1000, 0.5, 3)
        before = dict(counts)
        shared = verify(family, claims, 1000, 0.25, 3)
    assert counts["screens"] > before["screens"]
    assert shared == alone
