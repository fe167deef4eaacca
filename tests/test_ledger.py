"""Every invocation of the output ledger (`tests/ledger.py`) prints,
writes and exits as recorded in `tests/golden/ledger.json`."""

import json

from ledger import INVOCATIONS, LEDGER, main, run, versions


def _first_difference(want: dict, got: dict) -> str | None:
    """Where a record first differs from the ledger's: the field, and the
    first differing line of a text."""
    for field, recorded in want.items():
        if recorded == got[field]:
            continue
        if not (isinstance(recorded, list) and isinstance(got[field], list)):
            return f"{field}: recorded {recorded!r}, got {got[field]!r}"
        for i, (a, b) in enumerate(zip(recorded, got[field]), 1):
            if a != b:
                return f"{field} line {i}: recorded {a!r}, got {b!r}"
        return (f"{field}: recorded {len(recorded)} lines, "
                f"got {len(got[field])}")
    return None


def test_every_invocation_gives_its_recorded_output():
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    entries = {e["name"]: e for e in ledger["entries"]}
    assert list(entries) == [name for name, _, _ in INVOCATIONS], \
        "the ledger's entries are not INVOCATIONS: rewrite it"
    mismatches = []
    for name, argv, files in INVOCATIONS:
        entry = entries[name]
        assert (entry["argv"], entry["files"]) == (argv, files), name
        want = {k: entry[k] for k in ("exit", "stdout", "stderr", "report",
                                      "svg")}
        difference = _first_difference(want, run(argv, files))
        if difference is not None:
            mismatches.append(f"{name}: {difference}")
    recorded = {k: ledger[k] for k in ("python", "numpy")}
    assert not mismatches, "\n".join(
        [*mismatches, f"(recorded with {recorded}, running {versions()})"])


def test_a_rewrite_names_each_entry_it_adds_removes_or_changes(
        monkeypatch, tmp_path, capsys):
    shapes = {"name": "kept", "argv": ["shapes"], "files": {},
              **run(["shapes"], {})}
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"entries": [
        shapes, {**shapes, "name": "edited", "exit": 1},
        {**shapes, "name": "dropped"}]}), encoding="utf-8")
    monkeypatch.setattr("ledger.INVOCATIONS", [
        ("kept", ["shapes"], {}), ("edited", ["shapes"], {}),
        ("new", ["shapes"], {})])
    main(path)
    assert capsys.readouterr().err.splitlines()[:-1] == [
        "changed edited", "removed dropped", "added new"]
    written = json.loads(path.read_text(encoding="utf-8"))["entries"]
    assert [e["name"] for e in written] == ["kept", "edited", "new"]
