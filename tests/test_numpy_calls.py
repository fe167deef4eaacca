"""The numpy calls of one build and one judge of each shipped family on a
fixed 1000-row draw (see numpy_calls.py): an exact count, the same on
any host, that a change to the row path may lower but not raise."""

import pytest

from numpy_calls import caller_calls, family_calls, plain_calls

# the counts at which the row path stands, a family's screen counted with
# its build (BENCH_20.json compares them with the parent's)
RECORDED = {"theorem1": 635, "bisector": 828, "example1": 1499,
            "example2": 3148, "example3": 2007}


@pytest.mark.parametrize("name", list(RECORDED))
def test_counted_build_and_judge_walk_the_plain_path(name):
    counts, counted = family_calls(name)
    plain = plain_calls(name)
    assert [r.tobytes() for r in counted] == [r.tobytes() for r in plain]
    assert counted[0].sum() < len(counted[0]) / 2  # most rows build
    assert sum(counts.values()) <= RECORDED[name]


def test_caller_counts_split_the_same_calls():
    """`caller_calls` counts every call of `family_calls` once, under the
    geodeform function that made it."""
    counts, _ = family_calls("theorem1")
    callers = caller_calls("theorem1")
    assert sum(callers.values()) == sum(counts.values())
    assert callers["core.maximum"] > 0
    assert "(outside geodeform)" not in callers
