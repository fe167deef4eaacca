"""The numpy calls of one build and one judge of each shipped family on a
fixed 1000-row draw, and of one judge of each relation kind on a fixed
1000-row figure (see numpy_calls.py): an exact count, the same on any
host, that a change to the row path may lower but not raise."""

import pytest

from geodeform.relations import RELATIONS
from numpy_calls import caller_calls, family_calls, kind_calls, \
    layer_calls, plain_calls, plain_kind

# the counts at which the row path stands, by layer: (screen, build,
# judge), the judge summed over the family's claims (BENCH_21.json
# compares them with the parent's); a change that lowers one tightens it
LAYERS = {"theorem1": (93, 296, 242), "bisector": (93, 376, 311),
          "example1": (0, 703, 514), "example2": (0, 1982, 311),
          "example3": (114, 1130, 622)}
RECORDED = {name: sum(calls) for name, calls in LAYERS.items()}

# the counts of one judge of each relation kind (BENCH_22.json); a change
# that lowers one tightens it
KINDS = {"collinear": 186, "concyclic": 327, "concurrent": 466,
         "perpendicular": 141, "equal_length": 133, "on_conic": 494,
         "midpoints_coincide": 138}


@pytest.mark.parametrize("name", list(RECORDED))
def test_counted_build_and_judge_walk_the_plain_path(name):
    counts, counted = family_calls(name)
    plain = plain_calls(name)
    assert [r.tobytes() for r in counted] == [r.tobytes() for r in plain]
    assert counted[0].sum() < len(counted[0]) / 2  # most rows build
    assert sum(counts.values()) <= RECORDED[name]


@pytest.mark.parametrize("name", list(LAYERS))
def test_layer_counts_split_the_same_calls(name):
    """`layer_calls` counts every call of `family_calls` once, in the
    layer that made it, and no layer rises above its record."""
    counts, _ = family_calls(name)
    layers = layer_calls(name)
    assert sum(layers) == sum(counts.values())
    assert all(n <= most for n, most in zip(layers, LAYERS[name])), layers


def test_caller_counts_split_the_same_calls():
    """`caller_calls` counts every call of `family_calls` once, under the
    geodeform function that made it."""
    counts, _ = family_calls("theorem1")
    callers = caller_calls("theorem1")
    assert sum(callers.values()) == sum(counts.values())
    assert callers["core.maximum"] > 0
    assert "(outside geodeform)" not in callers


@pytest.mark.parametrize("kind", list(RELATIONS))
def test_counted_judge_of_each_kind_walks_the_plain_path(kind):
    counts, counted = kind_calls(kind)
    assert [r.tobytes() for r in counted] == \
        [r.tobytes() for r in plain_kind(kind)]
    assert not counted[0].any()  # every row of the figure is judged
    assert sum(counts.values()) <= KINDS[kind]
