"""PATTERN-BREAKER and DEEPDIVER on a level too wide for per-candidate
match masks.

AirBnB n=100,000 over 13 amenities at τ=100 reaches a level of 206,760
candidates over 6,780 unique rows: one bool match mask per candidate
would be a 1.4 GB stack, widened to 11 GB of ``int64`` to count it.
Counted by grouping the unique rows on each candidate subset, the search
must finish and return PATTERN-COMBINER's MUP set.  DEEPDIVER pops about
a million nodes here and counts each expansion from its node's unique
rows; it must return the same set.

Every identification algorithm, run on a prebuilt ``packed`` engine over
a 900-row, 480-pattern space, must also return Definition 4's MUP set
(``scan_mups``).
"""

from __future__ import annotations

import pytest

from engine_reference import scan_mups
from repro.core.engine import PackedBitsetEngine
from repro.core.mups import deepdiver, pattern_breaker, pattern_combiner
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.data.airbnb import load_airbnb
from repro.data.synthetic import random_categorical_dataset

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def airbnb_d13():
    dataset = load_airbnb(n=100_000, d=13)
    return dataset, pattern_combiner(dataset, 100)


@pytest.mark.parametrize("search", [pattern_breaker, deepdiver], ids=lambda f: f.__name__)
def test_search_matches_combiner_on_airbnb_d13(airbnb_d13, search):
    dataset, combiner = airbnb_d13
    result = search(dataset, 100)
    assert len(result) == 126_306
    assert result.as_set() == combiner.as_set()


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_packed_mups_match_scan_for_every_algorithm(algorithm):
    dataset = random_categorical_dataset(900, (5, 4, 3, 3), seed=11, skew=1.0)
    reference = scan_mups(dataset, 3)
    assert reference, "the fixture must actually have MUPs"
    result = find_mups(
        dataset,
        threshold=3,
        algorithm=algorithm,
        engine=PackedBitsetEngine(dataset),
    )
    assert result.as_set() == reference
