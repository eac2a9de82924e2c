"""PATTERN-BREAKER on a level too wide for per-candidate match masks.

AirBnB n=100,000 over 13 amenities at τ=100 reaches a level of 206,760
candidates over 6,780 unique rows: one bool match mask per candidate
would be a 1.4 GB stack, widened to 11 GB of ``int64`` to count it.
Counted by grouping the unique rows on each candidate subset, the search
must finish and return PATTERN-COMBINER's MUP set.
"""

from __future__ import annotations

import pytest

from repro.core.mups import pattern_breaker, pattern_combiner
from repro.data.airbnb import load_airbnb

pytestmark = pytest.mark.slow


def test_breaker_matches_combiner_on_airbnb_d13():
    dataset = load_airbnb(n=100_000, d=13)
    breaker = pattern_breaker(dataset, 100)
    combiner = pattern_combiner(dataset, 100)
    assert len(breaker) == 126_306
    assert breaker.as_set() == combiner.as_set()
