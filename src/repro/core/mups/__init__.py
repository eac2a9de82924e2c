"""MUP identification algorithms (§III + the §V-C APRIORI baseline)."""

from repro.core.mups.base import MupResult, find_mups, ALGORITHMS
from repro.core.mups.naive import naive_mups
from repro.core.mups.breaker import pattern_breaker
from repro.core.mups.combiner import pattern_combiner
from repro.core.mups.diver import deepdiver
from repro.core.mups.apriori import apriori_mups

__all__ = [
    "MupResult",
    "find_mups",
    "ALGORITHMS",
    "naive_mups",
    "pattern_breaker",
    "pattern_combiner",
    "deepdiver",
    "apriori_mups",
]
