"""Naive MUP enumeration (§III-A).

One counter per pattern: enumerate all ``Π (c_i + 1)`` patterns, mark the
uncovered ones, then keep those with no uncovered parent.  Exponential in
``d`` by construction; it exists as the ground-truth reference for tests and
as the baseline the paper reports timing out in §V-C.  Coverage is still
evaluated for every pattern, but in batched slabs through the engine's
``coverage_many`` so the Python-loop overhead stays off the hot path.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle, oracle_for
from repro.core.engine import EngineSpec
from repro.core.mups.base import MupResult, register_algorithm
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset
from repro.exceptions import ReproError

#: Refuse to enumerate pattern spaces beyond this size: the naive algorithm
#: is quadratic in the number of uncovered patterns and exists for testing.
_MAX_PATTERNS = 5_000_000

#: Patterns per batched coverage_many call.
_BATCH = 2048


@register_algorithm("naive")
def naive_mups(
    dataset: Dataset,
    threshold: int,
    max_level: Optional[int] = None,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
) -> MupResult:
    """Enumerate every pattern and filter to the maximal uncovered ones.

    Args:
        dataset: dataset to assess.
        threshold: absolute coverage threshold ``τ``.
        max_level: optionally ignore MUPs deeper than this level.
        oracle: reuse a prebuilt coverage oracle over ``dataset`` itself.
        engine: coverage-engine spec when no oracle is given.
    """
    space = PatternSpace.for_dataset(dataset)
    if space.node_count() > _MAX_PATTERNS:
        raise ReproError(
            f"naive enumeration over {space.node_count()} patterns refused; "
            f"use pattern_breaker / pattern_combiner / deepdiver"
        )
    oracle = oracle_for(dataset, oracle, engine)
    stats = SearchStats()
    watch = Stopwatch()

    uncovered = set()
    patterns = space.all_patterns()
    while True:
        batch = list(islice(patterns, _BATCH))
        if not batch:
            break
        stats.nodes_generated += len(batch)
        stats.coverage_evaluations += len(batch)
        for pattern, count in zip(batch, oracle.coverage_many(batch)):
            if count < threshold:
                uncovered.add(pattern)

    mups = []
    for pattern in uncovered:
        if max_level is not None and pattern.level > max_level:
            continue
        # A parent of an uncovered pattern is uncovered iff it is in the
        # uncovered set, because the set is exhaustive.
        if not any(parent in uncovered for parent in pattern.parents()):
            mups.append(pattern)

    stats.seconds = watch.elapsed()
    return MupResult(tuple(mups), threshold, stats, max_level)
