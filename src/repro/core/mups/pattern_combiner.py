"""PATTERN-COMBINER: the bottom-up algorithm (§III-D, Algorithm 2).

One pass over the data yields exact counts for every level-``d`` value
combination; the traversal then repeatedly *combines* uncovered nodes upward
via Rule 2 (each parent generated exactly once — Theorem 4).  A parent's
coverage is the sum over a disjoint child family obtained by specializing
its right-most ``X``; any covered child in the family contributes ≥ τ, so
the parent is covered and the branch is pruned.  MUPs at level ``ℓ`` are the
uncovered nodes none of whose parents at ``ℓ - 1`` is uncovered.

Each level is a sorted integer code array with its counts
(:mod:`repro.core.lattice`), so generating parents, summing their sibling
families and the MUP test are numpy passes over the whole level; only the
MUPs become ``Pattern`` objects.

The initial level-``d`` sweep enumerates all ``Π c_i`` combinations, which
is the intrinsic cost of the bottom-up strategy — exactly why Figure 13
shows it losing on the high-cardinality BlueNile data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle
from repro.core.engine import EngineSpec
from repro.core.lattice import PatternLattice, contains, index_of
from repro.core.mups.base import MupResult, register_algorithm
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset
from repro.exceptions import ReproError

#: Refuse combination spaces whose bottom level alone would not fit in RAM.
_MAX_COMBINATIONS = 20_000_000


@register_algorithm("pattern_combiner")
def pattern_combiner(
    dataset: Dataset,
    threshold: int,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
) -> MupResult:
    """Run PATTERN-COMBINER.

    Args:
        dataset: dataset to assess.
        threshold: absolute coverage threshold ``τ``.
        oracle: accepted for interface parity; the bottom-up algorithm only
            needs the aggregated unique rows, not per-pattern queries.
        engine: accepted for interface parity, like ``oracle`` (any
            :class:`~repro.core.engine.EngineSpec`, including an
            ``EngineConfig`` or ``"auto"``).
    """
    space = PatternSpace.for_dataset(dataset)
    if space.combination_count() > _MAX_COMBINATIONS:
        raise ReproError(
            f"bottom level has {space.combination_count()} combinations; "
            f"use pattern_breaker or deepdiver for this schema"
        )
    lattice = PatternLattice(space)
    stats = SearchStats()
    watch = Stopwatch()

    # Exact counts of every value combination (one data pass); the unique
    # rows are distinct, so plain assignment fills the grid.
    grid = np.zeros(space.combination_count(), dtype=np.int64)
    unique, counts = dataset.unique_rows()
    grid[lattice.combination_index(unique)] = counts
    stats.nodes_generated += len(grid)
    stats.coverage_evaluations += len(grid)

    # Level-d seed: every value combination below the threshold, as sorted
    # codes with their counts.
    uncovered = np.flatnonzero(grid < threshold)
    codes = lattice.combination_codes(uncovered)
    level_counts = grid[uncovered]
    mups = [codes[:0]]

    while len(codes):
        uncovered_parents = [codes[:0]]
        parent_counts = [level_counts[:0]]
        # Rule 2: each node generates exactly the parents whose Rule-2
        # generator child it is, so no parent is built twice.
        for pivot, _, parents in lattice.rule2_parents(codes):
            stats.nodes_generated += len(parents)
            stats.coverage_evaluations += len(parents)
            # A sibling missing from the level is covered, so it
            # contributes >= τ and covers the parent.
            position = index_of(codes, lattice.family(parents, pivot))
            present = position >= 0
            totals = np.where(present, level_counts[position], 0).sum(axis=1)
            keep = present.all(axis=1) & (totals < threshold)
            stats.pruned += len(parents) - int(keep.sum())
            uncovered_parents.append(parents[keep])
            parent_counts.append(totals[keep])
        next_codes = np.concatenate(uncovered_parents)
        order = np.argsort(next_codes)
        next_codes = next_codes[order]
        # MUPs: the uncovered nodes with no uncovered parent.
        rows, candidates = lattice.parents(codes)
        mups.append(np.delete(codes, rows[contains(next_codes, candidates)]))
        codes = next_codes
        level_counts = np.concatenate(parent_counts)[order]

    found = lattice.decode(np.sort(np.concatenate(mups)))
    stats.seconds = watch.elapsed()
    return MupResult(tuple(found), threshold, stats)
