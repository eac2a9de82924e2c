"""PATTERN-COMBINER: the bottom-up algorithm (§III-D, Algorithm 2).

One pass over the data yields exact counts for every level-``d`` value
combination; the traversal then repeatedly *combines* uncovered nodes upward
via Rule 2 (each parent generated exactly once — Theorem 4).  A parent's
coverage is the sum over a disjoint child family obtained by specializing
its right-most ``X``; any covered child in the family contributes ≥ τ, so
the parent is covered and the branch is pruned.  MUPs at level ``ℓ`` are the
uncovered nodes none of whose parents at ``ℓ - 1`` is uncovered.

Each level is a code array (:mod:`repro.core.lattice`) with its counts,
its digits (``(d, k)``: one contiguous row per attribute) and each node's
right-most ``X`` (its pivot; −1 on the bottom level), so generating
parents, summing their sibling families and the MUP test are numpy passes
over the whole level; only the MUPs become ``Pattern`` objects.  The
digits and pivots are carried, never re-derived from the codes: a Rule-2
parent's digits are its generator's with the pivot set to 0, and its
right-most ``X`` is that pivot.  Digits are ``int8`` while every
``c_i ≤ 127``, as in :func:`~repro.core.lattice.walk_levels`.

Both moves look codes up in the last level written: a level is written,
its parents' sibling families are summed from it, the uncovered parents
are written as the next level, and then each node of the level is a MUP
unless one of its parents is found there.  While the ``Π(c_i + 1)`` codes
fit ``_TABLE_BYTES`` as ``int64``, every uncovered node's count sits in
one table indexed by code (a code is the C-order flat index of the
``(c_0 + 1, …, c_{d−1} + 1)`` cube of Gray et al., *Data Cube*, ICDE
1996), with −1 elsewhere, and each lookup is one gather.  The levels share
that table: a code's level is its number of non-zero digits, so no two
levels write the same cell, and a query for a code of level ``ℓ`` only
ever finds a node of level ``ℓ``.  The table is therefore written once per
level and never cleared.  Over the cap, the last level written is kept as
a sorted copy of its codes and looked up by binary search.

The lookup is the only thing the two paths do differently, and neither it
nor the carried digits changes which nodes are generated, counted or
pruned.  So both paths return the same MUPs with Algorithm 2's counters:
every Rule-2 parent is generated and evaluated once, and pruned when its
family has a covered member or sums to τ or more.

The initial level-``d`` sweep enumerates all ``Π c_i`` combinations, which
is the intrinsic cost of the bottom-up strategy: on the high-cardinality
BlueNile data (Figure 13) it generates more nodes than either top-down
search at every threshold.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro._util import SearchStats, Stopwatch
from repro.core.lattice import PatternLattice, index_of
from repro.core.mups.base import MupResult, register_algorithm
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset
from repro.exceptions import ReproError

#: Refuse combination spaces whose bottom level alone would not fit in RAM.
_MAX_COMBINATIONS = 20_000_000

#: Largest count table in bytes, 8 a code: 8M codes, so AirBnB's 14 binary
#: amenities fit and 15 do not.  Larger spaces look codes up by binary
#: search.  A memory bound, not a speed crossover: on AirBnB n=100,000 at
#: d = 13, 14 and 15 the table was 1.5-1.8x faster than binary search, for
#: 14, 35 and 71 MB more peak memory.
_TABLE_BYTES = 64 << 20


class _CountTable:
    """Every level's uncovered counts in one array indexed by code."""

    def __init__(self, size: int) -> None:
        self._cells = np.full(size, -1, dtype=np.int64)

    def write(self, codes: np.ndarray, counts: np.ndarray) -> None:
        self._cells[codes] = counts

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        return self._cells[codes]


class _SortedLevel:
    """The last written level's counts, found by binary search."""

    def write(self, codes: np.ndarray, counts: np.ndarray) -> None:
        order = np.argsort(codes)
        # A trailing -1 is what index_of's -1 (absent) picks.
        self._codes, self._counts = codes[order], np.append(counts[order], -1)

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        return self._counts[index_of(self._codes, codes)]


@register_algorithm("pattern_combiner")
def pattern_combiner(
    dataset: Dataset,
    threshold: int,
) -> MupResult:
    """Run PATTERN-COMBINER.

    Args:
        dataset: dataset to assess.
        threshold: absolute coverage threshold ``τ``.
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
    if space.node_count() * 8 <= _TABLE_BYTES:
        lookup = _CountTable(space.node_count())
    else:
        lookup = _SortedLevel()

    # Exact counts of every value combination (one data pass); the unique
    # rows are distinct, so plain assignment fills the grid.
    grid = np.zeros(space.combination_count(), dtype=np.int64)
    unique, counts = dataset.unique_rows()
    grid[lattice.combination_index(unique)] = counts
    stats.nodes_generated += len(grid)
    stats.coverage_evaluations += len(grid)

    # Level-d seed: every value combination below the threshold, with its
    # count, its digits (one row per attribute) and no X.
    uncovered = np.flatnonzero(grid < threshold)
    level_counts = grid[uncovered]
    del grid
    narrow = max(space.cardinalities) <= np.iinfo(np.int8).max
    digits = lattice.combination_digits(uncovered, np.int8 if narrow else np.int64)
    del uncovered
    codes = lattice.from_digits(digits)
    digits = digits.T
    pivots = np.full(len(codes), -1, dtype=np.int8 if space.d <= 127 else np.int64)
    lookup.write(codes, level_counts)
    mups = [codes[:0]]

    while len(codes):
        level = [(codes[:0], level_counts[:0], digits[:, :0], pivots[:0])]
        # Rule 2: each node generates exactly the parents whose Rule-2
        # generator child it is, so no parent is built twice.
        for pivot, rows, parents in lattice._rule2_parents(codes, digits.T, pivots):
            stats.nodes_generated += len(parents)
            stats.coverage_evaluations += len(parents)
            # The parent's count sums its sibling family at the pivot, one
            # sibling at a time (1-D gathers, no (k, c) temporaries).  A
            # sibling missing from the level is covered, so it contributes
            # >= τ and covers the parent.
            totals = np.zeros(len(parents), dtype=np.int64)
            present = np.ones(len(parents), dtype=bool)
            for value in range(1, space.cardinalities[pivot] + 1):
                sibling = lookup(parents + value * lattice.weights[pivot])
                totals += sibling
                present &= sibling >= 0
            keep = present & (totals < threshold)
            stats.pruned += len(parents) - int(keep.sum())
            rows = rows[keep]
            parent_digits = digits[:, rows]
            parent_digits[pivot] = 0
            parent_pivots = np.full(len(rows), pivot, dtype=pivots.dtype)
            level.append((parents[keep], totals[keep], parent_digits, parent_pivots))
        next_codes, next_counts, next_digits, next_pivots = (
            np.concatenate(column, axis=-1) for column in zip(*level)
        )
        del level
        lookup.write(next_codes, next_counts)
        # MUPs: the uncovered nodes with no uncovered parent.
        mups.append(codes[~_has_uncovered_parent(lattice, lookup, codes, digits)])
        codes, level_counts = next_codes, next_counts
        digits, pivots = next_digits, next_pivots

    found = lattice.decode(np.sort(np.concatenate(mups)))
    stats.seconds = watch.elapsed()
    return MupResult(tuple(found), threshold, stats)


def _has_uncovered_parent(
    lattice: PatternLattice,
    lookup: Callable[[np.ndarray], np.ndarray],
    codes: np.ndarray,
    digits: np.ndarray,
) -> np.ndarray:
    """Whether each node has a parent (one of its non-zero digits set to 0)
    in the last written level; ``digits`` has one row per attribute."""
    found = np.zeros(len(codes), dtype=bool)
    for column, weight in zip(digits, lattice.weights):
        rows = np.flatnonzero((column != 0) & ~found)
        parents = codes[rows] - column[rows].astype(lattice.dtype) * weight
        found[rows] = lookup(parents) >= 0
    return found
