"""PATTERN-BREAKER: the top-down BFS algorithm (§III-C, Algorithm 1).

Starts at the all-``X`` root and moves level by level, breaking covered
patterns into more specific candidates via Rule 1 (each node is generated
exactly once — Theorem 3).  A candidate is pruned without evaluation when
any of its parents was uncovered or itself pruned; an evaluated candidate
with ``cov < τ`` is a MUP (all its parents are covered by construction).

The traversal is :func:`~repro.core.lattice.walk_dataset` over integer
pattern codes.  When the space fits :func:`~repro.core.lattice.cube_fits`,
it is read off a :class:`~repro.core.lattice.CoverageCube` built for the
call, with no level generated: the evaluated candidates are the cells
whose smallest parent count reaches τ.  Otherwise
:func:`~repro.core.lattice.walk_levels` generates each level's Rule-1
children per attribute, looks every candidate's parents up in the
previous level's sorted covered codes at once, and a
:class:`~repro.core.lattice.GroupCounter` counts each level by grouping
the unique rows on every candidate subset.  Both give the same MUPs and
counters (the proof is in :func:`~repro.core.lattice.walk_dataset`).
The result holds the MUPs as codes and builds their ``Pattern`` objects
when it is first read.
"""

from __future__ import annotations

from typing import Optional

from repro._util import Stopwatch
from repro.core.lattice import walk_dataset
from repro.core.mups.base import MupResult, register_algorithm
from repro.data.dataset import Dataset


@register_algorithm("pattern_breaker")
def pattern_breaker(
    dataset: Dataset,
    threshold: int,
    max_level: Optional[int] = None,
) -> MupResult:
    """Run PATTERN-BREAKER.

    Args:
        dataset: dataset to assess.
        threshold: absolute coverage threshold ``τ``.
        max_level: stop after this level; returns all MUPs with
            ``ℓ(P) <= max_level``.
    """
    watch = Stopwatch()
    walk = walk_dataset(dataset, threshold, max_level)
    found = walk.mups()
    walk.stats.seconds = watch.elapsed()
    return MupResult(found, threshold, walk.stats, max_level)
