"""PATTERN-BREAKER: the top-down BFS algorithm (§III-C, Algorithm 1).

Starts at the all-``X`` root and moves level by level, breaking covered
patterns into more specific candidates via Rule 1 (each node is generated
exactly once — Theorem 3).  A candidate is pruned without evaluation when
any of its parents was uncovered or itself pruned; an evaluated candidate
with ``cov < τ`` is a MUP (all its parents are covered by construction).

The traversal is :func:`~repro.core.lattice.walk_dataset` over
integer-coded levels, and Rule-1 children are generated per attribute for
the whole level.  When the space fits
:func:`~repro.core.lattice.cube_fits`, a
:class:`~repro.core.lattice.CoverageCube` built for the call prunes and
counts each level by two gathers: a candidate survives iff its smallest
parent count reaches τ.  Otherwise
:func:`~repro.core.lattice.walk_levels` looks every candidate's parents up
in the previous level's sorted covered codes at once, and a
:class:`~repro.core.lattice.GroupCounter` counts each level by grouping
the unique rows on every candidate subset.  Both give the same MUPs and
counters (the proof is in :func:`~repro.core.lattice.walk_dataset`).
``Pattern`` objects are built only for the MUPs.
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
    return MupResult(tuple(found), threshold, walk.stats, max_level)
