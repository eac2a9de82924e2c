"""PATTERN-BREAKER: the top-down BFS algorithm (§III-C, Algorithm 1).

Starts at the all-``X`` root and moves level by level, breaking covered
patterns into more specific candidates via Rule 1 (each node is generated
exactly once — Theorem 3).  A candidate is pruned without evaluation when
any of its parents was uncovered or itself pruned; an evaluated candidate
with ``cov < τ`` is a MUP (all its parents are covered by construction).

Each level is an integer code array (:mod:`repro.core.lattice`): pruning
looks every candidate's parents up in the previous level's sorted covered
codes at once, and Rule-1 children are generated per attribute for the
whole level.  Coverage is evaluated incrementally and in batch: each
candidate carries its match mask over the unique value combinations, a
level's survivors are counted with one ``coverage_of_masks`` pass, and the
child masks of all covered nodes that specialize one attribute come from
one ``restrict_children_many`` call (Appendix A).  ``Pattern`` objects are
built only for the MUPs.
"""

from __future__ import annotations

from itertools import compress
from typing import List, Optional

import numpy as np

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle
from repro.core.engine import EngineSpec
from repro.core.lattice import PatternLattice, contains
from repro.core.mups.base import MupResult, register_algorithm
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset


@register_algorithm("pattern_breaker")
def pattern_breaker(
    dataset: Dataset,
    threshold: int,
    max_level: Optional[int] = None,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
    use_masks: bool = True,
) -> MupResult:
    """Run PATTERN-BREAKER.

    Args:
        dataset: dataset to assess.
        threshold: absolute coverage threshold ``τ``.
        max_level: stop after this level; returns all MUPs with
            ``ℓ(P) <= max_level``.
        oracle: reuse a prebuilt coverage oracle.
        engine: coverage-engine spec (name, ``"auto"``, EngineConfig,
            class, or instance) when no oracle is given.
        use_masks: thread parent match-masks down the tree (Appendix A
            optimization); disable only for the ablation benchmark.
    """
    lattice = PatternLattice(PatternSpace.for_dataset(dataset))
    oracle = oracle or CoverageOracle(dataset, engine=engine)
    stats = SearchStats()
    watch = Stopwatch()
    depth = lattice.d if max_level is None else min(max_level, lattice.d)

    # The level's candidate codes and, when masks are on, their match masks
    # (masks[r] belongs to codes[r]).
    codes = lattice.root()
    masks: List = [oracle.full_mask()] if use_masks else []
    covered_prev = codes[:0]
    mups = [codes[:0]]

    for level in range(0, depth + 1):
        if not len(codes):
            break
        stats.nodes_generated += len(codes)
        if level > 0:
            # Prune candidates with a parent that was uncovered or pruned:
            # exactly the parents missing from the covered set.
            rows, parents = lattice.parents(codes)
            alive = np.ones(len(codes), dtype=bool)
            alive[rows[~contains(covered_prev, parents)]] = False
            stats.pruned += len(codes) - int(alive.sum())
            codes = codes[alive]
            if use_masks:
                masks = list(compress(masks, alive.tolist()))
        # Evaluate the whole surviving level in one batched pass.
        if use_masks:
            counts = oracle.coverage_of_masks(masks)
        else:
            counts = oracle.coverage_many(lattice.decode(codes))
        stats.coverage_evaluations += len(codes)

        # Every parent is covered (the prune above guarantees it), so an
        # uncovered candidate here is maximal by definition.
        covered = counts >= threshold
        mups.append(codes[~covered])
        codes = codes[covered]
        if use_masks:
            masks = list(compress(masks, covered.tolist()))
        covered_prev = np.sort(codes)
        if level == depth:
            break

        child_codes = []
        child_masks: List = []
        for attribute, rows, children in lattice.rule1_children(codes):
            child_codes.append(children.ravel())
            if use_masks:
                child_masks.extend(
                    oracle.restrict_children_many(
                        [masks[r] for r in rows.tolist()], attribute
                    )
                )
        codes = np.concatenate(child_codes) if child_codes else codes[:0]
        masks = child_masks

    found = lattice.decode(np.sort(np.concatenate(mups)))
    stats.seconds = watch.elapsed()
    return MupResult(tuple(found), threshold, stats, max_level)
