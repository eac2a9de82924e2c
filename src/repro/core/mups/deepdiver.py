"""DEEPDIVER: DFS search with dominance pruning (§III-E, Algorithm 3).

DEEPDIVER dives down covered Rule-1 chains until it hits an uncovered node,
then climbs toward the root through uncovered parents until it reaches a
node all of whose parents are covered — a MUP.  Discovered MUPs feed the
Appendix B dominance index, which prunes both the nodes they dominate
(descendants: cannot be MUPs, not worth expanding) and the nodes dominating
them (ancestors: necessarily covered, so their coverage need not be
evaluated).

Two evident typos in the published pseudocode are corrected (see DESIGN.md):
the climb stack is seeded with the uncovered node that triggered it, and a
node that *dominates* a known MUP is treated as covered — every ancestor of
a MUP is covered by monotonicity, so flagging it uncovered would contradict
Definition 5.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle
from repro.core.dominance import MupDominanceIndex
from repro.core.engine import EngineSpec
from repro.core.engine.base import Mask
from repro.core.mups.base import MupResult, register_algorithm
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset


@register_algorithm("deepdiver")
def deepdiver(
    dataset: Dataset,
    threshold: int,
    max_level: Optional[int] = None,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
    use_dominance_index: bool = True,
) -> MupResult:
    """Run DEEPDIVER.

    Args:
        dataset: dataset to assess.
        threshold: absolute coverage threshold ``τ``.
        max_level: do not explore below this level; returns all MUPs with
            ``ℓ(P) <= max_level`` (Figure 16's scaling mode).
        oracle: reuse a prebuilt coverage oracle.
        engine: coverage-engine spec (name, ``"auto"``, EngineConfig,
            class, or instance) when no oracle is given.
        use_dominance_index: disable only for the Appendix B ablation; a
            linear scan over the MUP list is used instead.
    """
    space = PatternSpace.for_dataset(dataset)
    oracle = oracle or CoverageOracle(dataset, engine=engine)
    stats = SearchStats()
    watch = Stopwatch()
    depth = space.d if max_level is None else min(max_level, space.d)

    index = MupDominanceIndex(space.cardinalities)
    mup_set = set()
    coverage_cache: Dict[Pattern, int] = {}

    def coverage_of(pattern: Pattern, mask: Optional[Mask] = None) -> int:
        cached = coverage_cache.get(pattern)
        if cached is not None:
            return cached
        stats.coverage_evaluations += 1
        if mask is not None:
            count = oracle.coverage_of_mask(mask)
        else:
            count = oracle.coverage(pattern)
        coverage_cache[pattern] = count
        return count

    def dominated_by_mups(pattern: Pattern) -> bool:
        stats.dominance_checks += 1
        if use_dominance_index:
            return index.dominated_by_any(pattern)
        return any(m.dominates(pattern) for m in mup_set)

    def dominates_mups(pattern: Pattern) -> bool:
        stats.dominance_checks += 1
        if use_dominance_index:
            return index.dominates_any(pattern)
        return any(pattern.dominates(m) for m in mup_set)

    def climb_to_mup(pattern: Pattern) -> Pattern:
        """Follow uncovered parents upward until all parents are covered."""
        current = pattern
        while True:
            moved = False
            for parent in current.parents():
                if coverage_of(parent) < threshold:
                    current = parent
                    moved = True
                    break
            if not moved:
                return current

    root = space.root()
    stack = [(root, oracle.full_mask())]
    while stack:
        pattern, mask = stack.pop()
        stats.nodes_generated += 1
        if dominated_by_mups(pattern):
            stats.pruned += 1
            continue
        if dominates_mups(pattern):
            # Ancestors of MUPs are covered by monotonicity; skip the
            # coverage evaluation and keep expanding.
            uncovered = False
            stats.pruned += 1
        else:
            uncovered = coverage_of(pattern, mask) < threshold
        if uncovered:
            mup = climb_to_mup(pattern)
            if mup not in mup_set:
                mup_set.add(mup)
                index.add(mup)
            continue
        if pattern.level >= depth:
            continue
        start = pattern.rightmost_deterministic() + 1
        for attr in range(start, space.d):
            if pattern[attr] != X:
                continue
            # One vectorized pass builds the whole sibling family's masks.
            family = oracle.restrict_children(mask, attr)
            for value, child_mask in enumerate(family):
                child = pattern.with_value(attr, value)
                stack.append((child, child_mask))

    stats.seconds = watch.elapsed()
    return MupResult(tuple(mup_set), threshold, stats, max_level)
