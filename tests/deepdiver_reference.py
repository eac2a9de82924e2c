"""DEEPDIVER one node at a time: the reference for
:func:`repro.core.mups.diver.deepdiver`.

Algorithm 3 (§III-E) in the Rule-1 DFS order.  Pop a node and prune it
when a known MUP dominates it (Appendix B's index).  Otherwise, treat it
as covered when it dominates a known MUP, else count it by a scan of the
raw rows.  A covered node's Rule-1 children are pushed in (attribute,
value) order, so the last is popped first; from an uncovered node the
search climbs through uncovered parents to a MUP.

It shares no code with the level walk that ``deepdiver`` runs, so the two
are pinned to each other on MUPs and on all four counters:

* ``nodes_generated``: pops;
* ``dominance_checks``: one per pop, and a second per unpruned pop;
* ``coverage_evaluations``: row scans, each pattern at most once (the
  climb reads cached counts where it can);
* ``pruned``: pops dominated by a known MUP, and pops treated as covered
  because they dominate one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.coverage import coverage_scan
from repro.core.dominance import MupDominanceIndex
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace


def deepdiver_reference(
    dataset, threshold: int, max_level: Optional[int] = None
) -> Tuple[FrozenSet[Pattern], Tuple[int, int, int, int]]:
    """Returns ``(mups, (nodes_generated, coverage_evaluations,
    dominance_checks, pruned))``."""
    space = PatternSpace.for_dataset(dataset)
    depth = space.d if max_level is None else min(max_level, space.d)
    index = MupDominanceIndex(space.cardinalities)
    counts: Dict[Pattern, int] = {}
    nodes = checks = pruned = 0

    def covered(pattern: Pattern) -> bool:
        if pattern not in counts:
            counts[pattern] = coverage_scan(dataset, pattern)
        return counts[pattern] >= threshold

    stack = [space.root()]
    while stack:
        pattern = stack.pop()
        nodes += 1
        checks += 1
        if index.dominated_by_any(pattern):
            pruned += 1
            continue
        checks += 1
        if index.dominates_any(pattern):
            # Every ancestor of a MUP is covered.
            pruned += 1
        elif not covered(pattern):
            while True:
                parent = next(
                    (q for q in pattern.parents() if not covered(q)), None
                )
                if parent is None:
                    break
                pattern = parent
            index.add(pattern)
            continue
        if pattern.level < depth:
            for attribute in range(pattern.rightmost_deterministic() + 1, space.d):
                for value in range(space.cardinalities[attribute]):
                    stack.append(pattern.with_value(attribute, value))
    return frozenset(index), (nodes, len(counts), checks, pruned)
