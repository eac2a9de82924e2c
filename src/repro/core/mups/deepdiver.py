"""DEEPDIVER: DFS search with dominance pruning (§III-E, Algorithm 3).

DEEPDIVER dives down covered Rule-1 chains until it hits an uncovered node,
then climbs toward the root through uncovered parents until it reaches a
node all of whose parents are covered — a MUP.  Discovered MUPs feed the
Appendix B dominance index, which prunes both the nodes they dominate
(descendants: cannot be MUPs, not worth expanding) and the nodes dominating
them (ancestors: necessarily covered, so their coverage need not be
evaluated).

Two evident typos in the published pseudocode are corrected: the climb
stack is seeded with the uncovered node that triggered it, and a node that
*dominates* a known MUP is treated as covered — every ancestor of a MUP is
covered by monotonicity, so flagging it uncovered would contradict
Definition 5.

Expanding a covered node is one batch, and no coverage engine is built.
The DFS stack holds lattice codes (:mod:`repro.core.lattice`);
``Pattern`` objects are built only for the MUPs.  One ``bincount`` over
the node's unique rows counts all its Rule-1 children, the recursive
partitioning of BUC (Beyer & Ramakrishnan, SIGMOD 1999): a child's rows
are cut from its parent's only when the child is expanded in turn.  One
2-D pass of :meth:`~repro.core.dominance.MupDominanceIndex.family_flags`
flags the children a known MUP dominates and those dominating a known
MUP.  The MUP set only grows, so a flagged child is pruned, or treated as
covered, at its pop with no query; an unflagged one is checked only
against the MUPs found since its push.  Counters are kept at pop time, in
the parent's order, so ``SearchStats`` is that of the node-at-a-time
Algorithm 3.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Optional, Tuple

import numpy as np

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle
from repro.core.dominance import MupDominanceIndex, MupScan
from repro.core.engine import EngineSpec
from repro.core.lattice import PatternLattice
from repro.core.mups.base import MupResult, register_algorithm
from repro.core.pattern import Pattern
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
        oracle: accepted for interface parity; children are counted from
            the aggregated unique rows, not through per-pattern queries.
        engine: accepted for interface parity, like ``oracle``.
        use_dominance_index: disable only for the Appendix B ablation;
            linear scans over the MUP list answer the same questions.
    """
    space = PatternSpace.for_dataset(dataset)
    lattice = PatternLattice(space)
    stats = SearchStats()
    watch = Stopwatch()
    d = space.d
    depth = d if max_level is None else min(max_level, d)
    store = (MupDominanceIndex if use_dominance_index else MupScan)(
        space.cardinalities
    )
    unique, multiplicities = dataset.unique_rows()
    # Child j of the root sets attribute attributes[j] to digit digits[j]
    # (value + 1); a node X from attribute s on has the children from
    # first[s] on.  keys[r, a] is slot j of the child that row r matches
    # at attribute a, so bincount slot j counts child j.
    sizes = np.array(space.cardinalities, dtype=np.int64)
    first = np.r_[0, np.cumsum(sizes)].tolist()
    attributes = np.repeat(np.arange(d), sizes).tolist()
    digits = [v + 1 for c in space.cardinalities for v in range(c)]
    steps = [g * lattice.weights[a] for a, g in zip(attributes, digits)]
    keys = unique + np.asarray(first[:-1], dtype=np.int64)
    row_weights = multiplicities.astype(float)
    mups = []
    found = set()
    counts: Dict[int, int] = {}
    stack: list = []

    def push(code: int, node: np.ndarray, rows: np.ndarray, start: int, level: int):
        """Push a covered node's Rule-1 children, counted and flagged."""
        tally = np.bincount(
            keys[rows, start:].ravel(),
            weights=np.repeat(row_weights[rows], d - start),
            minlength=first[-1],
        )
        family = slice(first[start], None)
        dominated, dominating = store.family_flags(node, start)
        stack.extend(zip(
            [code + step for step in steps[family]],
            tally[family].astype(np.int64).tolist(),
            attributes[family],
            digits[family],
            dominated.tolist(),
            dominating.tolist(),
            repeat((rows, node, level, len(mups))),
        ))

    def climb(code: int, node: list) -> Tuple[int, list]:
        """Follow uncovered parents upward until all parents are covered.

        Every parent was popped before the node (the Rule-1 DFS pops all
        of a node's ancestors first), so its count is cached.
        """
        moved = True
        while moved:
            moved = False
            for attribute, digit in enumerate(node):
                if not digit:
                    continue
                parent = code - digit * lattice.weights[attribute]
                if counts[parent] < threshold:
                    code, node = parent, node.copy()
                    node[attribute] = 0
                    moved = True
                    break
        return code, node

    # The root: popped, checked twice against no MUPs and counted.
    total = int(multiplicities.sum())
    counts[0] = total
    nodes, checks, evaluations, pruned = 1, 2, 1, 0
    if total < threshold:
        mups.append(Pattern.root(d))
    elif depth:
        push(0, np.zeros(d, dtype=np.int64), np.arange(len(unique)), 0, 0)

    while stack:
        code, count, attribute, digit, dominated, dominating, parent = stack.pop()
        rows, above, level, since = parent
        nodes += 1
        checks += 1
        if dominated:
            pruned += 1
            continue
        node = above.copy()
        node[attribute] = digit
        if len(mups) > since:
            dominated, late = store.flags_since(node, since)
            if dominated:
                pruned += 1
                continue
            dominating = dominating or late
        checks += 1
        counts[code] = count
        if dominating:
            # Ancestors of MUPs are covered by monotonicity; skip the
            # coverage evaluation and keep expanding.
            pruned += 1
        else:
            evaluations += 1
            if count < threshold:
                code, values = climb(code, node.tolist())
                if code not in found:
                    found.add(code)
                    mup = Pattern([g - 1 for g in values])
                    store.add(mup)
                    mups.append(mup)
                continue
        level += 1
        start = attribute + 1
        if level < depth and start < d:
            rows = rows[keys[rows, attribute] == first[attribute] + digit - 1]
            push(code, node, rows, start, level)

    stats.nodes_generated = nodes
    stats.dominance_checks = checks
    stats.coverage_evaluations = evaluations
    stats.pruned = pruned
    stats.seconds = watch.elapsed()
    return MupResult(tuple(mups), threshold, stats, max_level)
