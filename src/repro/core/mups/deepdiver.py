"""DEEPDIVER: DFS search with dominance pruning (§III-E, Algorithm 3).

DEEPDIVER dives down covered Rule-1 chains until it hits an uncovered node.
Discovered MUPs feed the Appendix B dominance index, which prunes the
nodes they dominate: descendants of a MUP are uncovered but cannot be
MUPs, and are not worth expanding.

Algorithm 3 also climbs from an uncovered node through uncovered parents,
and treats a node that dominates a known MUP as covered.  In the Rule-1
DFS neither ever acts.  The DFS pushes a node's children in ascending
attribute order and pops the last one first.  Let ``Q`` be a proper
ancestor of a node ``P``.  Either ``Q`` is on ``P``'s Rule-1 path from the
root, or the two paths share a prefix and then ``Q``'s turns to an
attribute right of ``P``'s next one, a branch explored first; either way
``Q`` is popped before ``P`` is pushed, if ``Q`` is pushed at all.  Every
node on ``Q``'s path is an ancestor of ``P`` at a lower level, expanded
unless it is uncovered or pruned, and then a MUP known at ``P``'s push
dominates ``P``, which is pruned.  By induction on the pop order:

* each parent of an unpruned ``P`` was popped, unpruned and covered, so
  an uncovered unpruned ``P`` is a MUP and the climb never moves;
* each MUP is found after all its ancestors were popped, so no node
  pushed later dominates a known MUP.

The MUPs found between a child's push and its pop lie in its later
siblings' subtrees, which fix an attribute the child leaves ``X`` or the
child's own attribute to another value, so none dominates the child and
the push-time flag is final.  A pop is thus one flag test: a flagged
child is pruned; any other child is evaluated, and becomes a MUP if
uncovered or is expanded if covered.

Expanding a covered node is one batch, and no coverage engine is built.
The DFS stack holds each child's count, its flag and the attribute value
it sets on its parent; ``Pattern`` objects are built only for the MUPs.  One
``bincount`` over the node's unique rows counts all its Rule-1 children,
the recursive partitioning of BUC (Beyer & Ramakrishnan, SIGMOD 1999): a
child's rows are cut from its parent's only when the child is expanded in
turn.  One 2-D pass of
:meth:`~repro.core.dominance.MupDominanceIndex.family_flags` flags the
children a known MUP dominates.  Counters are kept at pop time, in the
parent's order, so ``SearchStats`` is that of the node-at-a-time
Algorithm 3.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

import numpy as np

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle
from repro.core.dominance import MupDominanceIndex, MupScan
from repro.core.engine import EngineSpec
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
            a linear scan over the MUP list answers the same question.
    """
    space = PatternSpace.for_dataset(dataset)
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
    keys = unique + np.asarray(first[:-1], dtype=np.int64)
    row_weights = multiplicities.astype(float)
    mups = []
    stack: list = []

    def push(node: np.ndarray, rows: np.ndarray, start: int, level: int):
        """Push a covered node's Rule-1 children, counted and flagged."""
        tally = np.bincount(
            keys[rows, start:].ravel(),
            weights=np.repeat(row_weights[rows], d - start),
            minlength=first[-1],
        )
        family = slice(first[start], None)
        stack.extend(zip(
            tally[family].astype(np.int64).tolist(),
            attributes[family],
            digits[family],
            store.family_flags(node, start).tolist(),
            repeat((rows, node, level)),
        ))

    # Every pop takes one dominance check; an unpruned pop takes a second
    # one and a coverage evaluation.  The root is popped unpruned.
    total = int(multiplicities.sum())
    nodes, pruned = 1, 0
    if total < threshold:
        mups.append(Pattern.root(d))
    elif depth:
        push(np.zeros(d, dtype=np.int64), np.arange(len(unique)), 0, 0)

    while stack:
        count, attribute, digit, dominated, (rows, above, level) = stack.pop()
        nodes += 1
        if dominated:
            pruned += 1
            continue
        node = above.copy()
        node[attribute] = digit
        if count < threshold:
            mup = Pattern((node - 1).tolist())
            store.add(mup)
            mups.append(mup)
            continue
        level += 1
        start = attribute + 1
        if level < depth and start < d:
            rows = rows[keys[rows, attribute] == first[attribute] + digit - 1]
            push(node, rows, start, level)

    stats.nodes_generated = nodes
    stats.dominance_checks = 2 * nodes - pruned
    stats.coverage_evaluations = nodes - pruned
    stats.pruned = pruned
    stats.seconds = watch.elapsed()
    return MupResult(tuple(mups), threshold, stats, max_level)
