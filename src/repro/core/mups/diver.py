"""DEEPDIVER: DFS search with dominance pruning (§III-E, Algorithm 3).

DEEPDIVER dives down covered Rule-1 chains until it hits an uncovered node.
Discovered MUPs feed the Appendix B dominance index, which prunes the
nodes they dominate: descendants of a MUP are uncovered but cannot be
MUPs, and are not worth expanding.  Algorithm 3 also climbs from an
uncovered node through uncovered parents, and treats a node that
dominates a known MUP as covered.

In the Rule-1 order the DFS visits exactly PATTERN-BREAKER's nodes, so
this module runs PATTERN-BREAKER's level walk
(:func:`~repro.core.lattice.walk_dataset`: masks over a coverage cube
when the space fits one, group-by counts otherwise, with the same nodes
and counters) and reports Algorithm 3's counters from it.  The proof:

* The DFS pushes a node's children in ascending attribute order and pops
  the last one first.  Let ``Q`` be a proper ancestor of a node ``P``.
  Either ``Q`` is on ``P``'s Rule-1 path from the root, or the two paths
  share a prefix and then ``Q``'s turns to an attribute right of ``P``'s
  next one, a branch explored first; either way ``Q`` is popped before
  ``P`` is pushed, if ``Q`` is pushed at all.  Every node on ``Q``'s path
  is an ancestor of ``P`` at a lower level, expanded unless it is
  uncovered or pruned, and then a MUP known at ``P``'s push dominates
  ``P``, which is pruned.  By induction on the pop order, each parent of
  an unpruned ``P`` was popped, unpruned and covered, so an uncovered
  unpruned ``P`` is a MUP and the climb never moves; and each MUP is
  found after all its ancestors were popped, so no node pushed later
  dominates a known MUP.
* The MUPs found between a child's push and its pop lie in its later
  siblings' subtrees, which fix an attribute the child leaves ``X`` or the
  child's own attribute to another value, so none dominates the child:
  a node's push-time flag is final.
* A node is flagged iff a known MUP dominates it, iff it has an uncovered
  ancestor, iff it has an uncovered parent, because coverage only falls
  going down.  So the DFS expands exactly the covered nodes whose parents
  are all covered, and visits their Rule-1 children.  Those are
  PATTERN-BREAKER's candidates, in another order.

So ``nodes_generated``, ``coverage_evaluations`` and ``pruned`` are the
walk's.  Every pop takes one dominance check and an unpruned pop a second
one, so ``dominance_checks = 2 · nodes_generated − pruned``.  The
discovery order does not show: :class:`~repro.core.mups.base.MupResult`
sorts the MUPs.  ``tests/deepdiver_reference.py`` keeps the node-at-a-time
DFS, and the tests pin this module to it.
"""

from __future__ import annotations

from typing import Optional

from repro._util import Stopwatch
from repro.core.lattice import walk_dataset
from repro.core.mups.base import MupResult, register_algorithm
from repro.data.dataset import Dataset


@register_algorithm("deepdiver")
def deepdiver(
    dataset: Dataset,
    threshold: int,
    max_level: Optional[int] = None,
) -> MupResult:
    """Run DEEPDIVER.

    Args:
        dataset: dataset to assess.
        threshold: absolute coverage threshold ``τ``.
        max_level: do not explore below this level; returns all MUPs with
            ``ℓ(P) <= max_level`` (Figure 16's scaling mode).
    """
    watch = Stopwatch()
    walk = walk_dataset(dataset, threshold, max_level)
    found = walk.mups()
    stats = walk.stats
    stats.dominance_checks = 2 * stats.nodes_generated - stats.pruned
    stats.seconds = watch.elapsed()
    return MupResult(found, threshold, stats, max_level)
