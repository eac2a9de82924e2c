"""APRIORI adaptation for MUP discovery — the §V-C comparison baseline.

Each ``⟨attribute, value⟩`` pair becomes an item; transactions are the
dataset rows.  Classic level-wise apriori finds the frequent item-sets
(support ≥ τ); a MUP corresponds to an *infrequent* candidate whose
sub-item-sets are all frequent and whose items name distinct attributes.

The paper adapts apriori to highlight its handicaps, which this
implementation reproduces faithfully:

* the item lattice (``2^{Σ c_i}``) is far larger than the pattern graph
  (``Π (c_i + 1)``);
* candidates pairing two values of the *same* attribute are generated and
  counted even though no transaction can contain both (we track them in
  ``stats.pruned`` as wasted work).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle, oracle_for
from repro.core.engine import EngineSpec
from repro.core.mups.base import MupResult, register_algorithm
from repro.core.pattern import Pattern, X
from repro.data.dataset import Dataset

Item = Tuple[int, int]  # (attribute index, value)
ItemSet = Tuple[Item, ...]  # sorted tuple of items


def _pattern_of(itemset: ItemSet, d: int) -> Pattern:
    values = [X] * d
    for attribute, value in itemset:
        values[attribute] = value
    return Pattern(values)


def _has_duplicate_attribute(itemset: ItemSet) -> bool:
    attributes = [attribute for attribute, _ in itemset]
    return len(set(attributes)) != len(attributes)


@register_algorithm("apriori")
def apriori_mups(
    dataset: Dataset,
    threshold: int,
    max_level: Optional[int] = None,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
) -> MupResult:
    """Run the APRIORI adaptation.

    Args:
        dataset: dataset to assess.
        threshold: absolute support/coverage threshold ``τ``.
        max_level: optionally stop after item-sets of this size.
        oracle: reuse a prebuilt coverage oracle over ``dataset`` itself
            (supports are pattern coverages for attribute-distinct
            item-sets).
        engine: coverage-engine spec when no oracle is given.
    """
    oracle = oracle_for(dataset, oracle, engine)
    d = dataset.d
    stats = SearchStats()
    watch = Stopwatch()
    depth = d if max_level is None else min(max_level, d)

    mups: List[Pattern] = []

    def supports(itemsets: Sequence[ItemSet]) -> List[int]:
        """Support of each item-set, counting the whole level in one pass.

        Candidates pairing two values of one attribute have support 0 by
        construction — no transaction holds both — yet apriori still pays
        to generate/count them (the wasted work §V-C calls out, tracked in
        ``stats.pruned``).  The attribute-distinct rest maps to patterns and
        goes through the engine's batched ``coverage_many``.
        """
        stats.coverage_evaluations += len(itemsets)
        valid: List[int] = []
        patterns: List[Pattern] = []
        for position, itemset in enumerate(itemsets):
            if _has_duplicate_attribute(itemset):
                stats.pruned += 1
            else:
                valid.append(position)
                patterns.append(_pattern_of(itemset, d))
        result = [0] * len(itemsets)
        for position, count in zip(valid, oracle.coverage_many(patterns)):
            result[position] = int(count)
        return result

    # Level 1: singletons. The empty item-set (the root pattern) has support
    # n; when even the root is uncovered it is the only MUP, and a level-0
    # cap stops before the singletons either way.
    if oracle.total < threshold or not depth:
        stats.seconds = watch.elapsed()
        root = (Pattern.root(d),) if oracle.total < threshold else ()
        return MupResult(root, threshold, stats, max_level)

    singletons: List[ItemSet] = [
        ((attribute, value),)
        for attribute in range(d)
        for value in range(dataset.cardinalities[attribute])
    ]
    stats.nodes_generated += len(singletons)
    frequent_prev: List[ItemSet] = []
    frequent_prev_set: set = set()
    for itemset, support in zip(singletons, supports(singletons)):
        if support >= threshold:
            frequent_prev.append(itemset)
            frequent_prev_set.add(frozenset(itemset))
        else:
            mups.append(_pattern_of(itemset, d))

    size = 1
    while frequent_prev and size < depth:
        size += 1
        candidates: Dict[ItemSet, None] = {}
        # Classic prefix join of L_{k-1} with itself.
        sorted_prev = sorted(frequent_prev)
        for i, left in enumerate(sorted_prev):
            for right in sorted_prev[i + 1 :]:
                if left[:-1] != right[:-1]:
                    break
                candidate = tuple(sorted(left + (right[-1],)))
                candidates[candidate] = None
        # Subset-pruned survivors of the level, counted in one batch.
        survivors: List[ItemSet] = []
        for candidate in candidates:
            stats.nodes_generated += 1
            subsets: List[FrozenSet[Item]] = [
                frozenset(c) for c in combinations(candidate, size - 1)
            ]
            if any(subset not in frequent_prev_set for subset in subsets):
                continue
            survivors.append(candidate)
        frequent_now: List[ItemSet] = []
        frequent_now_set: set = set()
        for candidate, support in zip(survivors, supports(survivors)):
            if support >= threshold:
                frequent_now.append(candidate)
                frequent_now_set.add(frozenset(candidate))
            elif not _has_duplicate_attribute(candidate):
                # Infrequent, all sub-item-sets frequent, valid pattern:
                # this is a MUP.
                mups.append(_pattern_of(candidate, d))
        frequent_prev = frequent_now
        frequent_prev_set = frequent_now_set

    stats.seconds = watch.elapsed()
    return MupResult(tuple(mups), threshold, stats, max_level)
