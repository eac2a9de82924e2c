"""Incremental MUP maintenance under data arrival and removal.

The paper's workflow alternates assessment and acquisition: identify MUPs,
collect tuples, re-assess.  Re-running identification from scratch after
every delivery wastes the structure of the previous answer.  This module
maintains the MUP set incrementally:

* **Adding tuples** only *increases* coverages.  A MUP that matches no new
  tuple is untouched (its coverage is unchanged and its parents only got
  safer).  A MUP that became covered is *resolved*; fresh MUPs can appear
  only strictly below it, so a localized top-down search of its dominated
  sub-graph repairs the set.
* **Removing tuples** only *decreases* coverages.  Every pattern whose
  coverage dropped matches a removed tuple, so new MUPs live inside the
  tiny sub-lattices ``{P : P[i] ∈ {X, c[i]}}`` of the removed combinations
  ``c`` (2^d nodes each, with the usual monotonicity pruning); existing
  MUPs survive unless one of their parents became uncovered.

Every public operation is cross-checked against from-scratch recomputation
in the property tests.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.core.coverage import CoverageOracle, oracle_for
from repro.core.engine import EngineSpec
from repro.core.mups.base import MupResult, check_threshold, find_mups
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset
from repro.exceptions import DataError


class IncrementalMupIndex:
    """Maintains the MUP set of a dataset across row additions/removals.

    Args:
        dataset: the initial dataset.
        threshold: the coverage threshold τ (fixed for the index lifetime).
        algorithm: identification algorithm for the initial computation.
        engine: engine spec for the initial oracle.  A prebuilt engine
            must index ``dataset`` itself.
        oracle: an already-warm oracle over ``dataset`` itself to adopt
            instead of building a fresh index (the serving layer registers
            datasets before any threshold is known).

    Every delivery or removal builds a new :class:`CoverageOracle` over
    the new dataset.
    """

    def __init__(
        self,
        dataset: Dataset,
        threshold: int,
        algorithm: str = "deepdiver",
        engine: EngineSpec = None,
        oracle: CoverageOracle = None,
    ) -> None:
        threshold = check_threshold(threshold)
        self._space = PatternSpace.for_dataset(dataset)
        self._threshold = threshold
        self._dataset = dataset
        self._oracle = oracle_for(dataset, oracle, engine)
        initial = find_mups(
            dataset, threshold=threshold, algorithm=algorithm, oracle=self._oracle
        )
        self._mups: Set[Pattern] = set(initial.mups)
        self.recomputations = 0  # localized searches performed (stats)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def oracle(self) -> CoverageOracle:
        """The oracle over the current dataset (replaced on every delivery).

        Consumers that keep long-lived references (the serving layer's
        snapshots) must re-read this property after a delivery; the
        previously returned oracle keeps answering for the *old* dataset.
        """
        return self._oracle

    @property
    def threshold(self) -> int:
        return self._threshold

    def mups(self) -> Tuple[Pattern, ...]:
        """The current MUP set, sorted."""
        return tuple(sorted(self._mups))

    def max_covered_level(self) -> int:
        """Definition 6 for the current state."""
        if not self._mups:
            return self._dataset.d
        return min(p.level for p in self._mups) - 1

    def coverage(self, pattern: Pattern) -> int:
        """Current coverage of a pattern."""
        return self._oracle.coverage(pattern)

    def _rebuild_oracle(self, new_dataset: Dataset) -> None:
        """Re-index ``new_dataset`` and swap it in.

        Exception-safe: the new oracle is built *before* any state changes,
        so a failed construction leaves the index fully consistent on the
        old dataset + old oracle, still answering queries.  On success the
        dataset and oracle swap together.
        """
        oracle = CoverageOracle(new_dataset)
        self._dataset, self._oracle = new_dataset, oracle

    # ------------------------------------------------------------------
    # additions
    # ------------------------------------------------------------------
    def add_rows(self, rows: Iterable[Sequence[int]]) -> List[Pattern]:
        """Append tuples and repair the MUP set.

        Returns:
            The MUPs *resolved* (covered) by this delivery.
        """
        addition = np.asarray(list(rows), dtype=np.int32)
        if addition.size == 0:
            return []
        if addition.ndim == 1:
            addition = addition.reshape(1, -1)
        self._rebuild_oracle(self._dataset.append_rows(addition))

        # Only MUPs matching some new tuple changed coverage.
        touched = [
            mup
            for mup in self._mups
            if any(mup.matches(row) for row in addition)
        ]
        resolved = [
            mup for mup in touched if self._oracle.coverage(mup) >= self._threshold
        ]
        for mup in resolved:
            self._mups.discard(mup)
        # Fresh MUPs can only be (strict) descendants of resolved MUPs.
        for mup in resolved:
            self._search_below(mup)
        return sorted(resolved)

    def _search_below(self, resolved: Pattern) -> None:
        """Localized top-down search of the sub-graph under ``resolved``.

        ``resolved`` is covered now; its uncovered descendants with all
        parents covered are new MUPs.  The descent stops at uncovered
        nodes (their own descendants cannot be maximal).
        """
        self.recomputations += 1
        visited: Set[Pattern] = set()
        frontier: List[Pattern] = [resolved]
        while frontier:
            pattern = frontier.pop()
            for child in self._space.children(pattern):
                if child in visited:
                    continue
                visited.add(child)
                if self._oracle.coverage(child) >= self._threshold:
                    frontier.append(child)
                    continue
                if child in self._mups:
                    continue
                if self._all_parents_covered(child):
                    self._mups.add(child)
                # Uncovered but non-maximal: a sibling branch will reach the
                # actual MUP; do not descend below an uncovered node.

    def _all_parents_covered(self, pattern: Pattern) -> bool:
        parents = list(pattern.parents())
        if not parents:
            return True
        counts = self._oracle.coverage_many(parents)
        return bool((counts >= self._threshold).all())

    # ------------------------------------------------------------------
    # removals
    # ------------------------------------------------------------------
    def remove_rows(self, indices: Sequence[int]) -> List[Pattern]:
        """Delete rows by index and repair the MUP set.

        Returns:
            The newly appearing MUPs.
        """
        indices = np.unique(np.asarray(indices, dtype=np.int64))
        if indices.size == 0:
            return []
        if indices.min() < 0 or indices.max() >= self._dataset.n:
            raise DataError(
                f"row indices out of range [0, {self._dataset.n})"
            )
        removed_rows = self._dataset.rows[indices]
        keep = np.ones(self._dataset.n, dtype=bool)
        keep[indices] = False
        before = set(self._mups)
        self._rebuild_oracle(self._dataset.mask(keep))

        # 1. Existing MUPs may stop being maximal (a parent became
        #    uncovered) — exactly when the parent matches a removed tuple.
        for mup in list(self._mups):
            demoted = False
            for parent in mup.parents():
                if any(parent.matches(row) for row in removed_rows):
                    if self._oracle.coverage(parent) < self._threshold:
                        demoted = True
                        break
            if demoted:
                self._mups.discard(mup)

        # 2. New uncovered patterns match some removed combination: search
        #    each removed combination's sub-lattice {P : P[i] in {X, c[i]}}.
        for combo in {tuple(int(v) for v in row) for row in removed_rows}:
            self._search_sublattice(combo)
        return sorted(set(self._mups) - before)

    def _search_sublattice(self, combo: Tuple[int, ...]) -> None:
        """Top-down search of the 2^d lattice of patterns matching ``combo``."""
        self.recomputations += 1
        root = self._space.root()
        visited: Set[Pattern] = {root}
        frontier: List[Pattern] = [root]
        while frontier:
            pattern = frontier.pop()
            if self._oracle.coverage(pattern) >= self._threshold:
                # Covered: specialize further within the sub-lattice.
                for index in pattern.nondeterministic_indices():
                    child = pattern.with_value(index, combo[index])
                    if child not in visited:
                        visited.add(child)
                        frontier.append(child)
                continue
            # Uncovered: a MUP iff all parents covered.
            if pattern not in self._mups and self._all_parents_covered(pattern):
                self._mups.add(pattern)

    # ------------------------------------------------------------------
    # verification helper
    # ------------------------------------------------------------------
    def as_result(self) -> MupResult:
        """Snapshot the current state as a :class:`MupResult`."""
        from repro._util import SearchStats

        return MupResult(
            mups=tuple(self._mups),
            threshold=self._threshold,
            stats=SearchStats(),
        )
