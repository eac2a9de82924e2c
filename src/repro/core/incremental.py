"""One threshold's MUP set, kept current across row additions and removals.

The paper's remedy loop alternates assessment and acquisition: identify
MUPs, collect tuples, assess again.  :class:`IncrementalMupIndex` holds
one dataset, its coverage oracle and its MUP set at a fixed τ.  Every
delivery or removal builds the new dataset, its oracle and its MUP set
(a fresh search with the index's algorithm) and swaps the three in
together, then reports the difference:

* **Adding tuples** only raises coverages, so an old MUP that stays
  uncovered keeps its covered parents and stays a MUP: the old MUPs
  missing from the new set are exactly those the delivery *resolved*.
* **Removing tuples** only lowers coverages, so a new MUP missing from the
  old set is one the removal *opened*.

Every public operation is cross-checked against from-scratch recomputation
in the tests.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.core.coverage import CoverageOracle, oracle_for
from repro.core.engine import EngineSpec
from repro.core.mups.base import MupResult, check_threshold, find_mups
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.exceptions import DataError


class IncrementalMupIndex:
    """Holds the MUP set of a dataset across row additions/removals.

    Args:
        dataset: the initial dataset.
        threshold: the coverage threshold τ (fixed for the index lifetime).
        algorithm: identification algorithm for every search.
        engine: engine spec for the initial oracle.  A prebuilt engine
            must index ``dataset`` itself.
        oracle: an already-warm oracle over ``dataset`` itself to adopt
            instead of building a fresh index (the serving layer registers
            datasets before any threshold is known).

    Every delivery or removal builds a new :class:`CoverageOracle` over
    the new dataset and searches its MUPs again.
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
        self._threshold = threshold
        self._algorithm = algorithm
        self._dataset = dataset
        self._oracle = oracle_for(dataset, oracle, engine)
        self._mups = self._search(dataset, self._oracle)

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

    # ------------------------------------------------------------------
    # data changes
    # ------------------------------------------------------------------
    def add_rows(self, rows: Iterable[Sequence[int]]) -> List[Pattern]:
        """Append tuples and search the MUPs again.

        Raises:
            DataError: ``rows`` are not integer rows of the dataset's
                width that fit ``int32`` (see :meth:`Dataset.append_rows`).

        Returns:
            The MUPs *resolved* (covered) by this delivery.
        """
        dataset = self._dataset.append_rows(rows)
        if dataset.n == self._dataset.n:
            return []
        before = self._replace(dataset)
        return sorted(before - self._mups)

    def remove_rows(self, indices: Sequence[int]) -> List[Pattern]:
        """Delete rows by index and search the MUPs again.

        Raises:
            DataError: ``indices`` is not a flat sequence of integer row
                indices within ``[0, n)``.

        Returns:
            The newly appearing MUPs.
        """
        try:
            indices = np.asarray(indices)
        except ValueError as error:
            raise DataError(f"row indices must be flat: {error}") from error
        if indices.size == 0:
            return []
        if indices.ndim != 1 or indices.dtype.kind not in "iu":
            raise DataError(
                f"row indices must be a flat sequence of integers, got "
                f"{indices.dtype} values of shape {indices.shape}"
            )
        if indices.min() < 0 or indices.max() >= self._dataset.n:
            raise DataError(
                f"row indices out of range [0, {self._dataset.n})"
            )
        keep = np.ones(self._dataset.n, dtype=bool)
        keep[indices] = False
        before = self._replace(self._dataset.mask(keep))
        return sorted(self._mups - before)

    def _search(self, dataset: Dataset, oracle: CoverageOracle) -> Set[Pattern]:
        result = find_mups(
            dataset,
            threshold=self._threshold,
            algorithm=self._algorithm,
            oracle=oracle,
        )
        return set(result.mups)

    def _replace(self, dataset: Dataset) -> Set[Pattern]:
        """Swap in ``dataset``, its oracle and its MUP set; returns the old
        MUP set.

        Exception-safe: all three are built before any state changes, so a
        failed build leaves the index consistent on the old state, still
        answering queries.
        """
        oracle = CoverageOracle(dataset)
        mups = self._search(dataset, oracle)
        before = self._mups
        self._dataset, self._oracle, self._mups = dataset, oracle, mups
        return before

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
