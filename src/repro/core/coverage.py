"""Coverage computation with inverted indices (Definition 2, Appendix A).

The oracle aggregates the dataset to its unique value combinations with
multiplicities, keeps one membership vector per attribute value over those
unique combinations, and answers ``cov(P)`` as the AND of the deterministic
elements' vectors weighted by the count vector — exactly the Appendix A
design.  The vector representation is pluggable: the oracle delegates every
mask operation to a :class:`~repro.core.engine.CoverageEngine` backend
(``dense`` boolean ndarrays or ``packed`` uint64 bitsets), so traversal
algorithms run unmodified on either.  Masks are engine-specific opaque
handles; thread a parent's match mask down so a child's coverage costs a
single vectorized AND (``restrict_mask``), or answer a whole frontier with
the batched ``coverage_of_masks`` / ``coverage_many`` queries.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import CoverageEngine, EngineSpec, resolve_engine
from repro.core.engine.base import Mask
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.exceptions import PatternError


def threshold_from_rate(rate: float, n: int) -> int:
    """The paper's "threshold rate" as an absolute count: ``ceil(rate * n)``.

    Floored at 1 so a rate of 0 still flags empty regions.
    """
    if rate < 0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    return max(1, int(math.ceil(rate * n)))


class CoverageOracle:
    """Answers coverage queries for one dataset (Appendix A).

    Args:
        dataset: the dataset to index.
        engine: coverage-engine selection — a declarative
            :class:`~repro.core.engine.EngineConfig`, a registry name
            (``"dense"`` / ``"packed"`` / ``"sharded"``, or ``"auto"`` to
            let the workload-aware planner choose), an engine class, or a
            prebuilt engine instance; ``None`` picks the default backend.

    Attributes:
        evaluations: number of coverage queries answered; algorithms report
            this in their :class:`~repro._util.SearchStats`.
    """

    def __init__(self, dataset: Dataset, engine: EngineSpec = None) -> None:
        self._dataset = dataset
        self._engine = resolve_engine(engine, dataset)
        self.evaluations = 0

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def engine(self) -> CoverageEngine:
        """The backend answering the mask queries."""
        return self._engine

    @property
    def total(self) -> int:
        """Coverage of the root pattern = number of tuples ``n``."""
        return self._dataset.n

    @property
    def unique_count(self) -> int:
        """Number of distinct value combinations present in the data."""
        return self._engine.unique_count

    def threshold_from_rate(self, rate: float) -> int:
        """Translate the paper's "threshold rate" into an absolute count.

        The evaluation section sweeps rates like 0.01%; see
        :func:`threshold_from_rate`.
        """
        return threshold_from_rate(rate, self._dataset.n)

    # ------------------------------------------------------------------
    # mask plumbing (incremental evaluation for graph traversals)
    # ------------------------------------------------------------------
    def full_mask(self) -> Mask:
        """Mask matching every unique combination (the root pattern)."""
        return self._engine.full_mask()

    def value_mask(self, attribute: int, value: int) -> Mask:
        """Inverted-index vector for ``attribute == value`` (do not mutate)."""
        return self._engine.value_mask(attribute, value)

    def restrict_mask(self, mask: Mask, attribute: int, value: int) -> Mask:
        """``mask AND (attribute == value)`` — one child step down the graph."""
        return self._engine.restrict(mask, attribute, value)

    def restrict_children(self, mask: Mask, attribute: int) -> List[Mask]:
        """The whole sibling family ``mask AND (attribute == v)``, batched."""
        return self._engine.restrict_children(mask, attribute)

    def restrict_children_many(
        self, masks: Sequence[Mask], attribute: int
    ) -> List[Mask]:
        """The sibling families of a whole level's masks at ``attribute``,
        as one flat mask-major list (``c`` children per mask)."""
        return self._engine.restrict_children_many(masks, attribute)

    def match_mask(self, pattern: Pattern) -> Mask:
        """Mask over unique combinations matching ``pattern``."""
        return self._engine.match_mask(pattern)

    def coverage_of_mask(self, mask: Mask) -> int:
        """Total multiplicity of the unique combinations selected by ``mask``."""
        self.evaluations += 1
        return self._engine.count(mask)

    def coverage_of_masks(self, masks: Sequence[Mask]) -> np.ndarray:
        """Batched :meth:`coverage_of_mask` — one frontier, one pass."""
        self.evaluations += len(masks)
        return self._engine.count_many(masks)

    # ------------------------------------------------------------------
    # the oracle itself
    # ------------------------------------------------------------------
    def coverage(self, pattern: Pattern) -> int:
        """Definition 2: number of tuples of ``D`` matching ``pattern``."""
        return self.coverage_of_mask(self.match_mask(pattern))

    def coverage_many(
        self,
        patterns: Sequence[Pattern],
        memo: Optional[Dict[Tuple[int, ...], int]] = None,
    ) -> np.ndarray:
        """Batched :meth:`coverage` — a whole pattern-graph level at once.

        With a ``memo`` (a ``pattern.values -> count`` reuse table, see
        :meth:`CoverageEngine.coverage_many
        <repro.core.engine.base.CoverageEngine.coverage_many>`), only the
        patterns absent from the table count as evaluations — the sweep
        engine relies on this to report true amortized work.
        """
        if memo is None:
            self.evaluations += len(patterns)
        else:
            self.evaluations += sum(
                1 for p in patterns if p.values not in memo
            )
        return self._engine.coverage_many(patterns, memo=memo)

    def is_covered(self, pattern: Pattern, threshold: int) -> bool:
        """Definition 3: ``cov(P) >= τ``."""
        return self.coverage(pattern) >= threshold

    def matching_rows(self, pattern: Pattern) -> np.ndarray:
        """The unique value combinations matching ``pattern`` (one per kind)."""
        selected = self._engine.mask_to_bool(self._engine.match_mask(pattern))
        return self._engine.unique_rows[selected]


def coverage_scan(dataset: Dataset, pattern: Pattern) -> int:
    """Literal Definition 2: one pass over the raw rows, no indices.

    Kept as the ablation baseline for Appendix A's inverted-index design and
    as an independent correctness check in tests.
    """
    if len(pattern) != dataset.d:
        raise PatternError(
            f"pattern of length {len(pattern)} against d={dataset.d}"
        )
    rows = dataset.rows
    mask = np.ones(dataset.n, dtype=bool)
    for index in pattern.deterministic_indices():
        np.logical_and(mask, rows[:, index] == pattern[index], out=mask)
    return int(mask.sum())


def max_covered_level(
    mups: Sequence[Pattern], d: Optional[int] = None
) -> int:
    """Definition 6: the maximum level λ with every MUP strictly deeper.

    With no MUPs at all, the dataset is covered through level ``d`` (every
    pattern is covered); pass ``d`` to get that answer, otherwise the
    function returns ``min level - 1`` over the MUPs.
    """
    mups = list(mups)
    if not mups:
        if d is None:
            raise ValueError("need d to report the level of a fully covered dataset")
        return d
    return min(p.level for p in mups) - 1
