"""The coverage widget for a dataset "nutritional label" (§I).

The paper proposes surfacing lack-of-coverage information as a widget in a
dataset's nutritional label (Yang et al., SIGMOD 2018).  This module distils
a MUP identification run into the summary a label would print: MUP counts by
level, the maximum covered level, and the most general (most alarming)
uncovered regions rendered with human-readable attribute values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.engine import EngineSpec, check_engine
from repro.core.mups.base import MupResult, find_mups
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset


@dataclass(frozen=True)
class CoverageLabel:
    """The coverage section of a dataset nutritional label.

    Attributes:
        n: dataset size.
        d: number of attributes of interest.
        threshold: coverage threshold used.
        mup_count: number of maximal uncovered patterns.
        level_histogram: MUP count per level.
        max_covered_level: Definition 6 for the dataset.
        headline_gaps: the most general MUPs, rendered human-readably.
    """

    n: int
    d: int
    threshold: int
    mup_count: int
    level_histogram: Dict[int, int]
    max_covered_level: int
    headline_gaps: Tuple[str, ...]

    def render(self) -> str:
        """Plain-text rendering of the widget."""
        lines = [
            "Coverage",
            f"  rows analysed        {self.n}",
            f"  attributes           {self.d}",
            f"  threshold (τ)        {self.threshold}",
            f"  uncovered regions    {self.mup_count} maximal pattern(s)",
            f"  max covered level    {self.max_covered_level} of {self.d}",
        ]
        if self.level_histogram:
            histogram = ", ".join(
                f"L{level}:{count}" for level, count in self.level_histogram.items()
            )
            lines.append(f"  MUPs by level        {histogram}")
        if self.headline_gaps:
            lines.append("  largest gaps:")
            for gap in self.headline_gaps:
                lines.append(f"    - {gap}")
        return "\n".join(lines)


def coverage_label(
    dataset: Dataset,
    threshold: int,
    algorithm: str = "deepdiver",
    headline_limit: int = 5,
    max_level: Optional[int] = None,
    result: Optional[MupResult] = None,
    engine: EngineSpec = None,
) -> CoverageLabel:
    """Compute the coverage widget for ``dataset``.

    Args:
        dataset: the dataset to label.
        threshold: coverage threshold ``τ``.
        algorithm: MUP identification algorithm to run.
        headline_limit: how many of the most general MUPs to feature.
        max_level: optionally restrict the search depth (large schemas).
        result: reuse an existing MUP identification result.
        engine: coverage-engine spec for the identification run, as
            :func:`~repro.core.mups.base.find_mups` takes it; checked
            also when ``result`` is given.
    """
    check_engine(engine, dataset)
    if result is None:
        result = find_mups(
            dataset,
            threshold=threshold,
            algorithm=algorithm,
            max_level=max_level,
            engine=engine,
        )
    ranked: List[Pattern] = sorted(result.mups, key=lambda p: (p.level, p.values))
    headlines = tuple(
        pattern.describe(dataset.schema) for pattern in ranked[:headline_limit]
    )
    return CoverageLabel(
        n=dataset.n,
        d=dataset.d,
        threshold=result.threshold,
        mup_count=len(result),
        level_histogram=result.level_histogram(),
        max_covered_level=result.max_covered_level(dataset.d),
        headline_gaps=headlines,
    )
