"""Threshold (τ) selection helpers (§V-B2, and the paper's future work).

The paper picks τ from statistical rules of thumb (20–50 samples per minor
subgroup; the Figure 11 accuracy curve flattens around 40).  These helpers
support that workflow: sweep τ and watch the MUP count, and locate the knee
of a subgroup-accuracy curve.

``threshold_sweep`` is backed by the amortized engine in
:mod:`repro.analysis.sweep`: one traversal counts each pattern once and
classifies every queried τ from its coverage interval, instead of rerunning
MUP identification per threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.sweep import sweep_mups
from repro.core.mups.base import ALGORITHMS, check_threshold
from repro.data.dataset import Dataset
from repro.exceptions import ReproError


@dataclass(frozen=True)
class ThresholdSweepRow:
    """One τ setting of a sweep.

    Attributes:
        threshold: absolute τ.
        mup_count: number of MUPs at that τ.
        max_covered_level: Definition 6 at that τ.
    """

    threshold: int
    mup_count: int
    max_covered_level: int


def threshold_sweep(
    dataset: Dataset,
    thresholds: Sequence[int],
    algorithm: str = "deepdiver",
) -> List[ThresholdSweepRow]:
    """MUP counts across a list of thresholds, in one amortized pass.

    ``algorithm`` is kept for interface stability and validated against
    the registry, but the rows come from a single
    :func:`~repro.analysis.sweep.sweep_mups` traversal (bit-identical MUP
    sets to any registered algorithm, counted once for the whole range).
    """
    taus = [check_threshold(threshold) for threshold in thresholds]
    if not taus:
        raise ReproError("need at least one threshold")
    if algorithm not in ALGORITHMS:
        raise ReproError(
            f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
        )
    sweep = sweep_mups(dataset, taus)
    rows = []
    for tau in taus:
        result = sweep.mups_at(tau)
        rows.append(
            ThresholdSweepRow(
                threshold=tau,
                mup_count=len(result),
                max_covered_level=result.max_covered_level(dataset.d),
            )
        )
    return rows


def suggest_threshold(
    counts: Sequence[int],
    scores: Sequence[float],
) -> int:
    """Locate the knee of an accuracy-vs-samples curve.

    Given per-setting subgroup sample counts and the model's subgroup scores
    (Figure 11's x and y), return the count after which the marginal score
    improvement drops below half of the largest step — the paper reads
    "around 40" off this curve and notes it matches the statistics rule of
    thumb of ~30.
    """
    if len(counts) != len(scores) or len(counts) < 3:
        raise ReproError("need at least 3 aligned (count, score) points")
    steps: List[Tuple[float, int]] = []
    for i in range(1, len(counts)):
        delta_x = counts[i] - counts[i - 1]
        if delta_x <= 0:
            raise ReproError("counts must be strictly increasing")
        steps.append(((scores[i] - scores[i - 1]) / delta_x, counts[i]))
    largest = max(slope for slope, _ in steps)
    if largest <= 0:
        # No improvement anywhere: the smallest count suffices.
        return int(counts[1])
    for slope, count in steps:
        if slope < largest / 2:
            return int(count)
    return int(counts[-1])
