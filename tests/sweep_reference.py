"""The threshold sweep with an eager frontier: the reference for the readers
of :class:`repro.analysis.sweep.SweepResult`.

``reference_sweep`` finds the frontier of the projected dataset
(``dataset.project``) from a coverage cube when its space passes
``cube_fits`` and from PATTERN-BREAKER's level walk otherwise, widens the
codes to full width, and then decodes every frontier row into a
:class:`SweepPoint` up front.  ``ReferenceSweep`` answers each
reader by scanning those points one at a time (``SweepPoint.is_mup_at``),
and ``reference_sensitivity`` diffs and bootstraps pattern sets.  The
shipped result keeps the frontier as code arrays and answers the same
readers with masks, so the tests pin the two to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sweep import MupTransition, SensitivityReport, SweepPoint
from repro.core.lattice import (
    UNBOUNDED,
    CoverageCube,
    PatternLattice,
    cube_fits,
    walk_dataset,
)
from repro.core.mups.base import MupResult
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace
from repro.data.sampling import bootstrap_resample


@dataclass(frozen=True)
class ReferenceSweep:
    """A sweep's answers read from its decoded, pattern-sorted frontier."""

    thresholds: Tuple[int, ...]
    frontier: Tuple[SweepPoint, ...]
    max_level: Optional[int]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "frontier",
            tuple(sorted(self.frontier, key=attrgetter("pattern.values"))),
        )

    @property
    def tau_min(self) -> int:
        return self.thresholds[0]

    def mups_at(self, threshold: int) -> MupResult:
        return MupResult(
            mups=tuple(
                point.pattern
                for point in self.frontier
                if point.is_mup_at(threshold)
            ),
            threshold=threshold,
            stats=None,
            max_level=self.max_level,
        )

    def mup_counts(self) -> Dict[int, int]:
        return {tau: len(self.mups_at(tau)) for tau in self.thresholds}

    def breakpoints(self) -> Tuple[MupTransition, ...]:
        return tuple(
            MupTransition(
                pattern=point.pattern,
                appears_at=max(point.appears_at, self.tau_min),
                disappears_above=point.disappears_above,
            )
            for point in self.frontier
        )


def reference_sweep(
    dataset,
    thresholds: Sequence[int],
    attributes: Optional[Sequence[int]] = None,
    max_level: Optional[int] = None,
) -> ReferenceSweep:
    """The frontier of every pattern whose MUP interval meets the range."""
    thresholds = tuple(sorted(set(thresholds)))
    tau_min, tau_max = thresholds[0], thresholds[-1]
    lattice = PatternLattice(PatternSpace.for_dataset(dataset))
    swept = sorted(set(range(dataset.d) if attributes is None else attributes))
    projected = dataset.project(swept)
    swept_lattice = PatternLattice(PatternSpace.for_dataset(projected))
    if cube_fits(swept_lattice.cardinalities, max_level):
        cube = CoverageCube(swept_lattice, *projected.unique_rows())
        keep = _meets_range(cube.counts, cube.floors, tau_min, tau_max)
        if max_level is not None:
            keep &= cube.levels() <= max_level
        cells = np.flatnonzero(keep)
        counts, floors = cube.counts[cells], cube.floors[cells]
    else:
        walk = walk_dataset(projected, tau_min, max_level)
        keep = _meets_range(walk.counts, walk.min_parent, tau_min, tau_max)
        cells, counts, floors = walk.codes[keep], walk.counts[keep], walk.min_parent[keep]
    digits = np.zeros((len(cells), lattice.d), dtype=np.int64)
    digits[:, swept] = swept_lattice.digits(cells)
    codes = lattice.from_digits(digits)
    frontier = tuple(
        SweepPoint(pattern, coverage, None if floor == UNBOUNDED else floor)
        for pattern, coverage, floor in zip(
            lattice.decode(codes), counts.tolist(), floors.tolist()
        )
    )
    return ReferenceSweep(thresholds, frontier, max_level)


def _meets_range(counts, floors, tau_min, tau_max):
    return (counts < floors) & (counts < tau_max) & (floors >= tau_min)


def reference_sensitivity(
    dataset,
    thresholds: Sequence[int],
    attributes: Optional[Sequence[int]] = None,
    max_level: Optional[int] = None,
    bootstrap: int = 0,
    seed: int = 0,
) -> SensitivityReport:
    """``threshold_sensitivity`` over pattern sets."""
    sweep = reference_sweep(dataset, thresholds, attributes, max_level)
    base_sets = {tau: sweep.mups_at(tau).as_set() for tau in sweep.thresholds}
    appeared: Dict[int, Tuple[Pattern, ...]] = {}
    disappeared: Dict[int, Tuple[Pattern, ...]] = {}
    for previous, current in zip(sweep.thresholds, sweep.thresholds[1:]):
        appeared[current] = tuple(sorted(base_sets[current] - base_sets[previous]))
        disappeared[current] = tuple(sorted(base_sets[previous] - base_sets[current]))
    support: Dict[int, Dict[Pattern, float]] = {}
    novel_rate: Dict[int, float] = {}
    if bootstrap > 0:
        hits = {tau: {p: 0 for p in base_sets[tau]} for tau in sweep.thresholds}
        novel = {tau: 0 for tau in sweep.thresholds}
        for replicate in range(bootstrap):
            resampled = bootstrap_resample(dataset, seed=[seed, replicate])
            replica = reference_sweep(resampled, sweep.thresholds, attributes, max_level)
            for tau in sweep.thresholds:
                replica_set = replica.mups_at(tau).as_set()
                for pattern in replica_set & base_sets[tau]:
                    hits[tau][pattern] += 1
                novel[tau] += len(replica_set - base_sets[tau])
        support = {
            tau: {p: count / bootstrap for p, count in table.items()}
            for tau, table in hits.items()
        }
        novel_rate = {tau: novel[tau] / bootstrap for tau in sweep.thresholds}
    return SensitivityReport(
        thresholds=sweep.thresholds,
        counts=sweep.mup_counts(),
        appeared=appeared,
        disappeared=disappeared,
        transitions=sweep.breakpoints(),
        bootstrap_replicates=bootstrap,
        support=support,
        novel_rate=novel_rate,
        seed=seed,
    )
