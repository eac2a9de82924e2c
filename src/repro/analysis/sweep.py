"""Amortized threshold sweep: MUP sets for an entire τ range in one pass.

Running :func:`~repro.core.mups.find_mups` once per threshold repeats
almost all of its work: coverage counts are a pure function of the dataset
— τ only enters as a *comparison* against them.  A pattern ``P`` (with at
least one parent) is a MUP at exactly the thresholds in the half-open
interval

    ``cov(P) < τ ≤ min over parents Q of cov(Q)``

(the root, having no parents, is a MUP iff ``τ > cov(root) = n``).  So one
level-wise traversal that records, per pattern, its coverage and its
minimum parent coverage classifies *every* τ at once; the per-pattern
interval endpoints are the τ* breakpoints where the pattern enters and
leaves the MUP frontier.

Both ends of every interval are read from one of two structures, chosen
from the cardinalities and the level cap alone:

* **The coverage cube** (:class:`~repro.core.lattice.CoverageCube`, the
  data cube of Gray et al., ICDE 1996) when the swept space passes
  :func:`~repro.core.lattice.cube_fits`, the cell rule PATTERN-BREAKER's
  walk uses too: one cell per pattern holding its coverage and its
  smallest parent count, built from the unique rows in 2d numpy passes.
  The frontier is the cells whose interval meets ``[τ_min, τ_max]`` (and
  whose level is within the cap, when one is given), in ascending code
  order, which is pattern order.
* **PATTERN-BREAKER's group-by level walk**
  (:func:`~repro.core.lattice.walk_levels` over a
  :class:`~repro.core.lattice.GroupCounter`, each pattern generated once
  from its rightmost-deterministic parent) otherwise, pruned with the
  *smallest* queried threshold; the frontier is the counted candidates
  whose interval meets the range.  The walk computes only the iceberg
  part of the cube (Beyer & Ramakrishnan, SIGMOD 1999), so its memory
  follows the data, not the space.

The two frontiers are equal.  The walk counts, with its exact coverage and
smallest parent count, every pattern whose parents all reach τ_min: such
a pattern's ancestors reach τ_min too (coverage only falls going down), so
each is generated from its covered Rule-1 parent and never pruned.  The
walk drops only candidates with a parent below τ_min, and such a
candidate's interval ends at that parent's count, below τ_min, so the
cube's filter drops it as well.  Under a level cap both keep exactly the
patterns of level ≤ the cap.  An attribute-subset projection sweeps only
those attributes: both paths read the unique rows projected onto them,
and a projected pattern is the full-width pattern with ``X`` elsewhere.

A :class:`SweepResult` keeps the frontier as it was found: ascending
lattice codes (pattern order) with their ``int64`` coverages and smallest
parent counts.  Every reader is a mask over those arrays, and
:class:`~repro.core.pattern.Pattern` objects are decoded only for what it
returns:

* :func:`sweep_mups` decodes nothing;
* ``mups_at(τ)`` masks ``count < τ ≤ floor`` and decodes its own MUPs;
* ``mup_counts()`` counts each τ's mask and decodes nothing;
* ``breakpoints()`` decodes the whole frontier, and ``frontier`` decodes
  it once, on first read, into :class:`SweepPoint` rows.

Each row is decoded at most once over the result's life, however many
readers return it.

On top of the sweep, :func:`threshold_sensitivity` builds a
:class:`SensitivityReport`: appear/disappear diffs between consecutive
queried thresholds, per-pattern τ* breakpoints, and (optionally) bootstrap
support — the fraction of resampled replicates in which each MUP survives.
It takes each τ's count and diffs from the masks, decodes the frontier
once for the breakpoints, and takes the diffs' and the support tables'
patterns from that decoding.  A replicate resamples the rows, so it
sweeps the same lattice: it is compared with the base by code and decodes
nothing.

README's threshold-sweep section times each reader against the sweep that
decoded its whole frontier up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import SearchStats, Stopwatch
from repro.core.engine import EngineSpec, check_engine
from repro.core.lattice import (
    UNBOUNDED,
    CoverageCube,
    GroupCounter,
    PatternLattice,
    cube_fits,
    walk_levels,
)
from repro.core.mups.base import MupResult, check_threshold, resolve_max_level
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset
from repro.data.sampling import bootstrap_resample
from repro.exceptions import ReproError

__all__ = [
    "SweepPoint",
    "SweepResult",
    "MupTransition",
    "SensitivityReport",
    "sweep_mups",
    "threshold_sensitivity",
    "parse_tau_range",
]


# ----------------------------------------------------------------------
# result types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One pattern on the sweep frontier with its MUP interval.

    Attributes:
        pattern: the pattern.
        coverage: ``cov(P)``.
        min_parent_coverage: smallest coverage over the parents of ``P``;
            ``None`` for the root, whose interval is unbounded above.
    """

    pattern: Pattern
    coverage: int
    min_parent_coverage: Optional[int]

    @property
    def appears_at(self) -> int:
        """Smallest τ at which the pattern is a MUP: ``cov(P) + 1``."""
        return self.coverage + 1

    @property
    def disappears_above(self) -> Optional[int]:
        """Largest τ at which the pattern is a MUP (``None`` = never stops).

        Above this τ some parent is uncovered too, so the MUP frontier
        moves *up* past this pattern.
        """
        return self.min_parent_coverage

    def is_mup_at(self, threshold: int) -> bool:
        """Interval membership: ``cov(P) < τ ≤ min_parent_coverage``."""
        if threshold <= self.coverage:
            return False
        return (
            self.min_parent_coverage is None
            or threshold <= self.min_parent_coverage
        )


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Everything one amortized traversal learned about a τ range.

    ``mups_at`` is exact for **any** integer τ with
    ``min(thresholds) ≤ τ ≤ max(thresholds)`` — the frontier retains every
    pattern whose MUP interval intersects the closed range, not only the
    explicitly queried settings.

    The frontier is held as ascending codes of ``_lattice`` with their
    coverages and smallest parent counts (:data:`UNBOUNDED` for the root);
    :func:`sweep_mups` builds it.  Two results are equal when their
    thresholds, frontiers, stats, ``d``, attributes and level caps are,
    whatever the cardinalities of their lattices.

    Attributes:
        thresholds: the queried τ settings, sorted and deduplicated.
        frontier: the retained :class:`SweepPoint` rows, sorted by pattern;
            decoded on first read.
        stats: traversal counters (coverage evaluations are *distinct*
            patterns counted — the amortized work, not #thresholds × work).
            On the walk they are the walk's; read from the cube,
            ``nodes_generated = coverage_evaluations =`` the cube's cells
            (every pattern of the swept space, whatever the level cap) and
            ``pruned = 0``.
        d: dataset dimensionality (for Definition 6 reporting).
        attributes: the attribute subset swept, ``None`` = all.
        max_level: the level cap, when one was applied.
    """

    thresholds: Tuple[int, ...]
    stats: SearchStats
    d: int
    attributes: Optional[Tuple[int, ...]]
    max_level: Optional[int]
    _lattice: PatternLattice = field(repr=False)
    _codes: np.ndarray = field(repr=False)
    _counts: np.ndarray = field(repr=False)
    _floors: np.ndarray = field(repr=False)

    @property
    def tau_min(self) -> int:
        return self.thresholds[0]

    @property
    def tau_max(self) -> int:
        return self.thresholds[-1]

    @cached_property
    def frontier(self) -> Tuple[SweepPoint, ...]:
        patterns, floors = self._decoded()
        return tuple(map(SweepPoint, patterns, self._counts.tolist(), floors))

    def mups_at(self, threshold: int) -> MupResult:
        """The exact MUP set at ``threshold`` (any integer in range).

        Bit-identical to running :func:`~repro.core.mups.find_mups` at the
        same τ: the frontier intervals are a lossless classification.
        """
        threshold = check_threshold(threshold)
        if not self.tau_min <= threshold <= self.tau_max:
            raise ReproError(
                f"threshold {threshold} outside the swept range "
                f"[{self.tau_min}, {self.tau_max}]"
            )
        return MupResult(
            mups=self._patterns(np.flatnonzero(self._is_mup(threshold))),
            threshold=threshold,
            stats=self.stats,
            max_level=self.max_level,
            ordered=True,  # ascending rows, ascending codes
        )

    def mup_counts(self) -> Dict[int, int]:
        """MUP count per queried threshold (the τ-vs-|MUPs| curve)."""
        return {
            tau: int(np.count_nonzero(self._is_mup(tau))) for tau in self.thresholds
        }

    def breakpoints(self) -> Tuple["MupTransition", ...]:
        """Per-pattern τ* transitions, clipped to the swept range."""
        patterns, floors = self._decoded()
        appears = np.maximum(self._counts + 1, self.tau_min).tolist()
        return tuple(map(MupTransition, patterns, appears, floors))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        return (
            (self.thresholds, self.stats, self.d, self.attributes, self.max_level)
            == (other.thresholds, other.stats, other.d, other.attributes, other.max_level)
            and np.array_equal(self._counts, other._counts)
            and np.array_equal(self._floors, other._floors)
            # Digits, not codes: over other cardinalities a pattern has
            # another code.
            and np.array_equal(
                self._lattice.digits(self._codes), other._lattice.digits(other._codes)
            )
        )

    def _is_mup(self, threshold: int) -> np.ndarray:
        """Which frontier rows are MUPs at ``threshold``: ``cov < τ ≤ floor``."""
        return (self._counts < threshold) & (self._floors >= threshold)

    def _decoded(self) -> Tuple[List[Pattern], List[Optional[int]]]:
        """Every frontier pattern, and its smallest parent count (``None``
        for the root)."""
        floors = self._floors.tolist()
        return (
            self._patterns(np.arange(len(self._codes))),
            [None if floor == UNBOUNDED else floor for floor in floors],
        )

    @cached_property
    def _known(self) -> List[Optional[Pattern]]:
        """Each frontier row's pattern, once a reader has decoded it."""
        return [None] * len(self._codes)

    def _patterns(self, rows: np.ndarray) -> List[Pattern]:
        """The patterns of frontier ``rows``, decoding the rows no reader
        decoded before: the τ of one range share most of their MUPs."""
        known, rows = self._known, rows.tolist()
        missing = [row for row in rows if known[row] is None]
        if missing:
            for row, pattern in zip(missing, self._lattice.decode(self._codes[missing])):
                known[row] = pattern
        return [known[row] for row in rows]


@dataclass(frozen=True)
class MupTransition:
    """τ* breakpoints of one pattern.

    Attributes:
        pattern: the pattern.
        appears_at: smallest swept τ at which it is a MUP.
        disappears_above: largest τ at which it remains one (``None`` =
            it stays a MUP for every larger τ).
    """

    pattern: Pattern
    appears_at: int
    disappears_above: Optional[int]


@dataclass(frozen=True)
class SensitivityReport:
    """How the MUP frontier responds to Δτ and to resampling noise.

    Attributes:
        thresholds: the queried τ settings (sorted, deduplicated).
        counts: MUP count per queried τ.
        appeared: per queried τ (after the first), MUPs present there but
            not at the previous queried τ.
        disappeared: per queried τ, MUPs of the previous queried τ that are
            no longer MUPs (the frontier moved up past them).
        transitions: per-pattern τ* breakpoints for the whole frontier.
        bootstrap_replicates: number of bootstrap resamples taken (0 =
            no bootstrap pass).
        support: for each queried τ, for each base-sweep MUP at that τ, the
            fraction of replicates in which it is still a MUP; empty when
            ``bootstrap_replicates == 0``.
        novel_rate: for each queried τ, the mean number of replicate MUPs
            *not* present in the base sweep — how much of the frontier is
            sampling artifact.
        seed: base RNG seed of the bootstrap pass.
    """

    thresholds: Tuple[int, ...]
    counts: Dict[int, int]
    appeared: Dict[int, Tuple[Pattern, ...]]
    disappeared: Dict[int, Tuple[Pattern, ...]]
    transitions: Tuple[MupTransition, ...]
    bootstrap_replicates: int = 0
    support: Dict[int, Dict[Pattern, float]] = field(default_factory=dict)
    novel_rate: Dict[int, float] = field(default_factory=dict)
    seed: int = 0

    def stable_mups(self, threshold: int, min_support: float = 1.0) -> Tuple[Pattern, ...]:
        """Base MUPs at ``threshold`` with bootstrap support ≥ ``min_support``."""
        table = self.support.get(check_threshold(threshold))
        if table is None:
            raise ReproError(
                f"no bootstrap support recorded for threshold {threshold}"
            )
        return tuple(
            sorted(p for p, s in table.items() if s >= min_support)
        )

    def as_dict(self) -> dict:
        """JSON-ready form (patterns rendered in the paper's ``1XX0`` style)."""
        return {
            "thresholds": list(self.thresholds),
            "counts": {str(t): c for t, c in self.counts.items()},
            "appeared": {
                str(t): [str(p) for p in patterns]
                for t, patterns in self.appeared.items()
            },
            "disappeared": {
                str(t): [str(p) for p in patterns]
                for t, patterns in self.disappeared.items()
            },
            "transitions": [
                {
                    "pattern": str(t.pattern),
                    "appears_at": t.appears_at,
                    "disappears_above": t.disappears_above,
                }
                for t in self.transitions
            ],
            "bootstrap_replicates": self.bootstrap_replicates,
            "support": {
                str(t): {str(p): s for p, s in sorted(table.items())}
                for t, table in self.support.items()
            },
            "novel_rate": {str(t): r for t, r in self.novel_rate.items()},
            "seed": self.seed,
        }


# ----------------------------------------------------------------------
# input normalization
# ----------------------------------------------------------------------
def parse_tau_range(text: str) -> Tuple[int, ...]:
    """Parse a CLI τ-range: ``"5"``, ``"2:10"``, or ``"2:10:2"``.

    ``lo:hi`` is inclusive on both ends; the optional third field is the
    step.  Comma lists (``"2,5,9"``) are accepted too.
    """
    text = text.strip()
    if "," in text:
        try:
            return _normalize_thresholds([int(p) for p in text.split(",")])
        except ValueError:
            raise ReproError(f"invalid τ list {text!r}")
    parts = text.split(":")
    if len(parts) > 3:
        raise ReproError(f"invalid τ range {text!r}; use lo:hi or lo:hi:step")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise ReproError(f"invalid τ range {text!r}; use lo:hi or lo:hi:step")
    if len(numbers) == 1:
        return _normalize_thresholds(numbers)
    lo, hi = numbers[0], numbers[1]
    step = numbers[2] if len(numbers) == 3 else 1
    if step < 1:
        raise ReproError(f"τ range step must be >= 1, got {step}")
    if hi < lo:
        raise ReproError(f"empty τ range {text!r} (hi < lo)")
    return _normalize_thresholds(range(lo, hi + 1, step))


def _normalize_thresholds(thresholds: Sequence[int]) -> Tuple[int, ...]:
    values = sorted({check_threshold(t) for t in thresholds})
    if not values:
        raise ReproError("need at least one threshold")
    return tuple(values)


def _normalize_attributes(
    attributes: Optional[Sequence[int]], d: int
) -> Optional[Tuple[int, ...]]:
    if attributes is None:
        return None
    attrs = sorted({int(a) for a in attributes})
    if not attrs:
        raise ReproError("attribute subset must name at least one attribute")
    if attrs[0] < 0 or attrs[-1] >= d:
        raise ReproError(
            f"attribute subset {attrs} out of range for d={d}"
        )
    return tuple(attrs)


# ----------------------------------------------------------------------
# the amortized traversal
# ----------------------------------------------------------------------
def sweep_mups(
    dataset: Dataset,
    thresholds: Sequence[int],
    attributes: Optional[Sequence[int]] = None,
    max_level: Optional[int] = None,
    engine: EngineSpec = None,
) -> SweepResult:
    """One amortized pass classifying every τ in ``[min, max]`` at once.

    Args:
        dataset: the dataset to assess.
        thresholds: the τ settings of interest (deduplicated and sorted;
            the result answers any integer τ between the extremes).
        attributes: optional attribute subset — sweep the pattern graph
            projected onto these attributes (patterns keep full width,
            with ``X`` on the excluded attributes).
        max_level: only consider patterns at level ≤ this cap.
        engine: checked by :func:`~repro.core.engine.check_engine` and
            otherwise unused: levels are counted from the aggregated unique
            rows, not through per-pattern queries.

    Returns:
        A :class:`SweepResult` whose ``mups_at(τ)`` is bit-identical to
        :func:`~repro.core.mups.find_mups` at every τ in the swept range.
    """
    thresholds = _normalize_thresholds(thresholds)
    attrs = _normalize_attributes(attributes, dataset.d)
    max_level = resolve_max_level(max_level)
    check_engine(engine, dataset)

    watch = Stopwatch()
    tau_min, tau_max = thresholds[0], thresholds[-1]
    lattice = PatternLattice(PatternSpace.for_dataset(dataset))
    rows, multiplicities = dataset.unique_rows()
    swept, swept_lattice = list(range(dataset.d) if attrs is None else attrs), lattice
    if len(swept) < dataset.d:
        swept_lattice = PatternLattice(
            PatternSpace([lattice.cardinalities[a] for a in swept])
        )
        rows = rows[:, swept]
    if cube_fits(swept_lattice.cardinalities, max_level):
        cube = CoverageCube(swept_lattice, rows, multiplicities)
        keep = _meets_range(cube.counts, cube.floors, tau_min, tau_max)
        if max_level is not None:
            keep &= cube.levels() <= max_level
        codes = np.flatnonzero(keep)
        counts, floors = cube.counts[codes], cube.floors[codes]
        stats = SearchStats(nodes_generated=cube.size, coverage_evaluations=cube.size)
    else:
        # Pruning with τ_min keeps exactly the candidates whose MUP
        # interval can meet the swept range, plus the parent counts their
        # intervals need: a parent below τ_min is uncovered at every
        # queried τ.
        count = GroupCounter(swept_lattice, rows, multiplicities)
        walk = walk_levels(swept_lattice, count, tau_min, max_level)
        keep = np.flatnonzero(
            _meets_range(walk.counts, walk.min_parent, tau_min, tau_max)
        )
        keep = keep[np.argsort(walk.codes[keep])]
        codes, counts, floors = walk.codes[keep], walk.counts[keep], walk.min_parent[keep]
        stats = walk.stats
    if swept_lattice is not lattice:
        codes = _widen(codes, swept_lattice, lattice, swept)
    stats.seconds = watch.elapsed()
    return SweepResult(
        thresholds=thresholds,
        stats=stats,
        d=dataset.d,
        attributes=attrs,
        max_level=max_level,
        _lattice=lattice,
        _codes=codes,
        _counts=counts,
        _floors=floors,
    )


def _meets_range(
    counts: np.ndarray, floors: np.ndarray, tau_min: int, tau_max: int
) -> np.ndarray:
    """Whether each MUP interval ``[count + 1, floor]`` meets
    ``[tau_min, tau_max]``: ``max(count + 1, τ_min) ≤ min(floor, τ_max)``,
    as three comparisons since ``τ_min ≤ τ_max``."""
    return (counts < floors) & (counts < tau_max) & (floors >= tau_min)


def _widen(
    codes: np.ndarray,
    swept_lattice: PatternLattice,
    lattice: PatternLattice,
    swept: Sequence[int],
) -> np.ndarray:
    """The ``lattice`` codes of ``swept_lattice`` codes over the ascending
    attributes ``swept``: the same digits there and ``X`` elsewhere, so
    ascending codes stay ascending.

    Within a run of consecutive swept attributes, the two lattices' place
    values differ by one factor, so each run costs one division, one
    modulo and one multiplication over the codes.
    """
    codes = codes.astype(lattice.dtype)
    wide = np.zeros(len(codes), dtype=lattice.dtype)
    starts = [0] + [j for j in range(1, len(swept)) if swept[j] != swept[j - 1] + 1]
    for first, stop in zip(starts, starts[1:] + [len(swept)]):
        low = swept_lattice.weights[stop - 1]
        span = swept_lattice.weights[first] * (swept_lattice.cardinalities[first] + 1) // low
        wide += codes // low % span * lattice.weights[swept[stop - 1]]
    return wide


# ----------------------------------------------------------------------
# sensitivity
# ----------------------------------------------------------------------
def threshold_sensitivity(
    dataset: Dataset,
    thresholds: Sequence[int],
    attributes: Optional[Sequence[int]] = None,
    max_level: Optional[int] = None,
    bootstrap: int = 0,
    seed: int = 0,
    sweep: Optional[SweepResult] = None,
) -> SensitivityReport:
    """Diff the MUP frontier across Δτ and across bootstrap resamples.

    Args:
        dataset: the dataset to assess.
        thresholds: queried τ settings.
        attributes: optional attribute-subset projection.
        max_level: optional level cap.
        bootstrap: number of bootstrap replicates (0 = skip the
            resampling pass).
        seed: base seed; replicate ``b`` uses the derived stream
            ``[seed, b]``, so reports are deterministic in ``seed``.
        sweep: optionally reuse an existing base :class:`SweepResult`; its
            normalized thresholds, attributes and level cap must equal
            ``thresholds``/``attributes``/``max_level``, and its
            cardinalities the dataset's, else :class:`ReproError`.

    Returns:
        A :class:`SensitivityReport`.
    """
    if bootstrap < 0:
        raise ReproError(f"bootstrap must be >= 0, got {bootstrap}")
    if sweep is None:
        sweep = sweep_mups(
            dataset,
            thresholds,
            attributes=attributes,
            max_level=max_level,
        )
    else:
        # The report and its bootstrap replicates must answer one analysis.
        asked = (
            _normalize_thresholds(thresholds),
            _normalize_attributes(attributes, dataset.d),
            resolve_max_level(max_level),
        )
        passed = (sweep.thresholds, sweep.attributes, sweep.max_level)
        if asked != passed:
            raise ReproError(
                "the passed sweep covers (thresholds, attributes, max_level) "
                f"= {passed}, but the arguments ask for {asked}"
            )
        # Replicates are compared with the base by code, over one lattice.
        cardinalities = PatternSpace.for_dataset(dataset).cardinalities
        if sweep._lattice.cardinalities != cardinalities:
            raise ReproError(
                f"the passed sweep is over cardinalities "
                f"{sweep._lattice.cardinalities}, but the dataset's are "
                f"{cardinalities}"
            )
    is_mup = {tau: sweep._is_mup(tau) for tau in sweep.thresholds}
    # The breakpoints decode the whole frontier; every other answer takes
    # its patterns from theirs.
    transitions = sweep.breakpoints()

    def pick(rows: np.ndarray) -> Tuple[Pattern, ...]:
        return tuple(transitions[row].pattern for row in np.flatnonzero(rows).tolist())

    appeared: Dict[int, Tuple[Pattern, ...]] = {}
    disappeared: Dict[int, Tuple[Pattern, ...]] = {}
    for previous, current in zip(sweep.thresholds, sweep.thresholds[1:]):
        appeared[current] = pick(is_mup[current] & ~is_mup[previous])
        disappeared[current] = pick(is_mup[previous] & ~is_mup[current])

    support: Dict[int, Dict[Pattern, float]] = {}
    novel_rate: Dict[int, float] = {}
    if bootstrap > 0:
        # Each τ's base MUPs as ascending codes, and how many replicates
        # found each of them.
        base = {tau: sweep._codes[is_mup[tau]] for tau in sweep.thresholds}
        hits = {tau: np.zeros(len(codes), dtype=np.int64) for tau, codes in base.items()}
        novel: Dict[int, int] = {tau: 0 for tau in sweep.thresholds}
        for replicate in range(bootstrap):
            resampled = bootstrap_resample(dataset, seed=[seed, replicate])
            replica = sweep_mups(
                resampled,
                sweep.thresholds,
                attributes=attributes,
                max_level=max_level,
            )
            for tau in sweep.thresholds:
                found = replica._codes[replica._is_mup(tau)]
                kept = np.isin(base[tau], found)
                hits[tau] += kept
                novel[tau] += len(found) - int(np.count_nonzero(kept))
        support = {
            tau: dict(zip(pick(is_mup[tau]), (hits[tau] / bootstrap).tolist()))
            for tau in sweep.thresholds
        }
        novel_rate = {tau: novel[tau] / bootstrap for tau in sweep.thresholds}

    return SensitivityReport(
        thresholds=sweep.thresholds,
        counts=sweep.mup_counts(),
        appeared=appeared,
        disappeared=disappeared,
        transitions=transitions,
        bootstrap_replicates=bootstrap,
        support=support,
        novel_rate=novel_rate,
        seed=seed,
    )
