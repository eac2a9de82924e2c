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

The traversal counts the pattern graph level by level (apriori-style,
each pattern generated exactly once from its rightmost-deterministic
parent) and prunes with the *smallest* queried threshold: a pattern whose
coverage falls below ``τ_min`` is uncovered at every queried τ, so no
descendant can have all parents covered at any of them — the subtree is
dead for the whole range.  Each surviving pattern is counted once via the
batched, memoized :meth:`CoverageOracle.coverage_many
<repro.core.coverage.CoverageOracle.coverage_many>`, and attribute-subset
projections reuse the same engine (a projected pattern is just a full-width
pattern with ``X`` on the excluded attributes) and the same count memo.

On top of the sweep, :func:`threshold_sensitivity` builds a
:class:`SensitivityReport`: appear/disappear diffs between consecutive
queried thresholds, per-pattern τ* breakpoints, and (optionally) bootstrap
support — the fraction of resampled replicates in which each MUP survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle
from repro.core.engine import EngineSpec
from repro.core.mups.base import MupResult
from repro.core.pattern import Pattern
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


@dataclass(frozen=True)
class SweepResult:
    """Everything one amortized traversal learned about a τ range.

    ``mups_at`` is exact for **any** integer τ with
    ``min(thresholds) ≤ τ ≤ max(thresholds)`` — the frontier retains every
    pattern whose MUP interval intersects the closed range, not only the
    explicitly queried settings.

    Attributes:
        thresholds: the queried τ settings, sorted and deduplicated.
        frontier: the retained :class:`SweepPoint` rows, sorted by pattern.
        stats: traversal counters (coverage evaluations are *distinct*
            patterns counted — the amortized work, not #thresholds × work).
        d: dataset dimensionality (for Definition 6 reporting).
        attributes: the attribute subset swept, ``None`` = all.
        max_level: the level cap, when one was applied.
    """

    thresholds: Tuple[int, ...]
    frontier: Tuple[SweepPoint, ...]
    stats: SearchStats
    d: int
    attributes: Optional[Tuple[int, ...]] = None
    max_level: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "frontier",
            tuple(sorted(self.frontier, key=lambda p: p.pattern)),
        )

    @property
    def tau_min(self) -> int:
        return self.thresholds[0]

    @property
    def tau_max(self) -> int:
        return self.thresholds[-1]

    def mups_at(self, threshold: int) -> MupResult:
        """The exact MUP set at ``threshold`` (any integer in range).

        Bit-identical to running :func:`~repro.core.mups.find_mups` at the
        same τ: the frontier intervals are a lossless classification.
        """
        threshold = int(threshold)
        if not self.tau_min <= threshold <= self.tau_max:
            raise ReproError(
                f"threshold {threshold} outside the swept range "
                f"[{self.tau_min}, {self.tau_max}]"
            )
        return MupResult(
            mups=tuple(
                point.pattern
                for point in self.frontier
                if point.is_mup_at(threshold)
            ),
            threshold=threshold,
            stats=self.stats,
            max_level=self.max_level,
        )

    def mup_counts(self) -> Dict[int, int]:
        """MUP count per queried threshold (the τ-vs-|MUPs| curve)."""
        return {tau: len(self.mups_at(tau)) for tau in self.thresholds}

    def breakpoints(self) -> Tuple["MupTransition", ...]:
        """Per-pattern τ* transitions, clipped to the swept range."""
        return tuple(
            MupTransition(
                pattern=point.pattern,
                appears_at=max(point.appears_at, self.tau_min),
                disappears_above=point.disappears_above,
            )
            for point in self.frontier
        )


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
        table = self.support.get(int(threshold))
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
    values = sorted({int(t) for t in thresholds})
    if not values:
        raise ReproError("need at least one threshold")
    if values[0] < 1:
        raise ReproError(f"thresholds must be >= 1, got {values[0]}")
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
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
    memo: Optional[Dict[Tuple[int, ...], int]] = None,
) -> SweepResult:
    """One amortized pass classifying every τ in ``[min, max]`` at once.

    Args:
        dataset: the dataset to assess.
        thresholds: the τ settings of interest (deduplicated and sorted;
            the result answers any integer τ between the extremes).
        attributes: optional attribute subset — sweep the pattern graph
            projected onto these attributes (patterns keep full width,
            with ``X`` on the excluded attributes) while sharing the same
            engine and count memo as the full-width sweep.
        max_level: only consider patterns at level ≤ this cap.
        oracle: optionally reuse a prebuilt coverage oracle.
        engine: engine selection when no oracle is given (``"auto"``
            consults the planner).
        memo: optional ``pattern.values -> count`` reuse table, shared
            across calls on the *same dataset* (projections, repeated
            sweeps); pass a plain dict and keep it per-dataset.

    Returns:
        A :class:`SweepResult` whose ``mups_at(τ)`` is bit-identical to
        :func:`~repro.core.mups.find_mups` at every τ in the swept range.
    """
    thresholds = _normalize_thresholds(thresholds)
    attrs = _normalize_attributes(attributes, dataset.d)
    active = attrs if attrs is not None else tuple(range(dataset.d))
    if max_level is not None and max_level < 0:
        raise ReproError(f"max_level must be >= 0, got {max_level}")
    if oracle is None:
        oracle = CoverageOracle(dataset, engine)
    if memo is None:
        memo = {}

    watch = Stopwatch()
    evaluations_before = oracle.evaluations
    tau_min, tau_max = thresholds[0], thresholds[-1]
    cardinalities = dataset.cardinalities
    depth = len(active) if max_level is None else min(max_level, len(active))

    frontier: List[SweepPoint] = []
    nodes_generated = 1  # the root
    pruned = 0

    root = Pattern.root(dataset.d)
    root_cov = int(oracle.coverage_many([root], memo=memo)[0])
    _retain(frontier, root, root_cov, None, tau_min, tau_max)

    # Level tables: pattern.values -> coverage, for every pattern whose
    # strict ancestors are all covered at τ_min (exactly the candidates
    # whose MUP interval can intersect the swept range, plus the parent
    # counts the next level's intervals need).
    table: Dict[Tuple[int, ...], int] = {root.values: root_cov}
    # Expandable = in the table AND itself covered at τ_min.
    expandable: List[Pattern] = [root] if root_cov >= tau_min else []

    for _level in range(depth):
        if not expandable:
            break
        candidates: List[Pattern] = []
        min_parent: List[int] = []
        seen: set = set()
        for pattern in expandable:
            start = pattern.rightmost_deterministic()
            for attribute in active:
                if attribute <= start:
                    continue
                for value in range(cardinalities[attribute]):
                    child = pattern.with_value(attribute, value)
                    nodes_generated += 1
                    # Survival: every parent present in the previous
                    # level's table with coverage ≥ τ_min.  An absent or
                    # under-covered parent is uncovered at every queried
                    # τ, killing the child (and its subtree) as a MUP
                    # candidate for the whole range.
                    parent_floor: Optional[int] = None
                    alive = True
                    for parent in child.parents():
                        cov = table.get(parent.values)
                        if cov is None or cov < tau_min:
                            alive = False
                            break
                        if parent_floor is None or cov < parent_floor:
                            parent_floor = cov
                    if not alive:
                        pruned += 1
                        continue
                    if child.values in seen:  # pragma: no cover - guard
                        continue
                    seen.add(child.values)
                    candidates.append(child)
                    min_parent.append(parent_floor)
        if not candidates:
            break
        counts = oracle.coverage_many(candidates, memo=memo)
        table = {}
        expandable = []
        for child, floor, cov in zip(candidates, min_parent, counts):
            cov = int(cov)
            table[child.values] = cov
            _retain(frontier, child, cov, floor, tau_min, tau_max)
            if cov >= tau_min:
                expandable.append(child)

    stats = SearchStats(
        nodes_generated=nodes_generated,
        coverage_evaluations=oracle.evaluations - evaluations_before,
        pruned=pruned,
        seconds=watch.elapsed(),
    )
    return SweepResult(
        thresholds=thresholds,
        frontier=tuple(frontier),
        stats=stats,
        d=dataset.d,
        attributes=attrs,
        max_level=max_level,
    )


def _retain(
    frontier: List[SweepPoint],
    pattern: Pattern,
    coverage: int,
    min_parent: Optional[int],
    tau_min: int,
    tau_max: int,
) -> None:
    """Keep the pattern iff its MUP interval intersects ``[τ_min, τ_max]``."""
    lo = max(coverage + 1, tau_min)
    hi = tau_max if min_parent is None else min(min_parent, tau_max)
    if lo <= hi:
        frontier.append(SweepPoint(pattern, coverage, min_parent))


# ----------------------------------------------------------------------
# sensitivity
# ----------------------------------------------------------------------
def threshold_sensitivity(
    dataset: Dataset,
    thresholds: Sequence[int],
    attributes: Optional[Sequence[int]] = None,
    max_level: Optional[int] = None,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
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
        oracle: optionally reuse a prebuilt oracle for the base sweep.
        engine: engine selection when no oracle is given.
        bootstrap: number of bootstrap replicates (0 = skip the
            resampling pass).
        seed: base seed; replicate ``b`` uses the derived stream
            ``[seed, b]``, so reports are deterministic in ``seed``.
        sweep: optionally reuse an existing base :class:`SweepResult`
            (must match ``thresholds``/``attributes``/``max_level``).

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
            oracle=oracle,
            engine=engine,
        )
    base_sets = {tau: sweep.mups_at(tau).as_set() for tau in sweep.thresholds}

    appeared: Dict[int, Tuple[Pattern, ...]] = {}
    disappeared: Dict[int, Tuple[Pattern, ...]] = {}
    for previous, current in zip(sweep.thresholds, sweep.thresholds[1:]):
        appeared[current] = tuple(
            sorted(base_sets[current] - base_sets[previous])
        )
        disappeared[current] = tuple(
            sorted(base_sets[previous] - base_sets[current])
        )

    support: Dict[int, Dict[Pattern, float]] = {}
    novel_rate: Dict[int, float] = {}
    if bootstrap > 0:
        hits: Dict[int, Dict[Pattern, int]] = {
            tau: {p: 0 for p in base_sets[tau]} for tau in sweep.thresholds
        }
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
