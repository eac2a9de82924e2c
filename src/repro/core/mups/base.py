"""Shared result type and facade for the MUP identification algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro._util import SearchStats
from repro.core.coverage import CoverageOracle, max_covered_level, threshold_from_rate
from repro.core.engine import EngineSpec
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.exceptions import ReproError


@dataclass(frozen=True)
class MupResult:
    """Output of a MUP identification run (Problem 1).

    Attributes:
        mups: the maximal uncovered patterns, sorted for reproducibility.
        threshold: the absolute coverage threshold ``τ`` used.
        stats: traversal counters and wall-clock time.
        max_level: the level cap, when the run was level-limited (Fig. 16);
            ``None`` means the full pattern graph was considered.
    """

    mups: Tuple[Pattern, ...]
    threshold: int
    stats: SearchStats
    max_level: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mups", tuple(sorted(self.mups)))
        # Membership is queried in inner loops (incremental maintenance,
        # cross-checks); cache the set once instead of per __contains__.
        object.__setattr__(self, "_mup_set", frozenset(self.mups))

    def __len__(self) -> int:
        return len(self.mups)

    def __iter__(self):
        return iter(self.mups)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern in self._mup_set

    def as_set(self) -> frozenset:
        return self._mup_set

    def level_histogram(self) -> Dict[int, int]:
        """MUP count per level — the series behind Figure 6."""
        histogram: Dict[int, int] = {}
        for pattern in self.mups:
            histogram[pattern.level] = histogram.get(pattern.level, 0) + 1
        return dict(sorted(histogram.items()))

    def max_covered_level(self, d: int) -> int:
        """Definition 6 for this MUP set (``d`` when fully covered)."""
        return max_covered_level(self.mups, d)

    def at_level(self, level: int) -> List[Pattern]:
        """MUPs at exactly ``level``."""
        return [p for p in self.mups if p.level == level]


AlgorithmFn = Callable[..., MupResult]

#: Registry used by the facade, CLI, and the benchmark harness.
ALGORITHMS: Dict[str, AlgorithmFn] = {}


def register_algorithm(name: str) -> Callable[[AlgorithmFn], AlgorithmFn]:
    """Decorator registering an algorithm under ``name``."""

    def decorate(fn: AlgorithmFn) -> AlgorithmFn:
        ALGORITHMS[name] = fn
        return fn

    return decorate


def resolve_threshold(
    dataset: Dataset,
    threshold: Optional[int] = None,
    threshold_rate: Optional[float] = None,
) -> int:
    """Normalize (absolute τ | rate) inputs into an absolute τ ≥ 1."""
    if (threshold is None) == (threshold_rate is None):
        raise ReproError("specify exactly one of threshold / threshold_rate")
    if threshold is not None:
        if threshold < 1:
            raise ReproError(f"threshold must be >= 1, got {threshold}")
        return int(threshold)
    # Straight from the dataset size — no need to build an inverted index
    # just to read n.
    return threshold_from_rate(threshold_rate, dataset.n)


def find_mups(
    dataset: Dataset,
    threshold: Optional[int] = None,
    threshold_rate: Optional[float] = None,
    algorithm: str = "deepdiver",
    max_level: Optional[int] = None,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
) -> MupResult:
    """Facade: identify the maximal uncovered patterns of a dataset.

    Args:
        dataset: the dataset to assess.
        threshold: absolute coverage threshold ``τ``.
        threshold_rate: alternatively, a rate of ``n`` (paper's sweeps).
        algorithm: one of ``naive``, ``pattern_breaker``, ``pattern_combiner``,
            ``deepdiver``, ``apriori``.
        max_level: only look for MUPs at level ≤ this cap (supported by
            ``pattern_breaker`` and ``deepdiver``; Figure 16).
        oracle: optionally reuse a prebuilt coverage oracle.
        engine: coverage-engine selection used to build the oracle — an
            :class:`~repro.core.engine.EngineConfig`, a backend name
            (``"auto"`` consults the workload-aware planner), a class, or
            an instance; ignored when ``oracle`` is given.

    Returns:
        A :class:`MupResult`.
    """
    if algorithm not in ALGORITHMS:
        raise ReproError(
            f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
        )
    tau = resolve_threshold(dataset, threshold, threshold_rate)
    kwargs = {}
    if max_level is not None:
        kwargs["max_level"] = max_level
    if oracle is not None:
        kwargs["oracle"] = oracle
    elif engine is not None:
        kwargs["engine"] = engine
    return ALGORITHMS[algorithm](dataset, tau, **kwargs)
