"""Shared result type and facade for the MUP identification algorithms."""

from __future__ import annotations

import inspect
import math
import operator
from numbers import Integral, Real
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro._util import SearchStats
from repro.core.coverage import (
    CoverageOracle,
    max_covered_level,
    oracle_for,
    threshold_from_rate,
)
from repro.core.engine import EngineSpec, check_engine
from repro.core.lattice import PatternCodes
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.exceptions import ReproError


class MupResult:
    """Output of a MUP identification run (Problem 1).

    Attributes:
        mups: the maximal uncovered patterns, a tuple sorted for
            reproducibility.  Given as
            :class:`~repro.core.lattice.PatternCodes` (the searches that
            walk lattice codes pass theirs), they are decoded on first
            read, so ``len`` and ``stats`` cost nothing per MUP and a
            result that is only counted builds no pattern.  Patterns
            given with ``ordered=True`` are taken in the order given.
        threshold: the absolute coverage threshold ``τ`` used.
        stats: traversal counters and wall-clock time.
        max_level: the level cap, when the run was level-limited (Fig. 16);
            ``None`` means the full pattern graph was considered.

    Two results are equal when all four are.
    """

    __slots__ = ("_mups", "_mup_set", "threshold", "stats", "max_level")

    def __init__(
        self,
        mups: Union[Sequence[Pattern], PatternCodes],
        threshold: int,
        stats: SearchStats,
        max_level: Optional[int] = None,
        *,
        ordered: bool = False,
    ) -> None:
        if not isinstance(mups, PatternCodes):
            # Sorting by the value tuples compares in C, not through
            # Pattern.__lt__; the order is the same.
            key = operator.attrgetter("_values")
            mups = tuple(mups if ordered else sorted(mups, key=key))
        self._mups, self._mup_set = mups, None
        self.threshold, self.stats, self.max_level = threshold, stats, max_level

    @property
    def mups(self) -> Tuple[Pattern, ...]:
        if isinstance(self._mups, PatternCodes):
            self._mups = tuple(self._mups)
        return self._mups

    def __len__(self) -> int:
        return len(self._mups)

    def __iter__(self):
        return iter(self.mups)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern in self.as_set()

    def _fields(self) -> tuple:
        return self.mups, self.threshold, self.stats, self.max_level

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        mups, threshold, stats, max_level = self._fields()
        return f"MupResult({mups=}, {threshold=}, {stats=}, {max_level=})"

    def as_set(self) -> frozenset:
        # Membership is queried in inner loops (incremental maintenance,
        # cross-checks); build the set once instead of per __contains__.
        if self._mup_set is None:
            self._mup_set = frozenset(self.mups)
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
    """Normalize (absolute τ | rate) inputs into an absolute τ ≥ 1.

    τ must pass :func:`check_threshold`; a rate must be a finite,
    non-boolean real ≥ 0.  Anything else raises :class:`ReproError`.
    """
    if (threshold is None) == (threshold_rate is None):
        raise ReproError("specify exactly one of threshold / threshold_rate")
    if threshold is not None:
        return check_threshold(threshold)
    if (
        isinstance(threshold_rate, bool)
        or not isinstance(threshold_rate, Real)
        or not math.isfinite(threshold_rate)
        or threshold_rate < 0
    ):
        raise ReproError(
            f"threshold_rate must be a finite number >= 0, got {threshold_rate!r}"
        )
    # Straight from the dataset size — no need to build an inverted index
    # just to read n.
    return threshold_from_rate(threshold_rate, dataset.n)


def check_threshold(threshold: Any) -> int:
    """Normalize an absolute τ: a non-boolean integer ≥ 1.

    Numpy integers are accepted.  Booleans, fractions (``2.9``, and
    ``3.0`` too), strings and integers below 1 raise :class:`ReproError`:
    ``cov < 2.9`` is ``cov < 3``, so truncating would answer the wrong τ.
    """
    if isinstance(threshold, bool) or not isinstance(threshold, Integral):
        raise ReproError(f"threshold must be an integer >= 1, got {threshold!r}")
    if threshold < 1:
        raise ReproError(f"threshold must be >= 1, got {threshold}")
    return int(threshold)


def resolve_max_level(max_level: Any) -> Optional[int]:
    """Normalize a level cap: ``None``, or a non-boolean integer ≥ 0.

    Numpy integers are accepted; booleans, fractions, strings and negative
    integers raise :class:`ReproError`.
    """
    if max_level is None:
        return None
    if isinstance(max_level, bool) or not isinstance(max_level, Integral):
        raise ReproError(
            f"max_level must be a non-negative integer, got {max_level!r}"
        )
    if max_level < 0:
        raise ReproError(f"max_level must be >= 0, got {max_level}")
    return int(max_level)


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

    Only naive and APRIORI count through an oracle, so only they receive
    ``oracle`` and ``engine``; PATTERN-BREAKER, PATTERN-COMBINER and
    DEEPDIVER count from the unique rows.  Both are checked either way.

    Args:
        dataset: the dataset to assess.
        threshold: absolute coverage threshold ``τ``.
        threshold_rate: alternatively, a rate of ``n`` (paper's sweeps).
        algorithm: one of ``naive``, ``pattern_breaker``, ``pattern_combiner``,
            ``deepdiver``, ``apriori``.
        max_level: only look for MUPs at level ≤ this cap (Figure 16);
            every algorithm but ``pattern_combiner`` supports it.
        oracle: optionally reuse a prebuilt coverage oracle over
            ``dataset`` itself; an oracle over any other dataset raises
            :class:`ReproError`.
        engine: engine spec for the oracle, checked by
            :func:`~repro.core.engine.check_engine`.

    Returns:
        A :class:`MupResult`.
    """
    if algorithm not in ALGORITHMS:
        raise ReproError(
            f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
        )
    tau = resolve_threshold(dataset, threshold, threshold_rate)
    max_level = resolve_max_level(max_level)
    check_engine(engine, dataset)
    if oracle is not None:
        oracle_for(dataset, oracle)
    accepted = inspect.signature(ALGORITHMS[algorithm]).parameters
    if max_level is not None and "max_level" not in accepted:
        raise ReproError(f"{algorithm} does not support max_level")
    given = {"max_level": max_level, "oracle": oracle, "engine": engine}
    kwargs = {
        name: value
        for name, value in given.items()
        if value is not None and name in accepted
    }
    return ALGORITHMS[algorithm](dataset, tau, **kwargs)
