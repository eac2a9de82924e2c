"""MUP analysis over generalization lattices and bucketization sweeps.

The paper's model is flat categorical, but §II points at attribute
hierarchies (ZIP → county → state) and bucketized continuous attributes as
the way real coverage workloads arrive.  This module promotes the
``data/hierarchy.py`` / ``data/bucketize.py`` seeds to first-class
analysis:

* :class:`HierarchyStack` — an ordered chain of
  :class:`~repro.data.hierarchy.AttributeHierarchy` levels per attribute
  with validated refinement (every finer level must factor through the
  coarser one), plus the rollup plumbing the searches ride.
* :func:`parse_hierarchy_spec` — the JSON form of a stack, shared by the
  CLI and the serving layer.
* :func:`find_mups_hierarchical` — the MUPs of every level of a stack.
  Each level is PATTERN-BREAKER's level walk
  (:func:`~repro.core.lattice.walk_dataset`) over its
  :func:`~repro.data.hierarchy.rollup` dataset, whose unique rows derive
  from the base dataset's, so it reads a coverage cube whenever the rolled
  space fits :func:`~repro.core.lattice.cube_fits`.  Each level's MUPs and
  counters are exactly PATTERN-BREAKER's on that rolled dataset.  Each
  finest-level MUP is reported alongside its most *specific covered
  generalization* — the "remedy by generalizing" answer
  (:class:`~repro.core.enhancement.GeneralizationRemedy`), found by point
  queries through one base-dataset oracle.
* :func:`bucketize_sweep` — τ-coverage as a function of bucket count for a
  numeric column.  Nested equal-width bucketizations form a hierarchy
  chain (every coarse bucket is a union of fine ones), so the sweep
  aggregates the finest bucketization once and walks each count's rolled
  dataset the same way.  Each count's MUPs and counters are exactly
  PATTERN-BREAKER's on :func:`bucketized_dataset` at that count.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle, oracle_for
from repro.core.engine import EngineSpec, check_engine
from repro.core.enhancement.hierarchical import GeneralizationRemedy
from repro.core.lattice import walk_dataset
from repro.core.mups.base import MupResult, resolve_max_level, resolve_threshold
from repro.core.pattern import Pattern, X
from repro.data.bucketize import (
    bucketize_equal_width,
    bucketize_quantiles,
    check_bucket_count,
    equal_width_labels,
)
from repro.data.dataset import Dataset, Schema
from repro.data.hierarchy import AttributeHierarchy, Rollup, rollup
from repro.exceptions import DataError, SchemaError

__all__ = [
    "HierarchyStack",
    "HierarchyLevel",
    "HierarchicalMupResult",
    "BucketSweepPoint",
    "BucketSweepResult",
    "find_mups_hierarchical",
    "bucketize_sweep",
    "bucketized_dataset",
    "parse_hierarchy_spec",
]


# ----------------------------------------------------------------------
# the stack
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HierarchyStack:
    """Ordered generalization chains per attribute, validated to refine.

    Level 0 is the base dataset.  For an attribute with chain ``(h1, h2,
    ...)``, each ``hk`` maps the attribute's *base* codes onto level-``k``
    groups, and every finer level must factor through the coarser one:
    base codes sharing a level-``k`` group must share a level-``k+1``
    group.  Attributes with shorter chains saturate at their coarsest
    level; the stack's ``depth`` is the longest chain.

    Attributes:
        chains: attribute index → cumulative base→level-``k`` maps.
        depth: number of levels above the base.
    """

    chains: Mapping[int, Tuple[AttributeHierarchy, ...]]
    depth: int

    @classmethod
    def of(
        cls, source, chains: Mapping[str, Sequence[AttributeHierarchy]]
    ) -> "HierarchyStack":
        """Validate and build a stack against a dataset (or schema).

        Args:
            source: the base :class:`~repro.data.Dataset` (or its schema).
            chains: attribute name → hierarchy levels, finest first; each
                level maps the attribute's base codes.
        """
        schema: Schema = getattr(source, "schema", source)
        by_index: Dict[int, Tuple[AttributeHierarchy, ...]] = {}
        for name, chain in chains.items():
            index = schema.index_of(name)
            chain = tuple(chain)
            if not chain:
                raise SchemaError(f"empty hierarchy chain for {name!r}")
            cardinality = schema.cardinalities[index]
            for level in chain:
                if level.attribute != name:
                    raise SchemaError(
                        f"chain for {name!r} contains a hierarchy for "
                        f"{level.attribute!r}"
                    )
                if len(level.groups) != cardinality:
                    raise SchemaError(
                        f"hierarchy level for {name!r} maps "
                        f"{len(level.groups)} values; attribute has "
                        f"{cardinality}"
                    )
            # factor_through raises SchemaError when a finer level does not
            # refine the coarser one.
            for finer, coarser in zip(chain, chain[1:]):
                finer.factor_through(coarser)
            by_index[index] = chain
        if not by_index:
            raise SchemaError("a hierarchy stack needs at least one chain")
        depth = max(len(chain) for chain in by_index.values())
        return cls(chains=by_index, depth=depth)

    def chain_length(self, index: int) -> int:
        """Hierarchy levels above the base for attribute ``index``."""
        return len(self.chains.get(index, ()))

    def level_hierarchies(self, level: int) -> Dict[int, AttributeHierarchy]:
        """Base→level maps in effect at ``level`` (saturating short chains)."""
        if not 0 <= level <= self.depth:
            raise DataError(f"level {level} outside stack depth {self.depth}")
        if level == 0:
            return {}
        return {
            index: chain[min(level, len(chain)) - 1]
            for index, chain in self.chains.items()
        }

    def rollup_to(self, dataset: Dataset, level: int) -> Rollup:
        """The dataset rolled up to ``level`` (level 0 = the base)."""
        hierarchies = self.level_hierarchies(level)
        if not hierarchies:
            return Rollup(dataset, {})
        return rollup(dataset, hierarchies.values())


def parse_hierarchy_spec(source, spec: Any) -> HierarchyStack:
    """Validate and build a stack against ``source`` (a dataset or schema)
    from its JSON form, raising :class:`SchemaError` on any other shape.

    Format: ``{"attr": [level, ...], ...}`` where each level maps the
    attribute's *base* codes to that level's groups — either a plain list
    of group codes or ``{"groups": [...], "labels": [...]}``.
    """
    if not isinstance(spec, dict) or not spec:
        raise SchemaError(
            "hierarchy spec must be a non-empty JSON object mapping "
            "attribute names to lists of levels"
        )
    chains = {}
    for name, levels in spec.items():
        if not isinstance(levels, list):
            raise SchemaError(f"hierarchy chain for {name!r} must be a list")
        chain = []
        for level in levels:
            groups, labels = (
                (level.get("groups"), level.get("labels"))
                if isinstance(level, dict)
                else (level, None)
            )
            if not _all_of(groups, int) or not (
                labels is None or _all_of(labels, str)
            ):
                raise SchemaError(
                    f"hierarchy level for {name!r} must be a list of group "
                    f'codes or {{"groups": [...], "labels": [...]}}, got '
                    f"{level!r}"
                )
            chain.append(AttributeHierarchy.of(name, groups, labels))
        chains[name] = chain
    return HierarchyStack.of(source, chains)


def _all_of(items: Any, kind: type) -> bool:
    """Whether ``items`` is a JSON list of ``kind`` (booleans are no ints)."""
    return isinstance(items, list) and all(
        isinstance(item, kind) and not isinstance(item, bool) for item in items
    )


# ----------------------------------------------------------------------
# hierarchical search results
# ----------------------------------------------------------------------
def _total(stats: Sequence[SearchStats], seconds: float) -> SearchStats:
    return SearchStats(
        nodes_generated=sum(s.nodes_generated for s in stats),
        coverage_evaluations=sum(s.coverage_evaluations for s in stats),
        pruned=sum(s.pruned for s in stats),
        seconds=seconds,
    )


@dataclass(frozen=True)
class HierarchyLevel:
    """One stack level: its rollup and the MUP result on it."""

    level: int
    rollup: Rollup
    result: MupResult

    def as_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "cardinalities": list(self.rollup.dataset.cardinalities),
            "mups": [list(p.values) for p in self.result.mups],
            "mup_count": len(self.result),
            "max_covered_level": self.result.max_covered_level(
                self.rollup.dataset.d
            ),
            "stats": self.result.stats.as_dict(),
        }


@dataclass(frozen=True)
class HierarchicalMupResult:
    """Output of :func:`find_mups_hierarchical`.

    Attributes:
        threshold: absolute τ.
        levels: per stack level (base first), the rollup and its MUPs.
        remedies: per finest-level MUP, its most specific covered
            generalization (empty when remedies were not requested).
        stats: the levels' traversal counters, summed.
        max_level: the level cap forwarded to every per-level search.
    """

    threshold: int
    levels: Tuple[HierarchyLevel, ...]
    remedies: Tuple[GeneralizationRemedy, ...]
    stats: SearchStats
    max_level: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "levels", tuple(sorted(self.levels, key=lambda l: l.level))
        )

    @property
    def mups(self) -> Tuple[Pattern, ...]:
        """The finest-level (base dataset) MUPs."""
        return self.at_level(0).mups

    def at_level(self, level: int) -> MupResult:
        for entry in self.levels:
            if entry.level == level:
                return entry.result
        raise DataError(f"no stack level {level} in this result")

    def as_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "levels": [entry.as_dict() for entry in self.levels],
            "remedies": [remedy.as_dict() for remedy in self.remedies],
            "stats": self.stats.as_dict(),
        }


# ----------------------------------------------------------------------
# the hierarchical search
# ----------------------------------------------------------------------
def find_mups_hierarchical(
    dataset: Dataset,
    stack: HierarchyStack,
    threshold: Optional[int] = None,
    threshold_rate: Optional[float] = None,
    max_level: Optional[int] = None,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
    remedies: bool = True,
) -> HierarchicalMupResult:
    """Identify MUPs at every level of a hierarchy stack.

    Each level's MUPs and counters are PATTERN-BREAKER's on the
    corresponding rolled-up dataset (:meth:`HierarchyStack.rollup_to`).

    Args:
        dataset: the base (finest) dataset.
        stack: validated hierarchy stack.
        threshold / threshold_rate: exactly one of absolute τ or a rate.
        max_level: optional pattern-level cap applied at every stack level.
        oracle: optional warm oracle over ``dataset`` itself, used by the
            remedies' point queries.
        engine: engine spec for the remedies' oracle when none is given,
            checked either way.
        remedies: also compute, per finest-level MUP, its most specific
            covered generalization.
    """
    tau = resolve_threshold(dataset, threshold, threshold_rate)
    max_level = resolve_max_level(max_level)
    check_engine(engine, dataset)
    watch = Stopwatch()
    # Warm the base aggregation once: every rolled level then derives its
    # unique rows from it (see ``rollup``) instead of re-sorting n rows.
    dataset.unique_rows()

    levels: List[HierarchyLevel] = []
    for level in range(stack.depth + 1):
        roll = stack.rollup_to(dataset, level)
        walk = walk_dataset(roll.dataset, tau, max_level)
        levels.append(
            HierarchyLevel(
                level=level,
                rollup=roll,
                result=MupResult(walk.mups(), tau, walk.stats, max_level=max_level),
            )
        )

    base_mups = levels[0].result.mups
    remedy_records: Tuple[GeneralizationRemedy, ...] = ()
    if remedies and base_mups:
        base_oracle = oracle_for(dataset, oracle, engine)
        memo: Dict[Tuple[int, ...], int] = {}
        remedy_records = tuple(
            _most_specific_covered(mup, stack, tau, base_oracle, memo)
            for mup in base_mups
        )
    return HierarchicalMupResult(
        threshold=tau,
        levels=tuple(levels),
        remedies=remedy_records,
        stats=_total(
            [entry.result.stats for entry in levels], watch.elapsed()
        ),
        max_level=max_level,
    )


def _most_specific_covered(
    mup: Pattern,
    stack: HierarchyStack,
    threshold: int,
    oracle: CoverageOracle,
    memo: Dict[Tuple[int, ...], int],
) -> GeneralizationRemedy:
    """Cheapest-first search for the closest covered generalization.

    States are per-attribute climb counts; each step coarsens one
    deterministic attribute by one hierarchy level (one past the chain top
    widens it to ``X``).  Coverage of a mixed-level generalization is the
    pooled coverage of its base-level drill-down; ``memo`` keeps the
    search's counts by pattern values, so the oracle counts each base
    pattern once.  The all-``X`` state is
    reachable, so the search fails only when the dataset itself is smaller
    than τ.
    """
    d = len(mup)
    deterministic = mup.deterministic_indices()
    caps = {index: stack.chain_length(index) + 1 for index in deterministic}
    start = (0,) * d
    heap: List[Tuple[int, Tuple[int, ...]]] = [(0, start)]
    seen = set()
    while heap:
        steps, levels = heapq.heappop(heap)
        if levels in seen:
            continue
        seen.add(levels)
        if steps > 0:
            generalized, expansions = _generalized_pattern(mup, stack, levels)
            missing = [p for p in expansions if p.values not in memo]
            for pattern, count in zip(missing, oracle.coverage_many(missing)):
                memo[pattern.values] = int(count)
            coverage = sum(memo[p.values] for p in expansions)
            if coverage >= threshold:
                return GeneralizationRemedy(
                    mup=mup,
                    generalized=generalized,
                    levels=levels,
                    coverage=coverage,
                    steps=steps,
                )
        for index in deterministic:
            if levels[index] < caps[index]:
                child = (
                    levels[:index] + (levels[index] + 1,) + levels[index + 1 :]
                )
                if child not in seen:
                    heapq.heappush(heap, (steps + 1, child))
    return GeneralizationRemedy(
        mup=mup, generalized=None, levels=start, coverage=0, steps=0
    )


def _generalized_pattern(
    mup: Pattern, stack: HierarchyStack, levels: Tuple[int, ...]
) -> Tuple[Pattern, List[Pattern]]:
    """The mixed-level generalization of ``mup`` plus its base expansion."""
    values: List[int] = []
    choices: List[Tuple[int, ...]] = []
    for index, value in enumerate(mup.values):
        climb = levels[index]
        if value == X or climb == 0:
            values.append(value)
            choices.append((value,))
            continue
        chain = stack.chains.get(index, ())
        if climb > len(chain):
            values.append(X)
            choices.append((X,))
        else:
            hierarchy = chain[climb - 1]
            group = hierarchy.groups[value]
            values.append(group)
            choices.append(hierarchy.fine_codes_of(group))
    expansions = [Pattern(combo) for combo in itertools.product(*choices)]
    return Pattern(values), expansions


# ----------------------------------------------------------------------
# bucketization sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BucketSweepPoint:
    """One bucket count on the sweep: its labels and MUP result."""

    buckets: int
    cardinality: int
    labels: Tuple[str, ...]
    result: MupResult

    def as_dict(self) -> Dict[str, object]:
        return {
            "buckets": self.buckets,
            "cardinality": self.cardinality,
            "labels": list(self.labels),
            "mups": [list(p.values) for p in self.result.mups],
            "mup_count": len(self.result),
            "stats": self.result.stats.as_dict(),
        }


@dataclass(frozen=True)
class BucketSweepResult:
    """Output of :func:`bucketize_sweep`: per bucket count, the MUP set of
    the dataset extended with that bucketization of the numeric column."""

    attribute: str
    threshold: int
    points: Tuple[BucketSweepPoint, ...]
    stats: SearchStats

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "points", tuple(sorted(self.points, key=lambda p: p.buckets))
        )

    def point_for(self, buckets: int) -> BucketSweepPoint:
        for point in self.points:
            if point.buckets == buckets:
                return point
        raise DataError(f"no bucket count {buckets} in this sweep")

    def as_dict(self) -> Dict[str, object]:
        return {
            "attribute": self.attribute,
            "threshold": self.threshold,
            "points": [point.as_dict() for point in self.points],
            "stats": self.stats.as_dict(),
        }


def bucketized_dataset(
    dataset: Dataset,
    values: Sequence[float],
    buckets: int,
    name: str = "bucket",
    method: str = "equal_width",
) -> Dataset:
    """``dataset`` extended with a bucketized numeric column.

    The independent-runs counterpart of :func:`bucketize_sweep`: build the
    extended dataset for one bucket count and hand it to any analysis.
    """
    if method == "equal_width":
        codes, labels = bucketize_equal_width(values, buckets)
    elif method == "quantiles":
        codes, labels = bucketize_quantiles(values, buckets)
    else:
        raise DataError(
            f"unknown bucketization method {method!r} "
            "(expected equal_width or quantiles)"
        )
    return _append_column(dataset, name, codes, labels)


def _append_column(
    dataset: Dataset, name: str, codes: np.ndarray, labels: Sequence[str]
) -> Dataset:
    if name in dataset.schema.names:
        raise DataError(f"dataset already has an attribute named {name!r}")
    if len(codes) != dataset.n:
        raise DataError(
            f"column has {len(codes)} values but the dataset has "
            f"{dataset.n} rows"
        )
    if dataset.schema.value_labels is not None:
        value_labels: Optional[Tuple[Tuple[str, ...], ...]] = tuple(
            tuple(per) for per in dataset.schema.value_labels
        ) + (tuple(labels),)
    else:
        value_labels = tuple(
            tuple(str(code) for code in range(c))
            for c in dataset.cardinalities
        ) + (tuple(labels),)
    schema = Schema(
        tuple(dataset.schema.names) + (name,),
        tuple(dataset.cardinalities) + (len(labels),),
        value_labels,
    )
    rows = np.column_stack([dataset.rows, np.asarray(codes, dtype=np.int32)])
    return Dataset(
        schema,
        rows,
        labels={n: dataset.label(n) for n in dataset.label_names},
        validate=False,
    )


def bucketize_sweep(
    dataset: Dataset,
    values: Sequence[float],
    bucket_counts: Sequence[int],
    threshold: Optional[int] = None,
    threshold_rate: Optional[float] = None,
    name: str = "bucket",
) -> BucketSweepResult:
    """MUP sets for every equal-width bucket count of a numeric column.

    Bucket counts must *nest* (each must divide the largest) so that every
    coarse bucket is a union of fine ones.  The sweep aggregates the
    finest bucketization once, then walks each count's rolled dataset
    (:func:`~repro.core.lattice.walk_dataset`).  Each count's MUPs and
    counters are PATTERN-BREAKER's on :func:`bucketized_dataset` at that
    count.

    Args:
        dataset: the categorical base dataset (without the numeric column).
        values: the numeric column, one value per row.
        bucket_counts: equal-width bucket counts to sweep (each an integer
            ≥ 2 dividing the maximum; see
            :func:`~repro.data.bucketize.check_bucket_count`).
        threshold / threshold_rate: exactly one of absolute τ or a rate.
        name: attribute name for the bucket column.
    """
    counts = sorted({check_bucket_count(b) for b in bucket_counts})
    if not counts:
        raise DataError("need at least one bucket count")
    finest = counts[-1]
    broken = [c for c in counts if finest % c != 0]
    if broken:
        raise DataError(
            f"bucket counts must nest for count reuse: {broken} do not "
            f"divide the largest count {finest}"
        )

    # The column is bucketized once, at the finest count; coarser counts
    # roll its codes up and take their labels from the column's range.
    fine_codes, fine_labels = bucketize_equal_width(values, finest)
    fine_dataset = _append_column(dataset, name, fine_codes, fine_labels)
    column = np.asarray(values, dtype=float)
    low, high = float(column.min()), float(column.max())
    tau = resolve_threshold(fine_dataset, threshold, threshold_rate)
    watch = Stopwatch()
    # Every count's rollup derives its unique rows from this aggregation.
    fine_dataset.unique_rows()

    points: List[BucketSweepPoint] = []
    for count in counts:
        labels = equal_width_labels(low, high, count)
        if len(fine_labels) == 1:  # a constant column
            groups: Tuple[int, ...] = (0,)
        else:
            groups = tuple(f * count // finest for f in range(finest))
        hierarchy = AttributeHierarchy(name, groups, tuple(labels))
        roll = rollup(fine_dataset, [hierarchy])
        walk = walk_dataset(roll.dataset, tau)
        points.append(
            BucketSweepPoint(
                buckets=count,
                cardinality=len(labels),
                labels=tuple(labels),
                result=MupResult(walk.mups(), tau, walk.stats),
            )
        )
    return BucketSweepResult(
        attribute=name,
        threshold=tau,
        points=tuple(points),
        stats=_total([point.result.stats for point in points], watch.elapsed()),
    )
