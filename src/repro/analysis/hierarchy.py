"""MUP analysis over generalization lattices and bucketization sweeps.

The paper's model is flat categorical, but §II points at attribute
hierarchies (ZIP → county → state) and bucketized continuous attributes as
the way real coverage workloads arrive.  This module promotes the
``data/hierarchy.py`` / ``data/bucketize.py`` seeds to first-class
analysis:

* :class:`HierarchyStack` — an ordered chain of
  :class:`~repro.data.hierarchy.AttributeHierarchy` levels per attribute
  with validated refinement (every finer level must factor through the
  coarser one), plus the rollup / step-map plumbing the searches ride.
* :func:`find_mups_hierarchical` — level-wise search that starts at the
  coarsest rollup and drills down only into uncovered regions.  The key
  monotone fact: rolling up only *pools* rows, so for any pattern ``P`` at
  a finer level, ``cov_fine(P) <= cov_coarse(image(P))``.  A candidate
  whose coarse image was already recorded below τ is therefore certified
  uncovered without ever consulting the engine — and because a candidate
  is only generated when all its (finer) parents are covered, the image's
  parents were covered too, so the image is always in the coarser level's
  table.  The per-level MUP sets are *bit-identical* to running
  :func:`~repro.core.mups.find_mups` on the corresponding
  :func:`~repro.data.hierarchy.rollup` dataset; the pruning only removes
  redundant counting.  Each finest-level MUP is reported alongside its
  most *specific covered generalization* — the "remedy by generalizing"
  answer (:class:`~repro.core.enhancement.GeneralizationRemedy`).
* :func:`bucketize_sweep` — τ-coverage as a function of bucket count for a
  numeric column.  Nested equal-width bucketizations form a hierarchy
  chain (every coarse bucket is a union of fine ones), so the sweep builds
  *one* engine over the finest bucketization and answers every coarser
  width by drilling coarse candidates down to fine patterns through the
  shared ``coverage_many(..., memo=)`` count memo — plus the same
  coarse-bound pruning between widths.  One sweep beats independent
  per-width runs without giving up bit-identity.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle
from repro.core.engine import AUTO, EngineConfig, EngineSpec
from repro.core.enhancement.hierarchical import GeneralizationRemedy
from repro.core.mups.base import MupResult, resolve_threshold
from repro.core.pattern import Pattern, X
from repro.data.bucketize import bucketize_equal_width, bucketize_quantiles
from repro.data.dataset import Dataset, Schema
from repro.data.hierarchy import AttributeHierarchy, Rollup, drill_down, rollup
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
        steps: attribute index → adjacent step maps (level-``k`` codes →
            level-``k+1`` codes), derived from the factoring.
        depth: number of levels above the base.
    """

    chains: Mapping[int, Tuple[AttributeHierarchy, ...]]
    steps: Mapping[int, Tuple[AttributeHierarchy, ...]]
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
        steps: Dict[int, Tuple[AttributeHierarchy, ...]] = {}
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
            # refine the coarser one; its result is the adjacent step map.
            attr_steps = [chain[0]]
            for finer, coarser in zip(chain, chain[1:]):
                attr_steps.append(finer.factor_through(coarser))
            by_index[index] = chain
            steps[index] = tuple(attr_steps)
        if not by_index:
            raise SchemaError("a hierarchy stack needs at least one chain")
        depth = max(len(chain) for chain in by_index.values())
        return cls(chains=by_index, steps=steps, depth=depth)

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

    def step_maps(self, level: int) -> Dict[int, AttributeHierarchy]:
        """Maps from level-``level`` codes to level-``level + 1`` codes.

        Attributes saturated at or below ``level`` are omitted (identity).
        """
        return {
            index: attr_steps[level]
            for index, attr_steps in self.steps.items()
            if level < len(attr_steps)
        }


# ----------------------------------------------------------------------
# the shared level-wise traversal
# ----------------------------------------------------------------------
def _levelwise_mups(
    cardinalities: Sequence[int],
    threshold: int,
    max_level: Optional[int],
    evaluate: Callable[[List[Pattern]], Sequence[int]],
    bound: Optional[Callable[[Tuple[int, ...]], Optional[int]]],
) -> Tuple[Tuple[Pattern, ...], Dict[Tuple[int, ...], int], int, int, int]:
    """Apriori-style MUP search with an optional coarse upper bound.

    ``bound(values)`` returns an upper bound on the candidate's coverage
    (or ``None``).  A bound below τ certifies the candidate uncovered —
    since candidates are only generated with all parents covered, such a
    candidate is a MUP without an engine count.  The returned table maps
    every generated candidate to its count (or inherited bound), which is
    itself a valid upper bound one refinement further down.

    Returns:
        ``(mups, table, nodes_generated, bound_skips, pruned)``.
    """
    d = len(cardinalities)
    root = Pattern.root(d)
    nodes = 1
    skips = 0
    pruned = 0
    root_cov = int(evaluate([root])[0])
    table: Dict[Tuple[int, ...], int] = {root.values: root_cov}
    if root_cov < threshold:
        return (root,), table, nodes, skips, pruned
    # The frontier works on plain value tuples; Pattern objects are built
    # only for the candidates that actually reach the engine.  Each entry
    # carries its rightmost deterministic attribute so children extend
    # strictly rightward (each candidate generated exactly once).
    mups: List[Tuple[int, ...]] = []
    expandable: List[Tuple[Tuple[int, ...], int]] = [(root.values, -1)]
    lookup = table.get
    depth = d if max_level is None else max(0, min(max_level, d))
    for _ in range(depth):
        candidates: List[Tuple[Tuple[int, ...], int]] = []
        for values, start in expandable:
            # Deterministic indices are shared by every child: the direct
            # parent (drop the new attribute) is `values` itself, already
            # known covered, so only these remaining parents need checks.
            deterministic = [
                index for index in range(start + 1) if values[index] != X
            ]
            for attribute in range(start + 1, d):
                prefix = values[:attribute]
                suffix = values[attribute + 1 :]
                for value in range(cardinalities[attribute]):
                    child = prefix + (value,) + suffix
                    nodes += 1
                    survives = True
                    for index in deterministic:
                        coverage = lookup(
                            child[:index] + (X,) + child[index + 1 :]
                        )
                        if coverage is None or coverage < threshold:
                            survives = False
                            break
                    if not survives:
                        pruned += 1
                        continue
                    upper = bound(child) if bound is not None else None
                    if upper is not None and upper < threshold:
                        # Certified uncovered by the coarser level; all
                        # parents are covered, so this is a MUP.  The bound
                        # stays in the table as the child's (upper-bound)
                        # coverage for the next refinement.
                        table[child] = upper
                        mups.append(child)
                        skips += 1
                    else:
                        candidates.append((child, attribute))
        if not candidates:
            break
        counts = evaluate([Pattern(child) for child, _ in candidates])
        expandable = []
        for (child, attribute), coverage in zip(candidates, counts):
            coverage = int(coverage)
            table[child] = coverage
            if coverage < threshold:
                mups.append(child)
            else:
                expandable.append((child, attribute))
        if not expandable:
            break
    return (
        tuple(sorted(Pattern(values) for values in mups)),
        table,
        nodes,
        skips,
        pruned,
    )


def _plan_hierarchy_engine(dataset: Dataset, engine: EngineSpec) -> EngineSpec:
    """Resolve ``None``/``"auto"`` specs with the planner's hierarchy
    dense ceiling (``plan_engine(..., hierarchy=True)``).

    ``None`` plans instead of falling through to the default backend: the
    default dense engine fronts an eager unique-rows pass, and the search
    builds a fresh engine per stack level over a freshly rolled dataset —
    paying that pass once per level would dwarf the counting it saves.
    """
    if engine is None or (isinstance(engine, str) and engine == AUTO):
        engine = EngineConfig(backend=AUTO)
    if isinstance(engine, EngineConfig) and engine.is_auto:
        from repro.core.engine.planner import plan_engine

        return plan_engine(dataset, engine, hierarchy=True).config
    return engine


def _level_engine_spec(engine: EngineSpec) -> EngineSpec:
    """Spec reusable for rolled-up datasets; prebuilt instances are bound
    to the base dataset and cannot be shared with the coarser levels."""
    if engine is None or isinstance(engine, (str, EngineConfig)):
        return engine
    return None


# ----------------------------------------------------------------------
# hierarchical search results
# ----------------------------------------------------------------------
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
        stats: aggregate traversal counters; ``pruned`` includes the
            candidates certified uncovered by a coarser level.
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
    memo: Optional[Dict[Tuple[int, ...], int]] = None,
) -> HierarchicalMupResult:
    """Identify MUPs at every level of a hierarchy stack, coarsest first.

    Each level's MUP set is bit-identical to ``find_mups`` on the
    corresponding rolled-up dataset; the coarser levels' tables only serve
    as upper bounds that let the finer searches skip counting inside
    regions already known to be uncovered.

    Args:
        dataset: the base (finest) dataset.
        stack: validated hierarchy stack.
        threshold / threshold_rate: exactly one of absolute τ or a rate.
        max_level: optional pattern-level cap applied at every stack level.
        oracle: optional warm oracle for the *base* dataset.
        engine: engine spec; ``"auto"`` plans each level with the
            hierarchy dense ceiling.  Prebuilt engine instances apply to
            the base level only.
        remedies: also compute, per finest-level MUP, its most specific
            covered generalization.
        memo: optional shared base-level count memo.
    """
    tau = resolve_threshold(dataset, threshold, threshold_rate)
    watch = Stopwatch()
    base_memo: Dict[Tuple[int, ...], int] = {} if memo is None else memo
    base_oracle = oracle
    if base_oracle is None:
        base_oracle = CoverageOracle(
            dataset, _plan_hierarchy_engine(dataset, engine)
        )
    level_spec = _level_engine_spec(engine)
    # Warm the base aggregation once: every rolled level then derives its
    # unique rows from it (see ``rollup``) instead of re-sorting n rows.
    dataset.unique_rows()

    levels: List[HierarchyLevel] = []
    coarse_table: Optional[Dict[Tuple[int, ...], int]] = None
    coarse_steps: Dict[int, AttributeHierarchy] = {}
    totals = dict(nodes=0, evaluations=0, pruned=0, skips=0)
    for level in range(stack.depth, -1, -1):
        roll = stack.rollup_to(dataset, level)
        if level == 0:
            level_oracle, level_memo, created = base_oracle, base_memo, None
        else:
            level_oracle = CoverageOracle(
                roll.dataset, _plan_hierarchy_engine(roll.dataset, level_spec)
            )
            level_memo, created = {}, level_oracle

        bound = None
        if coarse_table is not None:
            steps, prev = coarse_steps, coarse_table

            def bound(values, steps=steps, prev=prev):
                image = tuple(
                    value
                    if value == X or index not in steps
                    else steps[index].groups[value]
                    for index, value in enumerate(values)
                )
                return prev.get(image)

        level_watch = Stopwatch()
        evaluations_before = level_oracle.evaluations

        def evaluate(patterns, oracle=level_oracle, memo=level_memo):
            return oracle.coverage_many(patterns, memo=memo)

        try:
            mups, table, nodes, skips, pruned = _levelwise_mups(
                roll.dataset.cardinalities, tau, max_level, evaluate, bound
            )
            evaluations = level_oracle.evaluations - evaluations_before
        finally:
            if created is not None:
                created.engine.close()
        stats = SearchStats(
            nodes_generated=nodes,
            coverage_evaluations=evaluations,
            pruned=pruned + skips,
            seconds=level_watch.elapsed(),
        )
        levels.append(
            HierarchyLevel(
                level=level,
                rollup=roll,
                result=MupResult(mups, tau, stats, max_level=max_level),
            )
        )
        totals["nodes"] += nodes
        totals["evaluations"] += evaluations
        totals["pruned"] += pruned
        totals["skips"] += skips
        coarse_table = table
        # Step maps translating the next (finer) level's codes into this
        # level's — how `bound` looks candidates up in `table`.
        coarse_steps = stack.step_maps(level - 1) if level > 0 else {}

    base_mups = levels[-1].result.mups
    remedy_records: Tuple[GeneralizationRemedy, ...] = ()
    if remedies:
        remedy_records = tuple(
            _most_specific_covered(mup, stack, tau, base_oracle, base_memo)
            for mup in base_mups
        )
    return HierarchicalMupResult(
        threshold=tau,
        levels=tuple(levels),
        remedies=remedy_records,
        stats=SearchStats(
            nodes_generated=totals["nodes"],
            coverage_evaluations=totals["evaluations"],
            pruned=totals["pruned"] + totals["skips"],
            seconds=watch.elapsed(),
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
    pooled coverage of its base-level drill-down, evaluated through the
    shared memo.  The all-``X`` state is reachable, so the search fails
    only when the dataset itself is smaller than τ.
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
            coverage = int(sum(oracle.coverage_many(expansions, memo=memo)))
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
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
    memo: Optional[Dict[Tuple[int, ...], int]] = None,
) -> BucketSweepResult:
    """MUP sets for every equal-width bucket count of a numeric column.

    Bucket counts must *nest* (each must divide the largest) so that every
    coarse bucket is a union of fine ones; the sweep then builds one engine
    over the finest bucketization and answers each coarser count by
    drilling its candidates down (:func:`~repro.data.hierarchy.drill_down`)
    into fine patterns counted through a shared ``coverage_many`` memo —
    counts flow across widths instead of being recomputed per width.  Each
    count's MUP set is bit-identical to ``find_mups`` on
    :func:`bucketized_dataset` at that count.

    Args:
        dataset: the categorical base dataset (without the numeric column).
        values: the numeric column, one value per row.
        bucket_counts: equal-width bucket counts to sweep (each ≥ 2, each
            dividing the maximum).
        threshold / threshold_rate: exactly one of absolute τ or a rate.
        name: attribute name for the bucket column.
        oracle: optional warm oracle — must be over the *finest*
            bucketized dataset (as built by ``bucketized_dataset`` at the
            maximum count); mostly for internal reuse.
        engine: engine spec for the finest-level engine.
        memo: optional shared count memo for the finest-level patterns.
    """
    counts = sorted({int(b) for b in bucket_counts})
    if not counts:
        raise DataError("need at least one bucket count")
    if counts[0] < 2:
        raise DataError(f"bucket counts must be >= 2, got {counts[0]}")
    finest = counts[-1]
    broken = [c for c in counts if finest % c != 0]
    if broken:
        raise DataError(
            f"bucket counts must nest for count reuse: {broken} do not "
            f"divide the largest count {finest}"
        )

    fine_codes, fine_labels = bucketize_equal_width(values, finest)
    fine_dataset = _append_column(dataset, name, fine_codes, fine_labels)
    fine_cardinality = len(fine_labels)  # 1 when the column is constant
    bucket_index = fine_dataset.d - 1
    tau = resolve_threshold(fine_dataset, threshold, threshold_rate)
    watch = Stopwatch()
    shared_memo: Dict[Tuple[int, ...], int] = {} if memo is None else memo
    if oracle is None:
        oracle = CoverageOracle(
            fine_dataset, _plan_hierarchy_engine(fine_dataset, engine)
        )

    points: List[BucketSweepPoint] = []
    tables: Dict[int, Dict[Tuple[int, ...], int]] = {}
    totals = dict(nodes=0, evaluations=0, pruned=0, skips=0)
    for count in counts:  # ascending = coarsest first
        if fine_cardinality == 1:
            groups: Tuple[int, ...] = (0,)
            labels = list(fine_labels)
        else:
            groups = tuple(f * count // finest for f in range(finest))
            _, labels = bucketize_equal_width(values, count)
        hierarchy = AttributeHierarchy(name, groups, tuple(labels))
        roll = rollup(fine_dataset, [hierarchy])

        bound = None
        # Bound against the finest previously-swept count this one nests
        # into (counts ascending ⇒ any divisor already has a table).
        divisors = [c for c in tables if count % c == 0]
        if divisors:
            coarser = max(divisors)
            prev = tables[coarser]
            ratio = count // coarser

            def bound(candidate, prev=prev, ratio=ratio, i=bucket_index):
                value = candidate[i]
                if value != X:
                    candidate = candidate[:i] + (value // ratio,) + candidate[i + 1 :]
                return prev.get(candidate)

        def evaluate(patterns, roll=roll):
            fine_batches = [drill_down(p, roll) for p in patterns]
            flat = [p for batch in fine_batches for p in batch]
            fine_counts = oracle.coverage_many(flat, memo=shared_memo)
            out: List[int] = []
            offset = 0
            for batch in fine_batches:
                out.append(int(sum(fine_counts[offset : offset + len(batch)])))
                offset += len(batch)
            return out

        point_watch = Stopwatch()
        evaluations_before = oracle.evaluations
        mups, table, nodes, skips, pruned = _levelwise_mups(
            roll.dataset.cardinalities, tau, None, evaluate, bound
        )
        evaluations = oracle.evaluations - evaluations_before
        stats = SearchStats(
            nodes_generated=nodes,
            coverage_evaluations=evaluations,
            pruned=pruned + skips,
            seconds=point_watch.elapsed(),
        )
        points.append(
            BucketSweepPoint(
                buckets=count,
                cardinality=len(labels),
                labels=tuple(labels),
                result=MupResult(mups, tau, stats),
            )
        )
        tables[count] = table
        totals["nodes"] += nodes
        totals["evaluations"] += evaluations
        totals["pruned"] += pruned
        totals["skips"] += skips
    return BucketSweepResult(
        attribute=name,
        threshold=tau,
        points=tuple(points),
        stats=SearchStats(
            nodes_generated=totals["nodes"],
            coverage_evaluations=totals["evaluations"],
            pruned=totals["pruned"] + totals["skips"],
            seconds=watch.elapsed(),
        ),
    )
