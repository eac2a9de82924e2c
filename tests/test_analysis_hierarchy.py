"""Unit tests for the hierarchical MUP analysis layer.

Covers the stack validation, the search over every level (including its
equivalence to flat ``find_mups`` on every rollup, counters included), the
generalization remedies, the bucketization sweep, and the
generalize-vs-acquire cost model.
"""

import numpy as np
import pytest

import repro.analysis.hierarchy as hierarchy_module
import repro.core.lattice as lattice_module
from repro.analysis.hierarchy import (
    BucketSweepResult,
    HierarchyStack,
    bucketize_sweep,
    bucketized_dataset,
    find_mups_hierarchical,
)
from repro.core.coverage import CoverageOracle
from repro.core.engine import CoverageEngine
from repro.core.enhancement import (
    GeneralizationRemedy,
    plan_hierarchical_enhancement,
)
from repro.core.lattice import cube_fits
from repro.core.mups import find_mups
from repro.core.pattern import Pattern, X
from repro.data.bucketize import bucketize_equal_width
from repro.data.hierarchy import AttributeHierarchy
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import DataError, EnhancementError, ReproError, SchemaError
from walk_paths import counters, grouped, on_cube, spy_counts


def make_dataset(n=120, cardinalities=(8, 4, 3), seed=3, skew=1.4):
    return random_categorical_dataset(n, cardinalities, seed=seed, skew=skew)


def make_stack(dataset):
    names = dataset.schema.names
    return HierarchyStack.of(
        dataset,
        {
            names[0]: [
                AttributeHierarchy.of(names[0], [0, 0, 1, 1, 2, 2, 3, 3]),
                AttributeHierarchy.of(names[0], [0, 0, 0, 0, 1, 1, 1, 1]),
            ],
            names[1]: [AttributeHierarchy.of(names[1], [0, 0, 1, 1])],
        },
    )


class TestHierarchyStack:
    def test_depth_is_longest_chain(self):
        stack = make_stack(make_dataset())
        assert stack.depth == 2

    def test_level_zero_is_base(self):
        dataset = make_dataset()
        stack = make_stack(dataset)
        roll = stack.rollup_to(dataset, 0)
        assert roll.dataset is dataset
        assert stack.level_hierarchies(0) == {}

    def test_short_chains_saturate(self):
        dataset = make_dataset()
        stack = make_stack(dataset)
        level2 = stack.level_hierarchies(2)
        # attr 1 has a one-level chain: at stack level 2 it stays at its
        # coarsest map.
        assert level2[1].groups == (0, 0, 1, 1)
        assert level2[0].groups == (0, 0, 0, 0, 1, 1, 1, 1)

    def test_refinement_must_factor(self):
        dataset = make_dataset(cardinalities=(4, 3))
        name = dataset.schema.names[0]
        with pytest.raises(SchemaError, match="does not factor"):
            HierarchyStack.of(
                dataset,
                {
                    name: [
                        AttributeHierarchy.of(name, [0, 0, 1, 1]),
                        # splits fine group 0 across coarse groups
                        AttributeHierarchy.of(name, [0, 1, 1, 1]),
                    ]
                },
            )

    def test_empty_chain_rejected(self):
        dataset = make_dataset()
        with pytest.raises(SchemaError, match="empty"):
            HierarchyStack.of(dataset, {dataset.schema.names[0]: []})

    def test_no_chains_rejected(self):
        with pytest.raises(SchemaError, match="at least one"):
            HierarchyStack.of(make_dataset(), {})

    def test_mismatched_attribute_rejected(self):
        dataset = make_dataset()
        names = dataset.schema.names
        with pytest.raises(SchemaError, match="contains a hierarchy"):
            HierarchyStack.of(
                dataset,
                {names[1]: [AttributeHierarchy.of(names[0], [0, 0, 1, 1])]},
            )

    def test_wrong_domain_rejected(self):
        dataset = make_dataset()
        name = dataset.schema.names[0]
        with pytest.raises(SchemaError, match="maps 3 values"):
            HierarchyStack.of(
                dataset, {name: [AttributeHierarchy.of(name, [0, 0, 1])]}
            )

    def test_level_out_of_range(self):
        stack = make_stack(make_dataset())
        with pytest.raises(DataError):
            stack.level_hierarchies(3)


class TestFindMupsHierarchical:
    @pytest.mark.parametrize("tau", [2, 5, 9, 40])
    def test_bit_identical_to_flat_at_every_level(self, tau):
        dataset = make_dataset()
        stack = make_stack(dataset)
        result = find_mups_hierarchical(dataset, stack, threshold=tau)
        for level in range(stack.depth + 1):
            roll = stack.rollup_to(dataset, level)
            flat = find_mups(roll.dataset, threshold=tau)
            assert result.at_level(level).mups == flat.mups

    def test_max_level_forwarded(self):
        dataset = make_dataset()
        stack = make_stack(dataset)
        result = find_mups_hierarchical(
            dataset, stack, threshold=6, max_level=1
        )
        for level in range(stack.depth + 1):
            roll = stack.rollup_to(dataset, level)
            flat = find_mups(roll.dataset, threshold=6, max_level=1)
            assert result.at_level(level).mups == flat.mups

    @pytest.mark.parametrize("cap", [-1, 1.5, True])
    def test_bad_max_level_raises(self, cap):
        # A negative cap used to be clamped to 0.
        dataset = make_dataset()
        with pytest.raises(ReproError, match="max_level"):
            find_mups_hierarchical(
                dataset, make_stack(dataset), threshold=6, max_level=cap
            )

    def test_threshold_rate_accepted(self):
        dataset = make_dataset()
        stack = make_stack(dataset)
        result = find_mups_hierarchical(dataset, stack, threshold_rate=0.05)
        assert result.threshold >= 1

    def test_tiny_dataset_root_mup_everywhere(self):
        dataset = make_dataset(n=5)
        stack = make_stack(dataset)
        result = find_mups_hierarchical(dataset, stack, threshold=50)
        root = Pattern.root(dataset.d)
        for level in range(stack.depth + 1):
            assert result.at_level(level).mups == (root,)
        # No generalization of the root exists, so no remedy can be found.
        assert all(not remedy.found for remedy in result.remedies)

    def test_missing_level_raises(self):
        dataset = make_dataset()
        result = find_mups_hierarchical(
            dataset, make_stack(dataset), threshold=5, remedies=False
        )
        with pytest.raises(DataError):
            result.at_level(9)

    def test_warm_oracle(self):
        dataset = make_dataset()
        stack = make_stack(dataset)
        oracle = CoverageOracle(dataset)
        first = find_mups_hierarchical(dataset, stack, threshold=5, oracle=oracle)
        # The remedies' point queries run through the warm oracle.
        assert first.remedies and oracle.evaluations > 0
        second = find_mups_hierarchical(
            dataset, stack, threshold=5, oracle=oracle
        )
        assert second.at_level(0).mups == first.at_level(0).mups
        assert second.remedies == first.remedies

    def test_prebuilt_engine_applies_to_base_level(self):
        dataset = make_dataset()
        stack = make_stack(dataset)
        engine = CoverageEngine(dataset)
        result = find_mups_hierarchical(
            dataset, stack, threshold=5, engine=engine, remedies=False
        )
        flat = find_mups(dataset, threshold=5)
        assert result.at_level(0).mups == flat.mups

    def test_as_dict_shape(self):
        dataset = make_dataset()
        result = find_mups_hierarchical(
            dataset, make_stack(dataset), threshold=5
        )
        body = result.as_dict()
        assert {"threshold", "levels", "remedies", "stats"} <= set(body)
        assert [entry["level"] for entry in body["levels"]] == [0, 1, 2]


def brute_force_remedy(dataset, stack, mup, tau):
    """Exhaustive most-specific covered generalization, for cross-checks."""
    from itertools import product as iproduct

    from repro.analysis.hierarchy import _generalized_pattern

    d = len(mup)
    caps = [
        stack.chain_length(i) + 1 if mup[i] != X else 0 for i in range(d)
    ]
    best = None
    for levels in iproduct(*(range(cap + 1) for cap in caps)):
        steps = sum(levels)
        if steps == 0:
            continue
        generalized, expansion = _generalized_pattern(mup, stack, levels)
        coverage = sum(
            int(np.all((dataset.rows == p.values) | (np.array(p.values) == X), axis=1).sum())
            for p in expansion
        )
        if coverage >= tau:
            key = (steps, levels)
            if best is None or key < best[0]:
                best = (key, generalized, coverage)
    return best


def bench_workloads():
    """The smoke workloads of ``benchmarks/bench_hierarchy.py``."""
    from repro.data.scenarios import scenario_dataset

    dataset = scenario_dataset("zipf", 8_000, (96, 48, 16), seed=7, skew=1.8)
    chains = {}
    for name, cardinality in zip(dataset.schema.names, dataset.cardinalities):
        levels = [[code // 4 for code in range(cardinality)]]
        if cardinality >= 32:
            levels.append([code // (cardinality // 4) for code in range(cardinality)])
        chains[name] = [AttributeHierarchy.of(name, level) for level in levels]
    numeric = scenario_dataset("zipf", 8_000, (6, 5, 4), seed=11, skew=1.4)
    values = np.random.default_rng(19).lognormal(0.0, 1.0, size=numeric.n)
    return HierarchyStack.of(dataset, chains), dataset, numeric, values


#: The bucket counts of ``benchmarks/bench_hierarchy.py``'s sweep.
BENCH_BUCKET_COUNTS = (2, 3, 4, 6, 8, 12, 24)


def searched(result):
    """A MUP result's counters and MUP count."""
    return counters(result.stats), len(result)


class TestCountersOnTheBenchWorkloads:
    """Every stack level and every bucket count is flat PATTERN-BREAKER on
    its rolled-up dataset: the same MUPs and counters, on the cube and by
    group-by."""

    @pytest.mark.parametrize("walk", [on_cube, grouped], ids=["cube", "grouped"])
    def test_drill_down_counters(self, walk):
        stack, dataset, _, _ = bench_workloads()
        result = walk(
            find_mups_hierarchical, dataset, stack, threshold=20, remedies=False
        )
        assert [entry.level for entry in result.levels] == [0, 1, 2]
        for entry in result.levels:
            flat = find_mups(
                stack.rollup_to(dataset, entry.level).dataset,
                threshold=20,
                algorithm="pattern_breaker",
            )
            assert entry.result.mups == flat.mups, entry.level
            assert searched(entry.result) == searched(flat), entry.level

    @pytest.mark.parametrize("walk", [on_cube, grouped], ids=["cube", "grouped"])
    def test_bucket_sweep_counters(self, walk):
        _, _, numeric, values = bench_workloads()
        sweep = walk(
            bucketize_sweep, numeric, values, BENCH_BUCKET_COUNTS, threshold=8
        )
        assert [point.buckets for point in sweep.points] == list(BENCH_BUCKET_COUNTS)
        for point in sweep.points:
            flat = find_mups(
                bucketized_dataset(numeric, values, point.buckets),
                threshold=8,
                algorithm="pattern_breaker",
            )
            assert point.result.mups == flat.mups, point.buckets
            assert searched(point.result) == searched(flat), point.buckets

    @pytest.mark.parametrize(
        "cells,grouped_walks",
        [(lattice_module._CUBE_CELLS, 0), (2_000, 3)],
        ids=["shipped-cap", "cap-2000"],
    )
    def test_each_level_and_count_reads_a_cube_when_it_fits(
        self, cells, grouped_walks, monkeypatch
    ):
        """``cube_fits`` alone picks each walk.  Under the shipped cap every
        rolled space fits; under a cap of 2,000 cells the base level
        (80,801 cells) and the 12- and 24-bucket counts (2,730 and 5,250)
        are counted by group-by."""
        stack, dataset, numeric, values = bench_workloads()
        spaces = [
            stack.rollup_to(dataset, level).dataset.cardinalities
            for level in range(stack.depth + 1)
        ] + [numeric.cardinalities + (count,) for count in BENCH_BUCKET_COUNTS]
        monkeypatch.setattr(lattice_module, "_CUBE_CELLS", cells)
        expected = [
            "CoverageCube" if cube_fits(space) else "GroupCounter"
            for space in spaces
        ]
        assert expected.count("GroupCounter") == grouped_walks
        made = spy_counts(monkeypatch)
        find_mups_hierarchical(dataset, stack, threshold=20, remedies=False)
        bucketize_sweep(numeric, values, BENCH_BUCKET_COUNTS, threshold=8)
        assert sorted(made) == sorted(expected)


class TestGeneralizationRemedies:
    def test_remedies_cover_and_are_minimal(self):
        dataset = make_dataset()
        stack = make_stack(dataset)
        tau = 6
        result = find_mups_hierarchical(dataset, stack, threshold=tau)
        assert len(result.remedies) == len(result.mups)
        for remedy in result.remedies:
            assert remedy.found
            assert remedy.coverage >= tau
            expected = brute_force_remedy(dataset, stack, remedy.mup, tau)
            assert expected is not None
            (steps, levels), generalized, coverage = expected
            assert remedy.steps == steps
            assert remedy.levels == levels
            assert remedy.generalized == generalized
            assert remedy.coverage == coverage

    def test_each_base_expansion_is_counted_at_most_once(self, monkeypatch):
        dataset = make_dataset()
        stack = make_stack(dataset)
        tau = 6
        expected = find_mups_hierarchical(dataset, stack, threshold=tau).remedies
        asked = []
        coverage_many = CoverageOracle.coverage_many

        def spy(oracle, patterns):
            asked.extend(pattern.values for pattern in patterns)
            return coverage_many(oracle, patterns)

        monkeypatch.setattr(CoverageOracle, "coverage_many", spy)
        oracle = CoverageOracle(dataset)
        result = find_mups_hierarchical(dataset, stack, threshold=tau, oracle=oracle)
        assert asked and len(asked) == len(set(asked))
        assert oracle.evaluations == len(asked)
        # The same remedies as test_remedies_cover_and_are_minimal's.
        assert result.remedies == expected

    def test_describe_renders_levels(self):
        dataset = make_dataset()
        stack = make_stack(dataset)
        result = find_mups_hierarchical(dataset, stack, threshold=6)
        for remedy in result.remedies:
            text = remedy.describe(dataset.schema, stack)
            assert "generalize to" in text


#: Numeric columns whose ranges the bucket labels render differently:
#: fractions, integers, negatives, a tiny span, large magnitudes, a plain
#: list and a constant.
LABEL_COLUMNS = {
    "lognormal": lambda n: np.random.default_rng(1).lognormal(0.0, 1.0, n),
    "integers": lambda n: np.arange(n) % 17,
    "negative": lambda n: np.random.default_rng(2).normal(-50.0, 20.0, n),
    "tiny-span": lambda n: 1.0 + np.random.default_rng(3).random(n) * 1e-9,
    "large": lambda n: np.random.default_rng(4).random(n) * 1e12,
    "list": lambda n: [float(i % 7) / 3 for i in range(n)],
    "constant": lambda n: np.full(n, 2.5),
}


class TestBucketizeSweep:
    def test_bit_identical_to_independent_runs(self):
        dataset = make_dataset(cardinalities=(5, 3))
        rng = np.random.default_rng(11)
        values = rng.lognormal(0.0, 1.0, size=dataset.n)
        sweep = bucketize_sweep(dataset, values, [2, 4, 8], threshold=4)
        assert isinstance(sweep, BucketSweepResult)
        for point in sweep.points:
            independent = find_mups(
                bucketized_dataset(dataset, values, point.buckets),
                threshold=4,
            )
            assert point.result.mups == independent.mups

    def test_non_nesting_counts_rejected(self):
        dataset = make_dataset(cardinalities=(3, 2))
        with pytest.raises(DataError, match="nest"):
            bucketize_sweep(dataset, np.arange(dataset.n), [3, 4], threshold=2)

    def test_counts_below_two_rejected(self):
        dataset = make_dataset(cardinalities=(3, 2))
        with pytest.raises(DataError, match=">= 2"):
            bucketize_sweep(dataset, np.arange(dataset.n), [1, 2], threshold=2)

    def test_empty_counts_rejected(self):
        dataset = make_dataset(cardinalities=(3, 2))
        with pytest.raises(DataError, match="at least one"):
            bucketize_sweep(dataset, np.arange(dataset.n), [], threshold=2)

    @pytest.mark.parametrize(
        "counts", [[4.7, 8], [2, 4.0], [True, 2], [2, "4"]], ids=str
    )
    def test_non_integer_counts_rejected(self, counts):
        """4.7 used to be truncated, so [4.7, 8] swept 4 and 8."""
        dataset = make_dataset(cardinalities=(3, 2))
        with pytest.raises(DataError, match="bucket count must be an integer"):
            bucketize_sweep(dataset, np.arange(dataset.n), counts, threshold=2)

    def test_numpy_integer_counts_accepted(self):
        dataset = make_dataset(cardinalities=(3, 2))
        values = np.arange(dataset.n, dtype=float)
        sweep = bucketize_sweep(dataset, values, np.array([2, 4]), threshold=3)
        plain = bucketize_sweep(dataset, values, [2, 4], threshold=3)
        assert [type(p.buckets) for p in sweep.points] == [int, int]
        assert [p.result.mups for p in sweep.points] == [
            p.result.mups for p in plain.points
        ]

    def test_constant_column_collapses_every_count(self):
        dataset = make_dataset(cardinalities=(3, 2))
        sweep = bucketize_sweep(
            dataset, np.full(dataset.n, 2.5), [2, 4], threshold=3
        )
        assert [point.cardinality for point in sweep.points] == [1, 1]
        assert sweep.points[0].result.mups == sweep.points[1].result.mups

    def test_point_for_lookup(self):
        dataset = make_dataset(cardinalities=(3, 2))
        sweep = bucketize_sweep(
            dataset, np.arange(dataset.n, dtype=float), [2, 4], threshold=3
        )
        assert sweep.point_for(4).buckets == 4
        with pytest.raises(DataError):
            sweep.point_for(16)

    @pytest.mark.parametrize("column", sorted(LABEL_COLUMNS))
    def test_labels_are_the_bucketizers(self, column):
        dataset = make_dataset(cardinalities=(3, 2))
        values = LABEL_COLUMNS[column](dataset.n)
        sweep = bucketize_sweep(dataset, values, [2, 3, 4, 6, 12], threshold=3)
        for point in sweep.points:
            _, labels = bucketize_equal_width(values, point.buckets)
            assert list(point.labels) == labels
            assert point.cardinality == len(labels)

    def test_the_column_is_bucketized_once(self, monkeypatch):
        calls = []
        bucketize = hierarchy_module.bucketize_equal_width

        def spy(values, buckets):
            calls.append(buckets)
            return bucketize(values, buckets)

        monkeypatch.setattr(hierarchy_module, "bucketize_equal_width", spy)
        dataset = make_dataset(cardinalities=(3, 2))
        values = LABEL_COLUMNS["lognormal"](dataset.n)
        sweep = bucketize_sweep(dataset, values, BENCH_BUCKET_COUNTS, threshold=3)
        assert calls == [max(BENCH_BUCKET_COUNTS)]
        assert [p.buckets for p in sweep.points] == list(BENCH_BUCKET_COUNTS)

    def test_nan_rejected_through_sweep(self):
        dataset = make_dataset(cardinalities=(3, 2))
        values = np.arange(dataset.n, dtype=float)
        values[3] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            bucketize_sweep(dataset, values, [2, 4], threshold=3)


class TestBucketizedDataset:
    def test_appends_labeled_column(self):
        dataset = make_dataset(cardinalities=(3, 2))
        values = np.arange(dataset.n, dtype=float)
        extended = bucketized_dataset(dataset, values, 4, name="price")
        assert extended.d == dataset.d + 1
        assert extended.schema.names[-1] == "price"
        assert extended.cardinalities[-1] == 4
        assert extended.schema.value_labels[-1][-1].endswith("]")

    def test_quantile_method(self):
        dataset = make_dataset(cardinalities=(3, 2))
        rng = np.random.default_rng(0)
        extended = bucketized_dataset(
            dataset, rng.normal(size=dataset.n), 4, method="quantiles"
        )
        assert extended.cardinalities[-1] <= 4

    @pytest.mark.parametrize("method", ["equal_width", "quantiles"])
    @pytest.mark.parametrize("buckets", [4.7, 4.0, True, 1])
    def test_bad_bucket_count_rejected(self, method, buckets):
        dataset = make_dataset(cardinalities=(3, 2))
        with pytest.raises(DataError, match="bucket count must be"):
            bucketized_dataset(
                dataset, np.arange(dataset.n, dtype=float), buckets, method=method
            )

    def test_unknown_method_rejected(self):
        dataset = make_dataset(cardinalities=(3, 2))
        with pytest.raises(DataError, match="unknown bucketization method"):
            bucketized_dataset(
                dataset, np.arange(dataset.n), 4, method="magic"
            )

    def test_name_conflict_rejected(self):
        dataset = make_dataset(cardinalities=(3, 2))
        with pytest.raises(DataError, match="already has"):
            bucketized_dataset(
                dataset,
                np.arange(dataset.n),
                4,
                name=dataset.schema.names[0],
            )

    def test_row_count_mismatch_rejected(self):
        dataset = make_dataset(cardinalities=(3, 2))
        with pytest.raises(DataError, match="rows"):
            bucketized_dataset(dataset, np.arange(dataset.n + 1), 4)


class TestHierarchicalEnhancement:
    def run_plan(self, step_cost=1.0, row_cost=1.0):
        dataset = make_dataset()
        stack = make_stack(dataset)
        tau = 6
        result = find_mups_hierarchical(dataset, stack, threshold=tau)
        plan = plan_hierarchical_enhancement(
            dataset,
            result.mups,
            result.remedies,
            tau,
            row_cost=row_cost,
            step_cost=step_cost,
        )
        return result, plan

    def test_cheap_steps_prefer_generalization(self):
        result, plan = self.run_plan(step_cost=0.01)
        assert len(plan.generalizations) == len(result.mups)
        assert plan.acquired == ()
        assert plan.acquisition is None
        assert plan.acquisition_cost == 0.0
        assert plan.total_cost == pytest.approx(plan.generalization_cost)

    def test_expensive_steps_prefer_acquisition(self):
        result, plan = self.run_plan(step_cost=10_000.0)
        assert plan.generalizations == ()
        assert plan.acquired == result.mups
        assert plan.acquisition is not None
        # every target is hittable on an unconstrained validation oracle
        assert plan.acquisition.unhittable == ()
        assert plan.acquisition_cost > 0

    @pytest.mark.parametrize("engine", ["packed", "auto"])
    def test_acquisition_does_not_depend_on_the_engine(self, engine):
        dataset = make_dataset()
        result, plan = self.run_plan(step_cost=10_000.0)
        other = plan_hierarchical_enhancement(
            dataset, result.mups, result.remedies, 6,
            step_cost=10_000.0, engine=engine,
        )
        assert other.acquisition.combinations == plan.acquisition.combinations
        assert other.acquisition_cost == plan.acquisition_cost

    def test_every_mup_is_planned_exactly_once(self):
        result, plan = self.run_plan()
        planned = {r.mup for r in plan.generalizations} | set(plan.acquired)
        assert planned == set(result.mups)

    def test_costs_must_be_positive(self):
        dataset = make_dataset()
        with pytest.raises(EnhancementError):
            plan_hierarchical_enhancement(dataset, [], [], 5, row_cost=0.0)

    def test_as_dict_roundtrips_shapes(self):
        _result, plan = self.run_plan()
        body = plan.as_dict()
        assert body["total_cost"] == pytest.approx(
            body["generalization_cost"] + body["acquisition_cost"]
        )
        for record in body["generalizations"]:
            assert set(record) == {
                "mup",
                "generalized",
                "levels",
                "coverage",
                "steps",
            }

    def test_remedy_found_flag(self):
        remedy = GeneralizationRemedy(
            mup=Pattern.of(1, 2),
            generalized=None,
            levels=(0, 0),
            coverage=0,
            steps=0,
        )
        assert not remedy.found
        assert remedy.as_dict()["generalized"] is None
