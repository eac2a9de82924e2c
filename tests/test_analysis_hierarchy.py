"""Unit tests for the hierarchical MUP analysis layer.

Covers the stack validation, the coarse-to-fine search (including its
equivalence to flat ``find_mups`` on every rollup), the generalization
remedies, the bucketization sweep, and the generalize-vs-acquire cost
model.
"""

import numpy as np
import pytest

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
from repro.core.mups import find_mups
from repro.core.pattern import Pattern, X
from repro.data.hierarchy import AttributeHierarchy
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import DataError, EnhancementError, ReproError, SchemaError


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

    def test_step_maps_translate_adjacent_levels(self):
        stack = make_stack(make_dataset())
        steps0 = stack.step_maps(0)
        assert steps0[0].groups == (0, 0, 1, 1, 2, 2, 3, 3)
        steps1 = stack.step_maps(1)
        # level-1 codes (4 groups) -> level-2 codes (2 groups); attr 1 is
        # saturated past level 1 so it is omitted (identity).
        assert steps1[0].groups == (0, 0, 1, 1)
        assert 1 not in steps1

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

    def test_coarse_bounds_skip_fine_counting(self):
        dataset = make_dataset()
        stack = make_stack(dataset)
        tau = 9
        hier = find_mups_hierarchical(
            dataset, stack, threshold=tau, remedies=False
        )
        # The base level alone, run flat, costs this many evaluations:
        flat = find_mups(dataset, threshold=tau, algorithm="apriori")
        assert hier.stats.pruned > 0
        base_evals = hier.at_level(0).stats.coverage_evaluations
        assert base_evals < flat.stats.coverage_evaluations

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


class TestCountersOnTheBenchWorkloads:
    """Counters recorded from the engine-counted implementation these
    searches replaced; the level walk must reproduce them."""

    def test_drill_down_counters(self):
        stack, dataset, _, _ = bench_workloads()
        result = find_mups_hierarchical(
            dataset, stack, threshold=20, remedies=False
        )
        counters = {
            entry.level: (
                entry.result.stats.nodes_generated,
                entry.result.stats.coverage_evaluations,
                entry.result.stats.pruned,
                len(entry.result),
            )
            for entry in result.levels
        }
        assert counters == {
            0: (2417, 725, 1692, 972),
            1: (341, 208, 133, 178),
            2: (89, 72, 17, 26),
        }

    def test_bucket_sweep_counters(self):
        """Nodes and pruned candidates per count are unchanged; evaluations
        now count each count's own candidates."""
        _, _, numeric, values = bench_workloads()
        sweep = bucketize_sweep(
            numeric, values, (2, 3, 4, 6, 8, 12, 24), threshold=8
        )
        counters = {
            point.buckets: (
                point.result.stats.nodes_generated,
                point.result.stats.pruned,
                len(point.result),
            )
            for point in sweep.points
        }
        assert counters == {
            2: (576, 182, 28),
            3: (759, 349, 42),
            4: (942, 551, 45),
            6: (1308, 863, 96),
            8: (1674, 1193, 109),
            12: (2406, 1879, 117),
            24: (4602, 3931, 261),
        }
        # Every candidate is counted or certified by a coarser count.
        for point in sweep.points:
            stats = point.result.stats
            assert stats.coverage_evaluations <= stats.nodes_generated
        assert sweep.point_for(2).result.stats.coverage_evaluations == 394


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

    def test_describe_renders_levels(self):
        dataset = make_dataset()
        stack = make_stack(dataset)
        result = find_mups_hierarchical(dataset, stack, threshold=6)
        for remedy in result.remedies:
            text = remedy.describe(dataset.schema, stack)
            assert "generalize to" in text


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

    def test_counts_shared_downward(self):
        dataset = make_dataset(cardinalities=(5, 3))
        rng = np.random.default_rng(12)
        values = rng.normal(size=dataset.n)
        sweep = bucketize_sweep(dataset, values, [2, 4, 8], threshold=4)
        independent_evals = 0
        for point in sweep.points:
            flat = find_mups(
                bucketized_dataset(dataset, values, point.buckets),
                threshold=4,
                algorithm="apriori",
            )
            independent_evals += flat.stats.coverage_evaluations
        assert sweep.stats.coverage_evaluations < independent_evals

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
