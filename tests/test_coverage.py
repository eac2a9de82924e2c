"""Unit tests for the coverage oracle (Definition 2, Appendix A)."""

import numpy as np
import pytest

from repro.analysis.hierarchy import HierarchyStack, find_mups_hierarchical
from repro.analysis.report import mup_report
from repro.core.coverage import (
    CoverageOracle,
    coverage_scan,
    max_covered_level,
    oracle_for,
)
from repro.core.enhancement import plan_hierarchical_enhancement
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset, Schema
from repro.data.hierarchy import AttributeHierarchy
from repro.exceptions import PatternError, ReproError


class TestCoverageOracle:
    def test_appendix_a_example(self, example1_dataset):
        # Appendix A computes cov(0X1) = 3 on Example 1's data.
        oracle = CoverageOracle(example1_dataset)
        assert oracle.coverage(Pattern.from_string("0X1")) == 3

    def test_root_coverage_is_n(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        assert oracle.coverage(Pattern.root(3)) == example1_dataset.n == 5

    def test_example1_uncovered_region(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        assert oracle.coverage(Pattern.from_string("1XX")) == 0

    def test_leaf_coverage_counts_duplicates(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        # 001 appears twice (t2 and t5).
        assert oracle.coverage(Pattern.from_string("001")) == 2

    def test_is_covered(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        assert oracle.is_covered(Pattern.from_string("0X1"), threshold=3)
        assert not oracle.is_covered(Pattern.from_string("0X1"), threshold=4)

    def test_unique_count(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        assert oracle.unique_count == 4  # 010, 001, 000, 011

    def test_matches_scan_on_random_data(self, random_dataset_factory):
        dataset = random_dataset_factory(3, n=60, cardinalities=(2, 3, 4))
        oracle = CoverageOracle(dataset)
        from repro.core.pattern_graph import PatternSpace

        space = PatternSpace.for_dataset(dataset)
        for pattern in space.all_patterns():
            assert oracle.coverage(pattern) == coverage_scan(dataset, pattern)

    def test_rejects_wrong_length_pattern(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        with pytest.raises(PatternError):
            oracle.coverage(Pattern.from_string("1X"))

    def test_rejects_out_of_range_value(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        with pytest.raises(PatternError):
            oracle.coverage(Pattern.from_string("5XX"))

    def test_evaluation_counter(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        assert oracle.evaluations == 0
        oracle.coverage(Pattern.root(3))
        oracle.coverage(Pattern.from_string("0X1"))
        assert oracle.evaluations == 2

    def test_empty_dataset(self):
        dataset = Dataset(Schema.binary(2), np.zeros((0, 2), dtype=np.int32))
        oracle = CoverageOracle(dataset)
        assert oracle.coverage(Pattern.root(2)) == 0
        assert oracle.coverage(Pattern.from_string("11")) == 0


class TestMaskPlumbing:
    def test_restrict_mask_matches_direct(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        mask = oracle.full_mask()
        mask = oracle.restrict_mask(mask, 0, 0)
        mask = oracle.restrict_mask(mask, 2, 1)
        assert oracle.coverage_of_mask(mask) == oracle.coverage(
            Pattern.from_string("0X1")
        )

    def test_match_mask_selects_unique_rows(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        rows = oracle.matching_rows(Pattern.from_string("0X1"))
        assert sorted(map(tuple, rows)) == [(0, 0, 1), (0, 1, 1)]

    def test_value_mask_is_index_column(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        mask = oracle.value_mask(0, 1)
        assert mask.sum() == 0  # no unique row has A1 = 1


class TestThresholdFromRate:
    def test_rate_to_count(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        assert oracle.threshold_from_rate(0.2) == 1
        assert oracle.threshold_from_rate(0.5) == 3  # ceil(2.5)

    def test_zero_rate_floors_at_one(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        assert oracle.threshold_from_rate(0.0) == 1

    def test_negative_rate_rejected(self, example1_dataset):
        oracle = CoverageOracle(example1_dataset)
        with pytest.raises(ValueError):
            oracle.threshold_from_rate(-0.1)


class TestMaxCoveredLevel:
    def test_min_mup_level_minus_one(self):
        mups = [Pattern.from_string("11X"), Pattern.from_string("X10")]
        assert max_covered_level(mups) == 1

    def test_no_mups_means_fully_covered(self):
        assert max_covered_level([], d=4) == 4

    def test_no_mups_without_d_raises(self):
        with pytest.raises(ValueError):
            max_covered_level([])

    def test_root_mup_gives_minus_one(self):
        assert max_covered_level([Pattern.root(3)]) == -1


class TestCoverageScan:
    def test_scan_example1(self, example1_dataset):
        assert coverage_scan(example1_dataset, Pattern.from_string("0X1")) == 3
        assert coverage_scan(example1_dataset, Pattern.root(3)) == 5

    def test_scan_rejects_wrong_length(self, example1_dataset):
        with pytest.raises(PatternError):
            coverage_scan(example1_dataset, Pattern.from_string("0X"))


class TestForeignOracle:
    """An oracle over another dataset object is rejected wherever one is
    taken: its counts would answer for rows that are not the dataset's."""

    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(0)
        other = Dataset.from_rows(
            rng.integers(0, 2, size=(200, 3)).tolist(), schema=Schema.binary(3)
        )
        dataset = Dataset.from_rows(
            [[0, 0, 0]] * 200 + [[1, 1, 1]], schema=Schema.binary(3)
        )
        return dataset, CoverageOracle(other)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_find_mups_rejects_it(self, pair, algorithm):
        dataset, foreign = pair
        with pytest.raises(ReproError, match="different dataset"):
            find_mups(dataset, threshold=5, algorithm=algorithm, oracle=foreign)
        own = CoverageOracle(dataset)
        result = find_mups(dataset, threshold=5, algorithm=algorithm, oracle=own)
        assert {str(p) for p in result} == {"1XX", "X1X", "XX1"}

    def test_an_equal_copy_is_another_dataset(self, pair):
        dataset, _ = pair
        clone = Dataset(dataset.schema, dataset.rows.copy())
        with pytest.raises(ReproError, match="different dataset"):
            oracle_for(dataset, CoverageOracle(clone))
        own = CoverageOracle(dataset)
        assert oracle_for(dataset, own) is own

    def test_mup_report_rejects_it(self, pair):
        dataset, foreign = pair
        result = find_mups(dataset, threshold=5)
        with pytest.raises(ReproError, match="different dataset"):
            mup_report(dataset, result, oracle=foreign)
        report = mup_report(dataset, result, oracle=CoverageOracle(dataset))
        # Each MUP's row reads its level and its coverage in the dataset: 1.
        for mup in ("1XX", "X1X", "XX1"):
            assert f"{mup}      1      1 " in report

    def test_hierarchy_remedies_reject_it(self, pair):
        dataset, foreign = pair
        stack = HierarchyStack.of(
            dataset, {"A1": [AttributeHierarchy.of("A1", [0, 0])]}
        )
        with pytest.raises(ReproError, match="different dataset"):
            find_mups_hierarchical(dataset, stack, threshold=5, oracle=foreign)
        result = find_mups_hierarchical(dataset, stack, threshold=5)
        with pytest.raises(ReproError, match="different dataset"):
            plan_hierarchical_enhancement(
                dataset, result.mups, result.remedies, 5, oracle=foreign
            )
