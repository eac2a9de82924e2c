"""Unit tests for the packed coverage engine."""

import numpy as np
import pytest

from engine_reference import row_match
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.engine import CoverageEngine
from repro.core.pattern import Pattern, X
from repro.data.dataset import Dataset
from repro.data.synthetic import random_categorical_dataset


@pytest.fixture
def dataset():
    return random_categorical_dataset(70, (3, 2, 4), seed=5, skew=1.2)


def patterns_of(dataset):
    """The root, every level-1 pattern, and two deeper ones."""
    space_patterns = [Pattern.root(dataset.d)]
    for i, cardinality in enumerate(dataset.cardinalities):
        for value in range(cardinality):
            space_patterns.append(Pattern.root(dataset.d).with_value(i, value))
    space_patterns.append(Pattern.of(1, 0, 2))
    space_patterns.append(Pattern.of(2, X, 3))
    return space_patterns


@pytest.fixture
def patterns(dataset):
    return patterns_of(dataset)


#: Datasets whose masks take each counting path: weighted counts over
#: duplicate rows, plain popcounts over distinct rows, and masks that
#: span more than one word.
QUERY_DATASETS = {
    "duplicates": lambda: random_categorical_dataset(70, (3, 2, 4), seed=5, skew=1.2),
    "distinct": lambda: Dataset.from_rows(
        [[a, b, c] for a in range(3) for b in range(2) for c in range(4)]
    ),
    "multiword": lambda: random_categorical_dataset(600, (5, 4, 6), seed=9),
}


class TestIndex:
    def test_index_accounting_positive(self, dataset):
        engine = CoverageEngine(dataset)
        assert engine.index_nbytes > 0


class TestQueryEquivalence:
    @pytest.mark.parametrize("name", sorted(QUERY_DATASETS))
    def test_matches_the_row_scan_on_every_query(self, name):
        dataset = QUERY_DATASETS[name]()
        patterns = patterns_of(dataset)
        engine = CoverageEngine(dataset)
        if name == "multiword":
            assert len(engine.full_mask()) > 1
        expected = [coverage_scan(dataset, pattern) for pattern in patterns]
        # Twice over one engine: answering once changes no later answer.
        for _ in range(2):
            for pattern, count in zip(patterns, expected):
                assert engine.coverage(pattern) == count
                assert np.array_equal(
                    engine.mask_to_bool(engine.match_mask(pattern)),
                    row_match(dataset, pattern),
                )
            assert list(engine.coverage_many(patterns)) == expected

    def test_value_mask_and_restrict(self, dataset):
        engine = CoverageEngine(dataset)
        full = engine.full_mask()
        root = Pattern.root(dataset.d)
        for attribute, cardinality in enumerate(dataset.cardinalities):
            for value in range(cardinality):
                restricted = engine.restrict(full, attribute, value)
                assert np.array_equal(
                    engine.mask_to_bool(restricted),
                    row_match(dataset, root.with_value(attribute, value)),
                )
                via_value_mask = engine.count(
                    engine.restrict(engine.value_mask(attribute, value), attribute, value)
                )
                assert via_value_mask == engine.count(restricted)

    def test_restrict_children_transposes_families(self, dataset):
        engine = CoverageEngine(dataset)
        parent = Pattern.of(X, 1, X)
        mask = engine.match_mask(parent)
        family = engine.restrict_children(mask, 2)
        assert len(family) == dataset.cardinalities[2]
        for value, child in enumerate(family):
            assert np.array_equal(
                engine.mask_to_bool(child),
                row_match(dataset, parent.with_value(2, value)),
            )
        assert int(engine.count_many(family).sum()) == engine.count(mask)

    def test_count_many_empty(self, dataset):
        engine = CoverageEngine(dataset)
        assert list(engine.count_many([])) == []
        assert list(engine.coverage_many([])) == []

    def test_oracle_matching_rows_roundtrip(self, dataset):
        """mask_to_bool lifts a mask to the unique rows it selects."""
        oracle = CoverageOracle(dataset, engine=CoverageEngine(dataset))
        unique, _ = dataset.unique_rows()
        for pattern in (Pattern.root(3), Pattern.of(1, X, X), Pattern.of(X, 0, 2)):
            got = {tuple(r) for r in oracle.matching_rows(pattern)}
            expected = {tuple(r) for r in unique[row_match(dataset, pattern)]}
            assert got == expected


class TestReturnedMasks:
    def test_mutating_a_returned_mask_changes_no_later_answer(
        self, dataset, patterns
    ):
        engine = CoverageEngine(dataset)
        counts = [engine.coverage(pattern) for pattern in patterns]
        rows = [engine.word_matrix(i).copy() for i in range(dataset.d)]
        for pattern in patterns:
            engine.match_mask(pattern)[:] = 0
            mask = engine.match_mask(pattern)
            mask |= engine.full_mask()
        engine.full_mask()[:] = 0
        assert [engine.coverage(pattern) for pattern in patterns] == counts
        assert list(engine.coverage_many(patterns)) == counts
        for i, words in enumerate(rows):
            assert np.array_equal(engine.word_matrix(i), words)

    def test_every_call_returns_a_fresh_buffer(self, dataset):
        engine = CoverageEngine(dataset)
        pattern = Pattern.of(X, 1, X)
        first, second = engine.match_mask(pattern), engine.match_mask(pattern)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(engine.full_mask(), engine.full_mask())
