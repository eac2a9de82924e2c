"""Unit tests for the packed coverage engine and the hot-mask cache."""

import numpy as np
import pytest

from engine_reference import row_match
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.engine import CoverageEngine
from repro.core.pattern import Pattern, X
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError


@pytest.fixture
def dataset():
    return random_categorical_dataset(70, (3, 2, 4), seed=5, skew=1.2)


@pytest.fixture
def patterns(dataset):
    space_patterns = [Pattern.root(dataset.d)]
    for i, cardinality in enumerate(dataset.cardinalities):
        for value in range(cardinality):
            space_patterns.append(Pattern.root(dataset.d).with_value(i, value))
    space_patterns.append(Pattern.of(1, 0, 2))
    space_patterns.append(Pattern.of(2, X, 3))
    return space_patterns


class TestIndex:
    def test_index_accounting_positive(self, dataset):
        engine = CoverageEngine(dataset)
        assert engine.index_nbytes > 0

    @pytest.mark.parametrize(
        "size", [-1, True, False, 2.5, 2.0, "3", None], ids=repr
    )
    def test_bad_mask_cache_sizes_are_rejected(self, dataset, size):
        with pytest.raises(EngineError, match="mask_cache_size"):
            CoverageEngine(dataset, mask_cache_size=size)

    def test_numpy_integer_mask_cache_size(self, dataset):
        engine = CoverageEngine(dataset, mask_cache_size=np.int64(3))
        assert engine.mask_cache_size == 3
        assert type(engine.mask_cache_size) is int


class TestQueryEquivalence:
    @pytest.mark.parametrize("mask_cache_size", [1, 2, 5, 70])
    def test_matches_the_row_scan_on_every_query(
        self, dataset, patterns, mask_cache_size
    ):
        # Capacities below, near and above the query count: answers must
        # not depend on which masks the LRU still holds.
        engine = CoverageEngine(dataset, mask_cache_size=mask_cache_size)
        expected = [coverage_scan(dataset, pattern) for pattern in patterns]
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


class TestHotMaskCache:
    def test_hits_and_misses_are_counted(self, dataset, patterns):
        engine = CoverageEngine(dataset)
        engine.coverage_many(patterns)
        info = engine.cache_info()
        assert info["hits"] == 0
        assert info["misses"] == len(patterns)
        engine.coverage_many(patterns)
        info = engine.cache_info()
        assert info["hits"] == len(patterns)
        assert info["misses"] == len(patterns)
        assert 0.0 < info["hit_rate"] <= 1.0

    def test_lru_evicts_oldest(self, dataset):
        engine = CoverageEngine(dataset, mask_cache_size=2)
        a, b, c = Pattern.of(0, X, X), Pattern.of(1, X, X), Pattern.of(2, X, X)
        engine.coverage(a)
        engine.coverage(b)
        engine.coverage(c)  # evicts a
        assert engine.cache_info()["entries"] == 2
        engine.coverage(a)  # miss again
        assert engine.cache_info()["misses"] == 4
        assert engine.cache_info()["hits"] == 0

    def test_disabled_cache_never_stores(self, dataset, patterns):
        engine = CoverageEngine(dataset, mask_cache_size=0)
        engine.coverage_many(patterns)
        engine.coverage_many(patterns)
        assert engine.cache_info() == {
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "nbytes": 0,
            "max_size": 0,
            "hit_rate": 0.0,
        }

    def test_byte_budget_bounds_the_cache(self, dataset, monkeypatch):
        import repro.core.engine as engine_module

        # A budget smaller than one mask: the cache degrades to one entry
        # instead of thrashing or growing unbounded.
        monkeypatch.setattr(engine_module, "DEFAULT_MASK_CACHE_BYTES", 1)
        engine = CoverageEngine(dataset)
        a, b = Pattern.of(0, X, X), Pattern.of(1, X, X)
        assert engine.coverage(a) == engine.coverage(a)
        engine.coverage(b)
        info = engine.cache_info()
        assert info["entries"] == 1
        assert info["nbytes"] <= engine._mask_nbytes(engine.match_mask(a))

    def test_clear_resets_state(self, dataset, patterns):
        engine = CoverageEngine(dataset)
        engine.coverage_many(patterns)
        engine.clear_mask_cache()
        assert engine.cache_info()["entries"] == 0
        assert engine.cache_info()["misses"] == 0

    def test_cached_answers_equal_uncached(self, dataset, patterns):
        cached = CoverageEngine(dataset)
        uncached = CoverageEngine(dataset, mask_cache_size=0)
        first = list(cached.coverage_many(patterns))
        second = list(cached.coverage_many(patterns))  # all hits
        assert first == second == list(uncached.coverage_many(patterns))

    def test_mutating_returned_mask_does_not_poison_cache(self, dataset):
        engine = CoverageEngine(dataset)
        pattern = Pattern.of(X, 1, X)
        before = engine.coverage(pattern)
        mask = engine.match_mask(pattern)
        mask &= engine.value_mask(0, 0)
        assert engine.coverage(pattern) == before
