"""Unit tests for the sharded coverage engine and the hot-mask cache."""

import numpy as np
import pytest

from repro.core.coverage import CoverageOracle
from repro.core.engine import (
    DenseBoolEngine,
    PackedBitsetEngine,
    ShardedEngine,
)
from repro.core.pattern import Pattern, X
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset


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


class TestShardStructure:
    def test_shards_partition_rows_and_combinations(self, dataset):
        engine = ShardedEngine(dataset, shards=3)
        assert engine.shard_count == 3
        infos = engine.shard_infos
        # Every row lands in exactly one shard.
        assert sum(info.row_count for info in infos) == dataset.n
        # Word slices tile the flat mask space.
        assert infos[0].word_start == 0
        for left, right in zip(infos, infos[1:]):
            assert left.word_stop == right.word_start
        # The shard unique slices concatenate to the global unique rows
        # (each combination lives in exactly one shard, multiplicity intact).
        unique, counts = dataset.unique_rows()
        stacked = np.concatenate([info.unique_rows for info in infos])
        assert np.array_equal(stacked, unique)
        assert np.array_equal(
            np.concatenate([info.counts for info in infos]), counts
        )
        # Unique-slice bounds tile [0, u) contiguously.
        assert infos[0].unique_start == 0
        assert infos[-1].unique_stop == len(unique)
        for left, right in zip(infos, infos[1:]):
            assert left.unique_stop == right.unique_start

    def test_index_accounting_positive(self, dataset):
        engine = ShardedEngine(dataset, shards=2)
        assert engine.index_nbytes > 0

    def test_close_is_idempotent(self, dataset):
        engine = ShardedEngine(dataset, shards=2, workers=2)
        engine.close()
        engine.close()
        # Serial engines have no pool to close.
        ShardedEngine(dataset, shards=2).close()


class TestQueryEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 5, 70])
    def test_matches_dense_on_every_query(self, dataset, patterns, shards):
        dense = DenseBoolEngine(dataset)
        engine = ShardedEngine(dataset, shards=shards)
        for pattern in patterns:
            assert engine.coverage(pattern) == dense.coverage(pattern)
            assert np.array_equal(
                engine.mask_to_bool(engine.match_mask(pattern)),
                dense.mask_to_bool(dense.match_mask(pattern)),
            )
        assert list(engine.coverage_many(patterns)) == list(
            dense.coverage_many(patterns)
        )

    def test_value_mask_and_restrict(self, dataset):
        dense = DenseBoolEngine(dataset)
        engine = ShardedEngine(dataset, shards=3)
        full = engine.full_mask()
        for attribute, cardinality in enumerate(dataset.cardinalities):
            for value in range(cardinality):
                restricted = engine.restrict(full, attribute, value)
                expected = dense.restrict(dense.full_mask(), attribute, value)
                assert np.array_equal(
                    engine.mask_to_bool(restricted), dense.mask_to_bool(expected)
                )
                via_value_mask = engine.count(
                    engine.restrict(engine.value_mask(attribute, value), attribute, value)
                )
                assert via_value_mask == engine.count(restricted)

    def test_restrict_children_transposes_families(self, dataset):
        dense = DenseBoolEngine(dataset)
        engine = ShardedEngine(dataset, shards=4)
        mask = engine.match_mask(Pattern.of(X, 1, X))
        dense_mask = dense.match_mask(Pattern.of(X, 1, X))
        family = engine.restrict_children(mask, 2)
        dense_family = dense.restrict_children(dense_mask, 2)
        assert len(family) == dataset.cardinalities[2]
        for child, expected in zip(family, dense_family):
            assert np.array_equal(
                engine.mask_to_bool(child), dense.mask_to_bool(expected)
            )
        assert int(engine.count_many(family).sum()) == engine.count(mask)

    def test_count_many_empty(self, dataset):
        engine = ShardedEngine(dataset, shards=2)
        assert list(engine.count_many([])) == []
        assert list(engine.coverage_many([])) == []

    def test_oracle_matching_rows_roundtrip(self, dataset):
        """mask_to_bool lifts shard-local selections to global unique rows."""
        sharded = CoverageOracle(dataset, engine=ShardedEngine(dataset, shards=3))
        dense = CoverageOracle(dataset, engine="dense")
        for pattern in (Pattern.root(3), Pattern.of(1, X, X), Pattern.of(X, 0, 2)):
            got = {tuple(r) for r in sharded.matching_rows(pattern)}
            expected = {tuple(r) for r in dense.matching_rows(pattern)}
            assert got == expected


class TestHotMaskCache:
    def test_hits_and_misses_are_counted(self, dataset, patterns):
        engine = ShardedEngine(dataset, shards=2)
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
        engine = PackedBitsetEngine(dataset, mask_cache_size=2)
        a, b, c = Pattern.of(0, X, X), Pattern.of(1, X, X), Pattern.of(2, X, X)
        engine.coverage(a)
        engine.coverage(b)
        engine.coverage(c)  # evicts a
        assert engine.cache_info()["entries"] == 2
        engine.coverage(a)  # miss again
        assert engine.cache_info()["misses"] == 4
        assert engine.cache_info()["hits"] == 0

    def test_disabled_cache_never_stores(self, dataset, patterns):
        engine = ShardedEngine(dataset, shards=2, mask_cache_size=0)
        engine.coverage_many(patterns)
        engine.coverage_many(patterns)
        info = engine.cache_info()
        info.pop("store")  # the spill loader's counters, not the mask cache
        assert info == {
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "nbytes": 0,
            "max_size": 0,
            "hit_rate": 0.0,
        }

    def test_byte_budget_bounds_the_cache(self, dataset, monkeypatch):
        import repro.core.engine.base as base

        # A budget smaller than one mask: the cache degrades to one entry
        # instead of thrashing or growing unbounded.
        monkeypatch.setattr(base, "DEFAULT_MASK_CACHE_BYTES", 1)
        engine = DenseBoolEngine(dataset)
        a, b = Pattern.of(0, X, X), Pattern.of(1, X, X)
        assert engine.coverage(a) == engine.coverage(a)
        engine.coverage(b)
        info = engine.cache_info()
        assert info["entries"] == 1
        assert info["nbytes"] <= engine._mask_nbytes(engine.match_mask(a))

    def test_clear_resets_state(self, dataset, patterns):
        engine = DenseBoolEngine(dataset)
        engine.coverage_many(patterns)
        engine.clear_mask_cache()
        assert engine.cache_info()["entries"] == 0
        assert engine.cache_info()["misses"] == 0

    def test_cached_answers_equal_uncached(self, dataset, patterns):
        cached = ShardedEngine(dataset, shards=3)
        uncached = ShardedEngine(dataset, shards=3, mask_cache_size=0)
        first = list(cached.coverage_many(patterns))
        second = list(cached.coverage_many(patterns))  # all hits
        assert first == second == list(uncached.coverage_many(patterns))

    def test_mutating_returned_mask_does_not_poison_cache(self, dataset):
        engine = PackedBitsetEngine(dataset)
        pattern = Pattern.of(X, 1, X)
        before = engine.coverage(pattern)
        mask = engine.match_mask(pattern)
        mask &= engine.value_mask(0, 0)
        assert engine.coverage(pattern) == before


class TestWorkers:
    def test_pooled_results_match_serial(self, dataset, patterns):
        serial = ShardedEngine(dataset, shards=4)
        pooled = ShardedEngine(dataset, shards=4, workers=3)
        try:
            assert list(pooled.coverage_many(patterns)) == list(
                serial.coverage_many(patterns)
            )
            for pattern in patterns:
                assert pooled.coverage(pattern) == serial.coverage(pattern)
        finally:
            pooled.close()

    def test_single_shard_never_builds_a_pool(self, dataset):
        engine = ShardedEngine(dataset, shards=1, workers=8)
        assert engine.fan_out == "serial"
        assert engine.coverage(Pattern.root(dataset.d)) == dataset.n
        assert engine._dist_pool is None
        assert engine.workers == 8
        engine.close()
