"""Error-path and option-forwarding tests for engine resolution."""

import numpy as np
import pytest

from repro.core.engine import (
    DenseBoolEngine,
    EngineConfig,
    PackedBitsetEngine,
    ShardedEngine,
    engine_name,
    resolve_engine,
)
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import ReproError


@pytest.fixture
def dataset():
    return random_categorical_dataset(30, (2, 3, 2), seed=3, skew=1.0)


class TestUnknownSpecs:
    def test_unknown_name_lists_available(self, dataset):
        with pytest.raises(ReproError, match="unknown coverage engine"):
            resolve_engine("roaring", dataset)
        with pytest.raises(ReproError, match="sharded"):
            # The error names the available backends.
            resolve_engine("nope", dataset)

    def test_unknown_name_in_engine_name(self):
        with pytest.raises(ReproError, match="unknown coverage engine"):
            engine_name("nope")

    def test_non_engine_class_rejected(self, dataset):
        with pytest.raises(ReproError, match="cannot interpret"):
            resolve_engine(int, dataset)

    def test_non_engine_object_rejected(self, dataset):
        with pytest.raises(ReproError, match="cannot interpret"):
            resolve_engine(42, dataset)

    def test_factory_returning_non_engine_rejected(self, dataset):
        with pytest.raises(ReproError, match="not a CoverageEngine"):
            resolve_engine(lambda ds: "not an engine", dataset)


class TestForeignDataset:
    def test_instance_bound_to_other_dataset_rejected(self, dataset):
        other = random_categorical_dataset(10, (2, 3, 2), seed=9)
        engine = PackedBitsetEngine(other)
        with pytest.raises(ReproError, match="different dataset"):
            resolve_engine(engine, dataset)

    def test_equal_but_distinct_dataset_still_rejected(self, dataset):
        # Identity, not equality: a copy is a different index lifetime.
        clone = Dataset(dataset.schema, dataset.rows.copy())
        engine = DenseBoolEngine(clone)
        with pytest.raises(ReproError, match="different dataset"):
            resolve_engine(engine, dataset)

    def test_same_dataset_instance_passes_through(self, dataset):
        engine = ShardedEngine(dataset, shards=2)
        assert resolve_engine(engine, dataset) is engine


class TestOptionForwarding:
    def test_options_reach_the_constructor(self, dataset):
        engine = resolve_engine(EngineConfig(backend="sharded", shards=2), dataset)
        assert isinstance(engine, ShardedEngine)
        assert engine.shard_count == 2
        assert engine.workers is None

    def test_cache_can_be_disabled_by_option(self, dataset):
        engine = resolve_engine(
            EngineConfig(backend="packed", mask_cache_size=0), dataset
        )
        assert engine.mask_cache_size == 0
        from repro.core.pattern import Pattern

        engine.coverage(Pattern.root(dataset.d))
        engine.coverage(Pattern.root(dataset.d))
        assert engine.cache_info()["hits"] == 0

    def test_factory_spec_resolves(self, dataset):
        template = ShardedEngine(dataset, shards=3).template()
        rebuilt = resolve_engine(template, dataset)
        assert isinstance(rebuilt, ShardedEngine)
        assert rebuilt.requested_shards == 3
        assert engine_name(template) == "sharded"


class TestShardClamping:
    def test_more_shards_than_rows_clamps(self, dataset):
        engine = ShardedEngine(dataset, shards=10_000)
        assert engine.requested_shards == 10_000
        # One shard per distinct combination at most — never more than rows.
        assert engine.shard_count == engine.unique_count <= dataset.n
        from repro.core.pattern import Pattern

        assert engine.coverage(Pattern.root(dataset.d)) == dataset.n

    def test_empty_dataset_keeps_one_shard(self):
        empty = Dataset(Schema.binary(3), np.zeros((0, 3), dtype=np.int32))
        engine = ShardedEngine(empty, shards=5)
        assert engine.shard_count == 1
        from repro.core.pattern import Pattern

        assert engine.coverage(Pattern.root(3)) == 0

    def test_invalid_shard_and_worker_counts(self, dataset):
        with pytest.raises(ReproError, match="shard count"):
            ShardedEngine(dataset, shards=0)
        with pytest.raises(ReproError, match="worker count"):
            ShardedEngine(dataset, shards=2, workers=0)


class TestBaseContract:
    def test_generic_match_mask_chain(self, dataset):
        """The base-class restriction chain (what a minimal backend gets)."""
        from repro.core.engine import CoverageEngine
        from repro.core.pattern import Pattern, X

        class MinimalEngine(DenseBoolEngine):
            name = "minimal-test"
            # Fall back to the generic chained-restrict composition.
            _compute_match_mask = CoverageEngine._compute_match_mask

        reference = DenseBoolEngine(dataset)
        minimal = MinimalEngine(dataset)
        for pattern in (Pattern.root(3), Pattern.of(1, X, 1), Pattern.of(0, 2, 0)):
            assert minimal.coverage(pattern) == reference.coverage(pattern)
        assert minimal.total == dataset.n

    def test_engine_name_branches(self, dataset):
        assert engine_name(None) == "dense"
        assert engine_name("sharded") == "sharded"
        assert engine_name(PackedBitsetEngine) == "packed"
        assert engine_name(ShardedEngine(dataset, shards=2)) == "sharded"
        with pytest.raises(ReproError, match="cannot interpret"):
            engine_name(3.14)

    @pytest.mark.parametrize("engine_spec", ["dense", "packed", "sharded", "auto"])
    def test_pattern_validation_errors(self, dataset, engine_spec):
        from repro.core.pattern import Pattern, X
        from repro.exceptions import PatternError

        engine = resolve_engine(engine_spec, dataset)
        with pytest.raises(PatternError, match="length"):
            engine.coverage(Pattern.of(X, X))  # wrong arity
        with pytest.raises(PatternError, match="out-of-range"):
            engine.coverage(Pattern.of(9, X, X))  # value beyond cardinality

    @pytest.mark.parametrize("engine_spec", ["dense", "packed", "sharded", "auto"])
    def test_empty_dataset_counts(self, engine_spec):
        from repro.core.pattern import Pattern

        empty = Dataset(Schema.binary(2), np.zeros((0, 2), dtype=np.int32))
        engine = resolve_engine(engine_spec, empty)
        root = Pattern.root(2)
        assert engine.coverage(root) == 0
        assert list(engine.coverage_many([root, root])) == [0, 0]
        assert engine.count(engine.match_mask(root)) == 0
        assert list(engine.mask_to_bool(engine.match_mask(root))) == []

    def test_template_preserves_cache_config_for_every_backend(self, dataset):
        """Rebuilding from template() must keep mask_cache_size (and shard
        configuration), not silently reset it to the default."""
        other = random_categorical_dataset(12, (2, 3, 2), seed=44)
        for engine in (
            DenseBoolEngine(dataset, mask_cache_size=0),
            PackedBitsetEngine(dataset, mask_cache_size=7),
            ShardedEngine(dataset, shards=2, workers=2, mask_cache_size=0),
        ):
            rebuilt = resolve_engine(engine.template(), other)
            assert type(rebuilt) is type(engine)
            assert rebuilt.mask_cache_size == engine.mask_cache_size
        rebuilt = resolve_engine(
            ShardedEngine(dataset, shards=2, workers=3).template(), other
        )
        assert rebuilt.requested_shards == 2
        assert rebuilt.workers == 3

    def test_unique_inverse_after_primed_cache(self, dataset):
        """A dataset primed with a precomputed aggregation must still be
        able to derive the row -> unique-index mapping."""
        unique, counts = dataset.unique_rows()
        primed = Dataset(dataset.schema, dataset.rows.copy())
        primed._prime_unique_cache(unique, counts)
        inverse = primed.unique_inverse()
        assert inverse is not None
        assert np.array_equal(unique[inverse], primed.rows)

    def test_greedy_accepts_unnamed_factory_spec(self, dataset):
        from repro.core.enhancement.greedy import greedy_cover
        from repro.core.enhancement.oracle import ValidationOracle
        from repro.core.pattern import Pattern, X
        from repro.core.pattern_graph import PatternSpace

        space = PatternSpace.for_dataset(dataset)
        targets = [Pattern.of(0, X, X), Pattern.of(X, 1, X)]
        named = greedy_cover(targets, space, ValidationOracle([]), engine="packed")
        factory = greedy_cover(
            targets,
            space,
            ValidationOracle([]),
            engine=lambda ds: PackedBitsetEngine(ds),
        )
        assert factory.combinations == named.combinations
