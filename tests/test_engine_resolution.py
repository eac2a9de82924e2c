"""Error-path and option-forwarding tests for engine resolution."""

import numpy as np
import pytest

from repro.core.coverage import coverage_scan
from repro.core.engine import (
    EngineConfig,
    PackedBitsetEngine,
    engine_name,
    resolve_engine,
)
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import ReproError


@pytest.fixture
def dataset():
    return random_categorical_dataset(30, (2, 3, 2), seed=3, skew=1.0)


#: Engine specs every engine contract test runs on: the backend, the
#: planner's pick, and the backend with its mask cache disabled.
CONTRACT_SPECS = [
    "packed",
    "auto",
    pytest.param(
        EngineConfig(backend="packed", mask_cache_size=0), id="packed-nocache"
    ),
]

#: Every kind of engine spec ``greedy_cover`` accepts, built per dataset.
GREEDY_ENGINE_SPECS = {
    "none": lambda ds: None,
    "packed": lambda ds: "packed",
    "auto": lambda ds: "auto",
    "config": lambda ds: EngineConfig(backend="packed", mask_cache_size=0),
    "auto-config": lambda ds: EngineConfig(backend="auto", mask_cache_size=4),
    "factory": lambda ds: lambda d: PackedBitsetEngine(d),
    "class": lambda ds: PackedBitsetEngine,
    "instance": lambda ds: PackedBitsetEngine(ds),
    "template": lambda ds: PackedBitsetEngine(ds).template(),
}


class TestUnknownSpecs:
    def test_unknown_name_lists_available(self, dataset):
        with pytest.raises(ReproError, match="unknown coverage engine"):
            resolve_engine("roaring", dataset)
        with pytest.raises(ReproError, match="'packed', 'auto'"):
            # The error names the available backends.
            resolve_engine("nope", dataset)

    def test_dense_is_no_longer_a_backend(self, dataset):
        listed = r"available: \['packed', 'auto'\]"
        with pytest.raises(ReproError, match=listed):
            resolve_engine("dense", dataset)
        with pytest.raises(ReproError, match=listed):
            engine_name("dense")

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
        engine = PackedBitsetEngine(clone)
        with pytest.raises(ReproError, match="different dataset"):
            resolve_engine(engine, dataset)

    def test_same_dataset_instance_passes_through(self, dataset):
        engine = PackedBitsetEngine(dataset)
        assert resolve_engine(engine, dataset) is engine


class TestOptionForwarding:
    def test_options_reach_the_constructor(self, dataset):
        engine = resolve_engine(
            EngineConfig(backend="packed", mask_cache_size=5), dataset
        )
        assert isinstance(engine, PackedBitsetEngine)
        assert engine.mask_cache_size == 5

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
        template = PackedBitsetEngine(dataset, mask_cache_size=3).template()
        rebuilt = resolve_engine(template, dataset)
        assert isinstance(rebuilt, PackedBitsetEngine)
        assert rebuilt.mask_cache_size == 3
        assert engine_name(template) == "packed"


class TestBaseContract:
    def test_generic_match_mask_chain(self, dataset):
        """The base-class restriction chain (what a minimal backend gets)."""
        from repro.core.engine import CoverageEngine
        from repro.core.pattern import Pattern, X

        class MinimalEngine(PackedBitsetEngine):
            name = "minimal-test"
            # Fall back to the generic chained-restrict composition.
            _compute_match_mask = CoverageEngine._compute_match_mask

        minimal = MinimalEngine(dataset)
        for pattern in (Pattern.root(3), Pattern.of(1, X, 1), Pattern.of(0, 2, 0)):
            assert minimal.coverage(pattern) == coverage_scan(dataset, pattern)
        assert minimal.total == dataset.n

    def test_default_engine_is_packed(self, dataset):
        assert isinstance(resolve_engine(None, dataset), PackedBitsetEngine)

    def test_engine_name_branches(self, dataset):
        assert engine_name(None) == "packed"
        assert engine_name("auto") == "auto"
        assert engine_name(PackedBitsetEngine) == "packed"
        assert engine_name(PackedBitsetEngine(dataset)) == "packed"
        with pytest.raises(ReproError, match="cannot interpret"):
            engine_name(3.14)

    @pytest.mark.parametrize("engine_spec", CONTRACT_SPECS)
    def test_pattern_validation_errors(self, dataset, engine_spec):
        from repro.core.pattern import Pattern, X
        from repro.exceptions import PatternError

        engine = resolve_engine(engine_spec, dataset)
        with pytest.raises(PatternError, match="length"):
            engine.coverage(Pattern.of(X, X))  # wrong arity
        with pytest.raises(PatternError, match="out-of-range"):
            engine.coverage(Pattern.of(9, X, X))  # value beyond cardinality

    @pytest.mark.parametrize("engine_spec", CONTRACT_SPECS)
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
        """Rebuilding from template() must keep mask_cache_size, not
        silently reset it to the default."""
        other = random_categorical_dataset(12, (2, 3, 2), seed=44)
        for engine in (
            PackedBitsetEngine(dataset, mask_cache_size=7),
            PackedBitsetEngine(dataset, mask_cache_size=0),
        ):
            rebuilt = resolve_engine(engine.template(), other)
            assert type(rebuilt) is type(engine)
            assert rebuilt.mask_cache_size == engine.mask_cache_size

    @pytest.mark.parametrize("spec", sorted(GREEDY_ENGINE_SPECS))
    def test_greedy_accepts_unnamed_factory_spec(self, dataset, spec):
        """Every engine spec gives the same plan: GREEDY reads no engine."""
        from repro.core.enhancement.greedy import greedy_cover
        from repro.core.enhancement.oracle import ValidationOracle
        from repro.core.pattern import Pattern, X
        from repro.core.pattern_graph import PatternSpace

        space = PatternSpace.for_dataset(dataset)
        targets = [
            Pattern.of(0, X, X), Pattern.of(X, 1, X), Pattern.of(X, 2, 1),
            Pattern.of(1, X, 0), Pattern.of(1, 0, X),
        ]
        engine = GREEDY_ENGINE_SPECS[spec](dataset)
        plan = greedy_cover(targets, space, ValidationOracle([]), engine=engine)
        assert plan.combinations == ((1, 0, 0), (0, 1, 0), (0, 2, 1))
        # The 2 · 3 · 2 combination grid's cells.
        assert plan.nodes_visited == 12

    @pytest.mark.parametrize("engine", ["bogus", 42])
    def test_greedy_rejects_a_non_engine_spec(self, dataset, engine):
        from repro.core.enhancement.greedy import enhance_coverage, greedy_cover
        from repro.core.pattern import Pattern, X
        from repro.core.pattern_graph import PatternSpace

        space = PatternSpace.for_dataset(dataset)
        with pytest.raises(ReproError):
            greedy_cover([Pattern.of(0, X, X)], space, engine=engine)
        with pytest.raises(ReproError):
            enhance_coverage(dataset, [], level=1, threshold=2, engine=engine)
