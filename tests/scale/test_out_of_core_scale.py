"""Scale-test harness: coverage over an index bigger than resident memory.

The fixture factory synthesizes a dataset whose packed word space (the
out-of-core index on disk) deliberately exceeds a tiny
``max_resident_bytes``, then pins the budgeted out-of-core engine against
the other backends: MUP sets must be identical across ``dense`` /
``packed`` / unbudgeted ``sharded`` / out-of-core for
**all five** identification algorithms, while the loader instrumentation
proves the engine streamed —
resident shard bytes never exceeded the budget and shards were actually
evicted.  This is the test that keeps "datasets bigger than memory" a
working scenario instead of an aspiration.
"""

from __future__ import annotations

import pytest

from repro.core.engine import DenseBoolEngine, PackedBitsetEngine, ShardedEngine
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.core.pattern import Pattern
from repro.data.synthetic import random_categorical_dataset

pytestmark = pytest.mark.slow

#: Shard count for the overflow cases — enough that a two-shard budget
#: forces many evictions over one traversal.
SHARDS = 8

ALL_ALGORITHMS = sorted(ALGORITHMS)


def make_overflow_case(tmp_path, seed: int = 11, n: int = 900):
    """Build (dataset, out-of-core engine, budget) with index >> budget.

    The budget is derived from the actual spill layout: two shards'
    resident bytes (so every load fits under it, eviction provably works),
    while the whole index is several times larger.  Returns an engine
    attached with that budget plus the budget itself.
    """
    dataset = random_categorical_dataset(
        n, (5, 4, 3, 3), seed=seed, skew=1.0
    )
    root = tmp_path / "spill"
    writer_engine = ShardedEngine(dataset, shards=SHARDS, spill_dir=str(root))
    store = writer_engine.store
    budget = 2 * max(
        store.shard_nbytes(shard_id) for shard_id in range(store.shard_count)
    )
    # The scenario under test: the packed word space cannot be resident.
    assert writer_engine.store.data_nbytes > budget
    engine = ShardedEngine.attach(
        dataset, writer_engine.spill_path, max_resident_bytes=budget
    )
    return dataset, writer_engine, engine, budget


def test_fixture_factory_overflows_the_budget(tmp_path):
    dataset, owner, engine, budget = make_overflow_case(tmp_path)
    try:
        assert engine.spill_path == owner.spill_path
        assert engine.store.max_resident_bytes == budget
        assert engine.shard_count == SHARDS
        # The streamed bytes (words + multiplicities) overflow the budget.
        assert engine.store.data_nbytes > budget
    finally:
        engine.close()
        owner.close()


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_mup_sets_identical_across_engines_under_budget(tmp_path, algorithm):
    dataset, owner, out_of_core, budget = make_overflow_case(tmp_path)
    try:
        reference = find_mups(
            dataset,
            threshold=3,
            algorithm=algorithm,
            engine=DenseBoolEngine(dataset),
        )
        assert reference.mups, "overflow fixture must actually have MUPs"
        for engine in (
            PackedBitsetEngine(dataset),
            ShardedEngine(dataset, shards=3),
            out_of_core,
        ):
            result = find_mups(
                dataset, threshold=3, algorithm=algorithm, engine=engine
            )
            assert result.as_set() == reference.as_set(), type(engine).name
        stats = out_of_core.store.stats()
        # The loader streamed: stayed under budget and evicted shards.
        assert stats["peak_resident_bytes"] <= budget
        assert stats["over_budget_loads"] == 0
        if stats["loads"]:
            assert stats["evictions"] > 0
            assert stats["loads"] > SHARDS
        else:
            # PATTERN-COMBINER works bottom-up from the aggregated unique
            # rows and never queries the engine.
            assert algorithm == "pattern_combiner"
    finally:
        out_of_core.close()
        owner.close()


def test_point_and_batched_queries_stream_under_budget(tmp_path):
    dataset, owner, engine, budget = make_overflow_case(tmp_path, seed=29)
    try:
        dense = DenseBoolEngine(dataset)
        patterns = [Pattern.root(dataset.d)]
        for attribute, cardinality in enumerate(dataset.cardinalities):
            for value in range(cardinality):
                patterns.append(
                    Pattern.root(dataset.d).with_value(attribute, value)
                )
        assert [engine.coverage(p) for p in patterns] == [
            dense.coverage(p) for p in patterns
        ]
        assert list(engine.coverage_many(patterns)) == list(
            dense.coverage_many(patterns)
        )
        stats = engine.store.stats()
        assert stats["peak_resident_bytes"] <= budget
        assert stats["resident_bytes"] <= budget
    finally:
        engine.close()
        owner.close()
