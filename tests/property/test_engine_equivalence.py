"""Cross-engine observational-equivalence property suite (hypothesis).

Every registered coverage engine — ``dense``, ``packed``, ``sharded`` at
several shard counts (spilled under the default root), the sharded engine
spilled to a temporary directory with eviction forced by a one-shard
resident budget, and
whatever the ``auto`` planner emits for the generated dataset — with
the hot-mask cache both enabled and disabled, must give
bit-identical answers on every query family: point coverage, batched
``count_many`` / ``coverage_many``, sibling families from
``restrict_children`` and ``restrict_children_many``, and whole
``find_mups`` runs across all five identification algorithms.  The dense
engine is the reference; everything else is compared against it.

The out-of-core engine additionally carries a crash-safety property:
re-opening a finished spill directory from its manifest
(:meth:`ShardedEngine.attach`) answers every query identically to the
engine that wrote it.
"""

import tempfile
from contextlib import contextmanager

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.engine import (
    AUTO,
    CoverageEngine,
    DenseBoolEngine,
    EngineConfig,
    PackedBitsetEngine,
    ShardedEngine,
    resolve_engine,
)
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.core.pattern import Pattern, X
from repro.data.dataset import Dataset, Schema

#: Shard counts exercised: degenerate (1), even split, and more shards
#: than some generated datasets have rows (exercising the clamp).
SHARD_COUNTS = (1, 2, 7)

#: Shard count of the out-of-core configuration in the engine matrix.
OOC_SHARDS = 3

ALL_ALGORITHMS = ("naive", "apriori", "pattern_breaker", "pattern_combiner", "deepdiver")


@st.composite
def datasets(draw, max_d: int = 4, max_card: int = 4, max_n: int = 40):
    d = draw(st.integers(min_value=1, max_value=max_d))
    cardinalities = draw(
        st.lists(st.integers(min_value=1, max_value=max_card), min_size=d, max_size=d)
    )
    n = draw(st.integers(min_value=0, max_value=max_n))
    rows = [
        [draw(st.integers(min_value=0, max_value=c - 1)) for c in cardinalities]
        for _ in range(n)
    ]
    schema = Schema.of([f"A{i + 1}" for i in range(d)], cardinalities)
    array = np.asarray(rows, dtype=np.int32).reshape(n, d)
    return Dataset(schema, array)


@st.composite
def dataset_and_patterns(draw, max_patterns: int = 6):
    dataset = draw(datasets())
    k = draw(st.integers(min_value=0, max_value=max_patterns))
    patterns = []
    for _ in range(k):
        values = [
            draw(st.sampled_from([X] + list(range(c))))
            for c in dataset.cardinalities
        ]
        patterns.append(Pattern(values))
    return dataset, patterns


@contextmanager
def engine_matrix(dataset, mask_cache_size):
    """One engine per backend configuration under test, dense first.

    The matrix ends with a sharded engine spilled into a temporary
    directory and starved with ``max_resident_bytes=1`` so every
    shard load evicts the previous one (a one-shard resident set) — a
    socket-mode engine (spawn-local distributed workers answering over
    length-prefixed frames, falling back to serial scans where ``fork``
    is unavailable or the dataset clamps to one shard), and whatever the
    ``auto`` planner picks for the dataset, so every plan the planner can
    emit stays observationally equivalent too.
    """
    with tempfile.TemporaryDirectory(prefix="repro-equiv-") as root:
        engines = [
            DenseBoolEngine(dataset, mask_cache_size=mask_cache_size),
            PackedBitsetEngine(dataset, mask_cache_size=mask_cache_size),
        ]
        for shards in SHARD_COUNTS:
            engines.append(
                ShardedEngine(dataset, shards=shards, mask_cache_size=mask_cache_size)
            )
        engines.append(
            ShardedEngine(
                dataset,
                shards=OOC_SHARDS,
                mask_cache_size=mask_cache_size,
                spill_dir=root,
                max_resident_bytes=1,
            )
        )
        engines.append(
            ShardedEngine(
                dataset,
                shards=OOC_SHARDS,
                workers=2,
                mask_cache_size=mask_cache_size,
                spill_dir=root,
            )
        )
        engines.append(
            resolve_engine(
                EngineConfig(backend=AUTO, mask_cache_size=mask_cache_size),
                dataset,
            )
        )
        try:
            yield engines
        finally:
            for engine in engines:
                engine.close()


@given(dataset_and_patterns(), st.sampled_from([0, 1024]))
@settings(max_examples=40, deadline=None)
def test_point_coverage_identical(case, cache_size):
    dataset, patterns = case
    with engine_matrix(dataset, cache_size) as (reference, *others):
        for pattern in patterns:
            expected = reference.coverage(pattern)
            for engine in others:
                assert engine.coverage(pattern) == expected, engine.name
            # Re-query so cached configurations serve the mask from the cache.
            for engine in [reference, *others]:
                assert engine.coverage(pattern) == expected, engine.name


@given(dataset_and_patterns(), st.sampled_from([0, 1024]))
@settings(max_examples=40, deadline=None)
def test_count_many_identical(case, cache_size):
    dataset, patterns = case
    with engine_matrix(dataset, cache_size) as (reference, *others):
        expected = list(
            reference.count_many([reference.match_mask(p) for p in patterns])
        )
        assert expected == [reference.coverage(p) for p in patterns]
        for engine in others:
            masks = [engine.match_mask(p) for p in patterns]
            assert list(engine.count_many(masks)) == expected, engine.name
            assert list(engine.coverage_many(patterns)) == expected, engine.name


@given(dataset_and_patterns(), st.sampled_from([0, 16]))
@settings(max_examples=30, deadline=None)
def test_restrict_children_identical(case, cache_size):
    dataset, patterns = case
    with engine_matrix(dataset, cache_size) as (reference, *others):
        for pattern in patterns:
            free = pattern.nondeterministic_indices()
            if not free:
                continue
            attribute = free[-1]
            expected_family = [
                reference.mask_to_bool(child)
                for child in reference.restrict_children(
                    reference.match_mask(pattern), attribute
                )
            ]
            for engine in others:
                family = engine.restrict_children(
                    engine.match_mask(pattern), attribute
                )
                assert len(family) == dataset.cardinalities[attribute]
                for child, expected in zip(family, expected_family):
                    assert np.array_equal(
                        engine.mask_to_bool(child), expected
                    ), engine.name
                # The sibling family partitions the parent's matches.
                counts = engine.count_many(family)
                assert int(counts.sum()) == engine.coverage(pattern), engine.name


@given(dataset_and_patterns(), st.sampled_from([0, 16]))
@settings(max_examples=25, deadline=None)
def test_restrict_children_many_concatenates_families(case, cache_size):
    """The batched op is exactly the per-mask families, mask-major, on
    every engine — for no masks, one mask and many."""
    dataset, patterns = case
    with engine_matrix(dataset, cache_size) as engines:
        for engine in engines:
            masks = [engine.match_mask(p) for p in patterns]
            for attribute in range(dataset.d):
                for batch in (masks[:0], masks[:1], masks):
                    many = engine.restrict_children_many(batch, attribute)
                    expected = [
                        child
                        for mask in batch
                        for child in engine.restrict_children(mask, attribute)
                    ]
                    assert len(many) == len(expected), engine.name
                    assert len(many) == (
                        len(batch) * dataset.cardinalities[attribute]
                    )
                    for child, want in zip(many, expected):
                        assert np.array_equal(
                            engine.mask_to_bool(child), engine.mask_to_bool(want)
                        ), engine.name
                    assert list(engine.count_many(many)) == list(
                        engine.count_many(expected)
                    ), engine.name


@given(dataset_and_patterns(), st.sampled_from([0, 16]))
@settings(max_examples=25, deadline=None)
def test_base_restrict_children_many_matches_overrides(case, cache_size):
    """The base-class loop that ``register_engine`` backends inherit gives
    the same families as every built-in backend's batched override."""
    dataset, patterns = case
    with engine_matrix(dataset, cache_size) as engines:
        for engine in engines:
            masks = [engine.match_mask(p) for p in patterns]
            for attribute in range(dataset.d):
                looped = CoverageEngine.restrict_children_many(
                    engine, masks, attribute
                )
                batched = engine.restrict_children_many(masks, attribute)
                assert len(looped) == len(batched), engine.name
                for a, b in zip(looped, batched):
                    assert np.array_equal(
                        engine.mask_to_bool(a), engine.mask_to_bool(b)
                    ), engine.name


@given(datasets(max_d=3, max_card=3, max_n=25), st.sampled_from([0, 1024]))
@settings(max_examples=15, deadline=None)
def test_full_mup_runs_identical_across_all_algorithms(dataset, cache_size):
    assert set(ALL_ALGORITHMS) == set(ALGORITHMS), "algorithm registry drifted"
    for algorithm in ALL_ALGORITHMS:
        reference = find_mups(
            dataset,
            threshold=2,
            algorithm=algorithm,
            engine=DenseBoolEngine(dataset, mask_cache_size=cache_size),
        )
        with engine_matrix(dataset, cache_size) as (_, *others):
            for engine in others:
                result = find_mups(
                    dataset, threshold=2, algorithm=algorithm, engine=engine
                )
                assert result.as_set() == reference.as_set(), (
                    algorithm,
                    engine.name,
                )


@given(datasets(max_d=3, max_card=3, max_n=25))
@settings(max_examples=15, deadline=None)
def test_auto_planned_engine_mups_match_packed(dataset):
    """Every plan the auto planner emits builds an engine whose MUP sets
    match the packed reference on small datasets (the planner satellite)."""
    reference = find_mups(dataset, threshold=2, engine="packed")
    result = find_mups(dataset, threshold=2, engine=AUTO)
    assert result.as_set() == reference.as_set()
    # A memory-starved auto plan (escalating out-of-core) agrees too.
    with tempfile.TemporaryDirectory(prefix="repro-auto-") as root:
        starved = find_mups(
            dataset,
            threshold=2,
            engine=EngineConfig(
                backend=AUTO, spill_dir=root, max_resident_bytes=1
            ),
        )
    assert starved.as_set() == reference.as_set()


@given(datasets(max_n=30))
@settings(max_examples=20, deadline=None)
def test_sharded_workers_match_serial(dataset):
    serial = ShardedEngine(dataset, shards=3, workers=None)
    pooled = ShardedEngine(dataset, shards=3, workers=2)
    try:
        patterns = [Pattern.root(dataset.d)]
        for value in range(dataset.cardinalities[0]):
            patterns.append(Pattern.root(dataset.d).with_value(0, value))
        assert list(serial.coverage_many(patterns)) == list(
            pooled.coverage_many(patterns)
        )
        family_serial = serial.restrict_children(serial.full_mask(), 0)
        family_pooled = pooled.restrict_children(pooled.full_mask(), 0)
        for a, b in zip(family_serial, family_pooled):
            assert np.array_equal(serial.mask_to_bool(a), pooled.mask_to_bool(b))
    finally:
        pooled.close()


@given(dataset_and_patterns())
@settings(max_examples=25, deadline=None)
def test_reopening_spill_directory_answers_identically(case):
    """Crash safety: a finished spill directory is a complete index.

    Whatever the writing engine answered, an engine attached to the same
    directory from its manifest (a fresh process after a crash) must answer
    identically — point coverage, batched counts, and sibling families.
    """
    dataset, patterns = case
    with tempfile.TemporaryDirectory(prefix="repro-reopen-") as root:
        writer = ShardedEngine(dataset, shards=2, spill_dir=root)
        expected_points = [writer.coverage(p) for p in patterns]
        expected_batch = list(writer.coverage_many(patterns))
        reopened = ShardedEngine.attach(
            dataset, writer.spill_path, max_resident_bytes=1
        )
        try:
            assert [reopened.coverage(p) for p in patterns] == expected_points
            assert list(reopened.coverage_many(patterns)) == expected_batch
            family_a = writer.restrict_children(writer.full_mask(), 0)
            family_b = reopened.restrict_children(reopened.full_mask(), 0)
            for a, b in zip(family_a, family_b):
                assert np.array_equal(
                    writer.mask_to_bool(a), reopened.mask_to_bool(b)
                )
        finally:
            reopened.close()
            writer.close()


@given(dataset_and_patterns())
@settings(max_examples=25, deadline=None)
def test_cached_masks_are_isolated_copies(case):
    """Mutating a handed-out mask must not corrupt the cache."""
    dataset, patterns = case
    # One engine per mask representation.
    engines = [
        DenseBoolEngine(dataset, mask_cache_size=64),
        PackedBitsetEngine(dataset, mask_cache_size=64),
        ShardedEngine(dataset, shards=SHARD_COUNTS[0], mask_cache_size=64),
    ]
    for engine in engines:
        for pattern in patterns:
            before = engine.coverage(pattern)
            mask = engine.match_mask(pattern)
            # Clobber the caller's copy in place (every mask is an ndarray).
            if dataset.d >= 1 and dataset.cardinalities[0] >= 1:
                mask &= engine.value_mask(0, 0)
            assert engine.coverage(pattern) == before, engine.name
