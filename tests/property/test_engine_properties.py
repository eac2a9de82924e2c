"""Property-based checks of the in-memory ``packed`` backend (hypothesis).

The ``packed`` engine must answer every query family — point coverage,
mask threading, batched frontier evaluation, and whole MUP identification
runs — like the engine-free references: Definition 2's row scan
(``coverage_scan``), a numpy row match over the unique rows, and
Definition 4 applied to every pattern.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from engine_reference import row_match, scan_mups
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.engine import CoverageEngine
from repro.core.mups.base import find_mups
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema


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
def dataset_and_patterns(draw, max_patterns: int = 8):
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


@given(dataset_and_patterns())
def test_point_coverage_identical(case):
    dataset, patterns = case
    packed = CoverageEngine(dataset)
    for pattern in patterns:
        assert packed.coverage(pattern) == coverage_scan(dataset, pattern)


@given(dataset_and_patterns())
def test_match_masks_select_same_rows(case):
    dataset, patterns = case
    packed = CoverageEngine(dataset)
    for pattern in patterns:
        packed_bits = packed.mask_to_bool(packed.match_mask(pattern))
        assert np.array_equal(packed_bits, row_match(dataset, pattern))


@given(dataset_and_patterns())
@settings(max_examples=40)
def test_coverage_many_matches_pointwise(case):
    dataset, patterns = case
    packed = CoverageEngine(dataset)
    pointwise = [coverage_scan(dataset, p) for p in patterns]
    assert list(packed.coverage_many(patterns)) == pointwise


@given(dataset_and_patterns())
@settings(max_examples=40)
def test_restrict_children_partitions_the_mask(case):
    dataset, patterns = case
    engine = CoverageEngine(dataset)
    for pattern in patterns:
        free = pattern.nondeterministic_indices()
        if not free:
            continue
        attribute = free[0]
        mask = engine.match_mask(pattern)
        family = engine.restrict_children(mask, attribute)
        assert len(family) == dataset.cardinalities[attribute]
        family_counts = engine.count_many(family)
        # The sibling family partitions the parent's matches.
        assert int(family_counts.sum()) == coverage_scan(dataset, pattern)
        for value, child_mask in enumerate(family):
            expected = row_match(dataset, pattern.with_value(attribute, value))
            direct = engine.restrict(mask, attribute, value)
            assert np.array_equal(engine.mask_to_bool(child_mask), expected)
            assert np.array_equal(engine.mask_to_bool(direct), expected)


@given(datasets())
@settings(max_examples=40)
def test_mask_threading_identical_across_engines(dataset):
    packed_oracle = CoverageOracle(dataset, engine="packed")
    space = PatternSpace.for_dataset(dataset)
    rng = np.random.default_rng(7)
    for _ in range(5):
        pattern = space.random_pattern(rng)
        mask = packed_oracle.full_mask()
        for index in pattern.deterministic_indices():
            mask = packed_oracle.restrict_mask(mask, index, pattern[index])
        assert packed_oracle.coverage_of_mask(mask) == coverage_scan(
            dataset, pattern
        )


@given(datasets(max_d=3, max_card=3, max_n=25))
@settings(max_examples=25, deadline=None)
def test_mup_sets_identical_across_engines(dataset):
    reference = scan_mups(dataset, 2)
    for algorithm in ("naive", "apriori", "pattern_breaker", "deepdiver"):
        packed_result = find_mups(
            dataset, threshold=2, algorithm=algorithm, engine="packed"
        )
        assert packed_result.as_set() == reference


@given(datasets())
@settings(max_examples=30)
def test_packed_index_is_smaller(dataset):
    packed = CoverageEngine(dataset)
    # One uint64 word per 64 unique rows per attribute value: smaller than
    # one bool per unique row once there are more than 8 of them.
    words = -(-packed.unique_count // 64)
    row_total = sum(dataset.cardinalities)
    assert packed.index_nbytes == row_total * words * 8
    if packed.unique_count > 8:
        assert packed.index_nbytes < row_total * packed.unique_count
    # Every engine spec an oracle takes gives this engine.
    for spec in ("packed", "auto", None):
        assert CoverageOracle(dataset, engine=spec).engine.name == "packed"
    assert CoverageOracle(dataset, engine=packed).engine is packed
