"""Engine observational-equivalence property suite (hypothesis).

The coverage engine, built directly and by an oracle given ``"auto"``,
must answer every query family like two engine-free references: point coverage and batched ``count_many`` /
``coverage_many`` like Definition 2's row scan (``coverage_scan``),
sibling families from ``restrict_children`` like a numpy row match over
the unique rows, and whole ``find_mups`` runs across all five
identification algorithms like Definition 4 applied to every pattern
(``scan_mups``).
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from engine_reference import row_match, scan_mups
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.engine import CoverageEngine
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.core.pattern import Pattern, X
from repro.data.dataset import Dataset, Schema

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


def engine_matrix(dataset):
    """The engine built directly, and the one ``"auto"`` builds."""
    return [CoverageEngine(dataset), CoverageOracle(dataset, engine="auto").engine]


@given(dataset_and_patterns())
@settings(max_examples=40, deadline=None)
def test_point_coverage_identical(case):
    dataset, patterns = case
    engines = engine_matrix(dataset)
    for pattern in patterns:
        expected = coverage_scan(dataset, pattern)
        # The second query asks an engine that has answered before.
        for _ in range(2):
            for engine in engines:
                assert engine.coverage(pattern) == expected, engine.name


@given(dataset_and_patterns())
@settings(max_examples=40, deadline=None)
def test_count_many_identical(case):
    dataset, patterns = case
    expected = [coverage_scan(dataset, p) for p in patterns]
    for engine in engine_matrix(dataset):
        masks = [engine.match_mask(p) for p in patterns]
        assert list(engine.count_many(masks)) == expected, engine.name
        assert list(engine.coverage_many(patterns)) == expected, engine.name


@given(dataset_and_patterns())
@settings(max_examples=30, deadline=None)
def test_restrict_children_identical(case):
    dataset, patterns = case
    engines = engine_matrix(dataset)
    for pattern in patterns:
        free = pattern.nondeterministic_indices()
        if not free:
            continue
        attribute = free[-1]
        expected_family = [
            row_match(dataset, pattern.with_value(attribute, value))
            for value in range(dataset.cardinalities[attribute])
        ]
        for engine in engines:
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
            assert int(counts.sum()) == coverage_scan(dataset, pattern), (
                engine.name
            )


@given(datasets(max_d=3, max_card=3, max_n=25))
@settings(max_examples=15, deadline=None)
def test_full_mup_runs_identical_across_all_algorithms(dataset):
    assert set(ALL_ALGORITHMS) == set(ALGORITHMS), "algorithm registry drifted"
    reference = scan_mups(dataset, 2)
    for algorithm in ALL_ALGORITHMS:
        for engine in engine_matrix(dataset):
            result = find_mups(
                dataset, threshold=2, algorithm=algorithm, engine=engine
            )
            assert result.as_set() == reference, (algorithm, engine.name)


@given(datasets(max_d=3, max_card=3, max_n=25))
@settings(max_examples=15, deadline=None)
def test_auto_planned_engine_mups_match_packed(dataset):
    """``"auto"`` and ``"packed"`` name one engine: APRIORI's MUP sets
    through either match the scanned MUPs on small datasets."""
    reference = scan_mups(dataset, 2)
    for engine in ("packed", "auto"):
        result = find_mups(dataset, threshold=2, algorithm="apriori", engine=engine)
        assert result.as_set() == reference, engine


@given(dataset_and_patterns())
@settings(max_examples=25, deadline=None)
def test_returned_masks_belong_to_the_caller(case):
    """Mutating a returned mask changes no later answer and no index row."""
    dataset, patterns = case
    engine = CoverageEngine(dataset)
    rows = [engine.word_matrix(i).copy() for i in range(dataset.d)]
    for pattern in patterns:
        before = engine.coverage(pattern)
        assert before == coverage_scan(dataset, pattern)
        mask = engine.match_mask(pattern)
        # Clobber the caller's mask in place, both ways.
        mask[:] = 0
        assert engine.coverage(pattern) == before
        engine.match_mask(pattern)[:] = engine.full_mask()
        assert engine.coverage(pattern) == before
    for i, words in enumerate(rows):
        assert np.array_equal(engine.word_matrix(i), words)
