"""Unit tests for the five MUP identification algorithms (§III, §V-C).

Every algorithm is checked against Example 1's known answer, against the
naive ground truth on randomized data, and for its specific contract
(level caps, the node-at-a-time DEEPDIVER reference, guards).
"""

import importlib
import pkgutil

import numpy as np
import pytest

from deepdiver_reference import deepdiver_reference
from repro.core.coverage import CoverageOracle
from repro.core.lattice import PatternLattice
from repro.core.mups import (
    ALGORITHMS,
    apriori_mups,
    deepdiver,
    find_mups,
    naive_mups,
    pattern_breaker,
    pattern_combiner,
)
from repro._util import SearchStats
from repro.core.mups.base import MupResult, resolve_threshold
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import ReproError

ALL_NAMES = ["naive", "pattern_breaker", "pattern_combiner", "deepdiver", "apriori"]


class TestExample1:
    """Example 1 (§III-A): the only MUP at τ=1 is 1XX."""

    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    def test_single_mup(self, example1_dataset, algorithm):
        result = find_mups(example1_dataset, threshold=1, algorithm=algorithm)
        assert set(map(str, result.mups)) == {"1XX"}

    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    def test_dominated_patterns_excluded(self, example1_dataset, algorithm):
        result = find_mups(example1_dataset, threshold=1, algorithm=algorithm)
        # The 8 dominated uncovered patterns (1X0, 1X1, 10X, ...) must not
        # appear.
        assert Pattern.from_string("1X0") not in result
        assert Pattern.from_string("111") not in result


class TestDegenerateThresholds:
    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    def test_threshold_above_n_makes_root_the_mup(self, example1_dataset, algorithm):
        result = find_mups(example1_dataset, threshold=100, algorithm=algorithm)
        assert set(map(str, result.mups)) == {"XXX"}

    @pytest.mark.parametrize(
        "algorithm", ["naive", "pattern_breaker", "pattern_combiner", "deepdiver"]
    )
    def test_fully_covered_dataset_has_no_mups(self, algorithm):
        # Every combination of a 2x2 space appears 3 times.
        rows = [[a, b] for a in (0, 1) for b in (0, 1)] * 3
        dataset = Dataset.from_rows(rows, cardinalities=[2, 2])
        result = find_mups(dataset, threshold=3, algorithm=algorithm)
        assert len(result) == 0
        assert result.max_covered_level(2) == 2


class TestRandomCrossCheck:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_algorithms_match_naive(self, seed):
        rng = np.random.default_rng(seed)
        cardinalities = tuple(rng.choice([2, 2, 3, 4], size=rng.integers(2, 5)))
        n = int(rng.integers(5, 80))
        tau = int(rng.integers(1, 6))
        dataset = random_categorical_dataset(
            n, cardinalities, seed=seed, skew=float(rng.uniform(0, 1.2))
        )
        reference = naive_mups(dataset, tau).as_set()
        for algorithm in ["pattern_breaker", "pattern_combiner", "deepdiver", "apriori"]:
            result = find_mups(dataset, threshold=tau, algorithm=algorithm)
            assert result.as_set() == reference, (
                f"{algorithm} disagrees with naive on seed={seed}"
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_mup_definition_holds(self, seed):
        dataset = random_categorical_dataset(50, (2, 3, 2), seed=seed, skew=0.9)
        tau = 4
        oracle = CoverageOracle(dataset)
        result = deepdiver(dataset, tau)
        for mup in result:
            assert oracle.coverage(mup) < tau
            for parent in mup.parents():
                assert oracle.coverage(parent) >= tau

    @pytest.mark.parametrize("seed", range(5))
    def test_no_mup_dominates_another(self, seed):
        dataset = random_categorical_dataset(50, (2, 2, 3), seed=seed, skew=0.9)
        result = deepdiver(dataset, 4)
        mups = list(result)
        for i, a in enumerate(mups):
            for b in mups[i + 1 :]:
                assert not a.dominates(b)
                assert not b.dominates(a)


class TestLevelCaps:
    @pytest.mark.parametrize(
        "algorithm", ["pattern_breaker", "deepdiver", "naive", "apriori"]
    )
    def test_max_level_returns_shallow_mups_only(self, algorithm):
        dataset = random_categorical_dataset(60, (2, 2, 2, 2), seed=1, skew=1.0)
        full = naive_mups(dataset, 6).as_set()
        for cap in range(5):
            capped = find_mups(
                dataset, threshold=6, algorithm=algorithm, max_level=cap
            )
            expected = {p for p in full if p.level <= cap}
            assert capped.as_set() == expected

    def test_max_level_recorded_in_result(self):
        dataset = random_categorical_dataset(30, (2, 2), seed=0)
        result = find_mups(dataset, threshold=2, algorithm="deepdiver", max_level=1)
        assert result.max_level == 1

    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    @pytest.mark.parametrize(
        "cap", [-1, 1.5, True, "1"], ids=["negative", "fraction", "boolean", "string"]
    )
    def test_a_bad_cap_raises_for_every_algorithm(self, algorithm, cap):
        dataset = random_categorical_dataset(60, (2, 2, 2, 2), seed=1, skew=1.0)
        with pytest.raises(ReproError, match="max_level"):
            find_mups(dataset, threshold=6, algorithm=algorithm, max_level=cap)

    @pytest.mark.parametrize(
        "algorithm", ["naive", "pattern_breaker", "deepdiver", "apriori"]
    )
    def test_caps_give_one_answer_across_algorithms(self, algorithm):
        from repro.data.airbnb import load_airbnb

        # Uncapped, τ=400 leaves four level-1 MUPs on this input.
        dataset = load_airbnb(n=2000, d=5, seed=1)
        full = find_mups(dataset, threshold=400, algorithm="pattern_breaker")
        assert [p.level for p in full] == [1, 1, 1, 1]
        capped = find_mups(
            dataset, threshold=400, algorithm=algorithm, max_level=0
        )
        assert capped.mups == ()
        capped = find_mups(
            dataset, threshold=400, algorithm=algorithm, max_level=np.int64(1)
        )
        assert capped.mups == full.mups
        assert type(capped.max_level) is int
        # An uncovered root is the one MUP at every cap.
        rooted = find_mups(
            dataset, threshold=dataset.n + 1, algorithm=algorithm, max_level=0
        )
        assert rooted.mups == (Pattern.root(dataset.d),)

    @pytest.mark.parametrize(
        "cap", [0, 2, np.int64(1)], ids=["zero", "two", "numpy-one"]
    )
    def test_pattern_combiner_takes_no_cap(self, cap):
        dataset = random_categorical_dataset(60, (2, 2, 2, 2), seed=1, skew=1.0)
        with pytest.raises(ReproError, match="pattern_combiner does not support"):
            find_mups(
                dataset, threshold=6, algorithm="pattern_combiner", max_level=cap
            )


class TestNodeAtATimeReference:
    def test_deepdiver_matches_the_reference_on_object_codes(self):
        """48 binary attributes code patterns as Python ints; capped at
        level 2, the level walk still returns the DFS's MUPs and
        counters."""
        dataset = random_categorical_dataset(300, (2,) * 48, seed=4, skew=2.0)
        assert PatternLattice(PatternSpace.for_dataset(dataset)).dtype == object
        result = deepdiver(dataset, 40, max_level=2)
        mups, expected = deepdiver_reference(dataset, 40, max_level=2)
        # More MUPs than the dominance index's first 512 columns.
        assert len(mups) > 512
        assert result.as_set() == mups
        stats = result.stats
        assert (
            stats.nodes_generated,
            stats.coverage_evaluations,
            stats.dominance_checks,
            stats.pruned,
        ) == expected
        assert stats.pruned > 0


class TestGuards:
    def test_naive_refuses_huge_spaces(self):
        dataset = random_categorical_dataset(10, (4,) * 12, seed=0)
        with pytest.raises(ReproError):
            naive_mups(dataset, 2)

    def test_combiner_refuses_huge_bottom_level(self):
        dataset = random_categorical_dataset(10, (10,) * 9, seed=0)
        with pytest.raises(ReproError):
            pattern_combiner(dataset, 2)

    def test_unknown_algorithm_rejected(self, example1_dataset):
        with pytest.raises(ReproError):
            find_mups(example1_dataset, threshold=1, algorithm="nope")

    def test_threshold_and_rate_are_exclusive(self, example1_dataset):
        with pytest.raises(ReproError):
            find_mups(example1_dataset, threshold=1, threshold_rate=0.5)
        with pytest.raises(ReproError):
            find_mups(example1_dataset)

    def test_threshold_must_be_positive(self, example1_dataset):
        with pytest.raises(ReproError):
            find_mups(example1_dataset, threshold=0)

    def test_resolve_threshold_rate(self, example1_dataset):
        assert resolve_threshold(example1_dataset, threshold_rate=0.5) == 3

    def test_registry_contains_all_algorithms(self):
        assert set(ALL_NAMES) <= set(ALGORITHMS)


class TestResultType:
    def test_result_is_sorted_and_iterable(self, example1_dataset):
        result = find_mups(example1_dataset, threshold=2, algorithm="naive")
        assert list(result.mups) == sorted(result.mups)
        assert len(list(iter(result))) == len(result)

    def test_unsorted_input_with_duplicates_sorts_like_sorted(self):
        # Sorted by the value tuples: Pattern.__lt__'s order, and every
        # duplicate kept.
        space = PatternSpace((3, 2, 4))
        rng = np.random.default_rng(17)
        patterns = [space.random_pattern(rng) for _ in range(60)]
        patterns += patterns[::3]
        rng.shuffle(patterns)
        result = MupResult(mups=tuple(patterns), threshold=1, stats=SearchStats())
        assert result.mups == tuple(sorted(patterns))
        assert len(result) == 80 > len(result.as_set())

    @pytest.mark.parametrize("name", ["pattern_breaker", "deepdiver"])
    def test_codes_are_decoded_once_on_first_read(self, name, monkeypatch):
        dataset = random_categorical_dataset(400, (3, 2, 4, 2), seed=9, skew=1.2)
        expected = naive_mups(dataset, 12).as_set()
        calls = []
        decode = PatternLattice.decode

        def counting(self, codes):
            calls.append(len(codes))
            return decode(self, codes)

        monkeypatch.setattr(PatternLattice, "decode", counting)
        result = ALGORITHMS[name](dataset, 12)
        assert len(result) > 0 and calls == []
        assert result.as_set() == expected and Pattern.root(4) not in result
        assert list(result) == sorted(result.mups)
        assert calls == [len(result)]  # once, for every reader
        eager = MupResult(result.mups[::-1], 12, result.stats, result.max_level)
        assert result == eager and repr(result) == repr(eager)

    def test_level_histogram(self):
        dataset = random_categorical_dataset(50, (2, 2, 2), seed=4, skew=1.0)
        result = deepdiver(dataset, 5)
        histogram = result.level_histogram()
        assert sum(histogram.values()) == len(result)
        for level, count in histogram.items():
            assert count == len(result.at_level(level))

    def test_stats_populated(self, example1_dataset):
        result = pattern_breaker(example1_dataset, 1)
        assert result.stats.nodes_generated > 0
        assert result.stats.coverage_evaluations > 0
        assert result.stats.seconds >= 0.0
        assert isinstance(result.stats.as_dict(), dict)

    def test_reused_oracle(self, example1_dataset):
        # naive counts through the oracle it is given; DEEPDIVER counts
        # from the unique rows, once find_mups has checked the oracle.
        oracle = CoverageOracle(example1_dataset)
        result = find_mups(
            example1_dataset, threshold=1, algorithm="naive", oracle=oracle
        )
        assert set(map(str, result.mups)) == {"1XX"}
        assert oracle.evaluations > 0
        result = find_mups(
            example1_dataset, threshold=1, algorithm="deepdiver", oracle=oracle
        )
        assert set(map(str, result.mups)) == {"1XX"}


class TestAprioriSpecifics:
    def test_wasted_work_counter(self):
        # A dataset with two frequent values of one attribute forces apriori
        # to generate and count invalid same-attribute item-sets.
        rows = [[0, 0]] * 10 + [[1, 0]] * 10
        dataset = Dataset.from_rows(rows, cardinalities=[2, 2])
        result = apriori_mups(dataset, 3)
        assert result.stats.pruned > 0

    def test_apriori_level1_mups(self):
        rows = [[0, 0]] * 10 + [[0, 1]] * 2
        dataset = Dataset.from_rows(rows, cardinalities=[2, 2])
        result = apriori_mups(dataset, 3)
        reference = naive_mups(dataset, 3)
        assert result.as_set() == reference.as_set()


class TestPackageLayout:
    def test_every_submodule_is_the_package_attribute_of_its_name(self):
        """No function ``repro.core.mups`` re-exports hides a submodule."""
        import repro.core.mups as package

        names = [info.name for info in pkgutil.iter_modules(package.__path__)]
        assert {"base", "breaker", "combiner", "diver"} <= set(names)
        for name in names:
            module = importlib.import_module(f"repro.core.mups.{name}")
            assert getattr(package, name) is module, name

    def test_the_algorithms_keep_their_public_names(self):
        import repro
        import repro.core.mups.breaker as breaker
        import repro.core.mups.combiner as combiner
        import repro.core.mups.diver as diver

        assert pattern_breaker is breaker.pattern_breaker is repro.pattern_breaker
        assert pattern_combiner is combiner.pattern_combiner is repro.pattern_combiner
        assert deepdiver is diver.deepdiver is repro.deepdiver
        assert ALGORITHMS["pattern_breaker"] is pattern_breaker
        assert ALGORITHMS["pattern_combiner"] is pattern_combiner
        assert ALGORITHMS["deepdiver"] is deepdiver
