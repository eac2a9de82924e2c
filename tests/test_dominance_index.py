"""Unit tests for the MUP dominance index (Definition 9, Appendix B)."""

import numpy as np
import pytest

from repro.core.dominance import (
    MupDominanceIndex,
    dominated_by_any_scan,
    dominates_any_scan,
)
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternSpace
from repro.exceptions import PatternError


class TestBasicQueries:
    def test_empty_index_answers_false(self):
        index = MupDominanceIndex([2, 2, 2])
        assert not index.dominates_any(Pattern.from_string("1XX"))
        assert not index.dominated_by_any(Pattern.from_string("110"))

    def test_descendant_is_dominated(self):
        index = MupDominanceIndex([2, 2, 2])
        index.add(Pattern.from_string("1XX"))
        assert index.dominated_by_any(Pattern.from_string("10X"))
        assert index.dominated_by_any(Pattern.from_string("111"))

    def test_ancestor_dominates(self):
        index = MupDominanceIndex([2, 2, 2])
        index.add(Pattern.from_string("10X"))
        assert index.dominates_any(Pattern.from_string("1XX"))
        assert index.dominates_any(Pattern.root(3))

    def test_equal_pattern_is_not_strict(self):
        index = MupDominanceIndex([2, 2, 2])
        pattern = Pattern.from_string("1X0")
        index.add(pattern)
        assert not index.dominates_any(pattern)
        assert not index.dominated_by_any(pattern)
        assert index.contains(pattern)

    def test_unrelated_pattern(self):
        index = MupDominanceIndex([2, 2, 2])
        index.add(Pattern.from_string("1XX"))
        assert not index.dominated_by_any(Pattern.from_string("0X1"))
        assert not index.dominates_any(Pattern.from_string("0X1"))

    def test_multiple_mups(self):
        index = MupDominanceIndex([2, 2, 2])
        index.extend([Pattern.from_string("1XX"), Pattern.from_string("X01")])
        assert index.dominated_by_any(Pattern.from_string("101"))  # both dominate it
        assert index.dominates_any(Pattern.from_string("XX1"))  # dominates X01
        assert len(index) == 2
        assert set(index.patterns()) == {
            Pattern.from_string("1XX"),
            Pattern.from_string("X01"),
        }

    def test_rejects_wrong_length(self):
        index = MupDominanceIndex([2, 2])
        with pytest.raises(PatternError):
            index.add(Pattern.from_string("1X0"))

    def test_rejects_out_of_range_value(self):
        index = MupDominanceIndex([2, 2])
        with pytest.raises(PatternError):
            index.add(Pattern.from_string("13"))

    @pytest.mark.parametrize("query", ["dominates_any", "dominated_by_any"])
    @pytest.mark.parametrize("text", ["1X", "X", "5XX", "1X00"])
    def test_queries_reject_patterns_outside_the_schema(self, query, text):
        index = MupDominanceIndex([2, 2, 2])
        index.add(Pattern.from_string("1XX"))
        with pytest.raises(PatternError):
            getattr(index, query)(Pattern.from_string(text))


class TestGrowth:
    def test_capacity_doubling_preserves_queries(self):
        # Push past the initial capacity of 512 columns to exercise _grow()
        # twice.
        space = PatternSpace([3, 3, 3, 3, 3])
        rng = np.random.default_rng(5)
        patterns = []
        index = MupDominanceIndex(space.cardinalities)
        seen = set()
        while len(patterns) < 1_000:
            pattern = space.random_pattern(rng)
            if pattern in seen:
                continue
            seen.add(pattern)
            patterns.append(pattern)
            index.add(pattern)
        assert len(index) == 1_000
        probe_rng = np.random.default_rng(6)
        for _ in range(300):
            probe = space.random_pattern(probe_rng)
            assert index.dominated_by_any(probe) == dominated_by_any_scan(
                patterns, probe
            )
            assert index.dominates_any(probe) == dominates_any_scan(patterns, probe)


class TestAgainstScanReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_cross_check(self, seed):
        space = PatternSpace([2, 3, 2, 4])
        rng = np.random.default_rng(seed)
        mups = list({space.random_pattern(rng) for _ in range(25)})
        index = MupDominanceIndex(space.cardinalities)
        index.extend(mups)
        for _ in range(200):
            probe = space.random_pattern(rng)
            assert index.dominated_by_any(probe) == dominated_by_any_scan(mups, probe)
            assert index.dominates_any(probe) == dominates_any_scan(mups, probe)
