"""Integer-coded lattice levels (``repro.core.lattice``) and the two
level-wise algorithms that run on them.

Every vectorized move is checked against :class:`PatternSpace`'s
pattern-level helpers, which stay the readable reference.  PATTERN-BREAKER
and PATTERN-COMBINER are checked against ``naive`` and against
pattern-level versions of themselves (kept below) that reproduce the
``SearchStats`` counters exactly.
"""

import csv
import hashlib
import importlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

import repro.core.lattice as lattice_module
from repro.core.coverage import CoverageOracle, coverage_scan
from repro.core.lattice import (
    UNBOUNDED,
    GroupCounter,
    PatternCodes,
    PatternLattice,
    cube_fits,
    index_of,
    walk_dataset,
    walk_levels,
)
from repro.core.mups import naive_mups, pattern_breaker, pattern_combiner
from repro.core.pattern import X, Pattern
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import PatternError
from walk_paths import by_code, grouped, on_both_walks, spy_counts

#: The module, not the function ``repro.core.mups`` re-exports under its name.
combiner_module = importlib.import_module("repro.core.mups.combiner")

FIXTURES = Path(__file__).parent / "fixtures"

#: Small spaces whose every pattern is enumerated; cardinality-1
#: attributes included.
SPACES = [(2, 2, 2), (1, 3), (3, 1, 2), (2, 3, 2, 3), (4, 1, 1, 2), (5,)]


def random_spaces(count=6, seed=7):
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(count):
        d = int(rng.integers(1, 5))
        spaces.append(tuple(int(c) for c in rng.integers(1, 5, size=d)))
    return spaces


ALL_SPACES = SPACES + random_spaces()


def by_row(rows, codes, count):
    """Group a ``(rows, codes)`` pair into one list of codes per row."""
    grouped = [[] for _ in range(count)]
    for row, code in zip(rows.tolist(), codes.tolist()):
        grouped[row].append(code)
    return grouped


def check_decode(lattice, codes):
    """``decode`` against ``Pattern.__init__`` on digits taken in Python
    ints: equal patterns and hashes, and only Python ints as values."""
    decoded = lattice.decode(codes)
    assert len(decoded) == len(codes)
    for code, pattern in zip(codes.tolist(), decoded):
        values = [
            (code // weight) % (cardinality + 1) - 1
            for weight, cardinality in zip(lattice.weights, lattice.cardinalities)
        ]
        expected = Pattern(values)
        assert pattern == expected and hash(pattern) == hash(expected)
        assert pattern.values == tuple(values)
        assert all(type(value) is int for value in pattern.values)


# ----------------------------------------------------------------------
# codes
# ----------------------------------------------------------------------
class TestCodes:
    @pytest.mark.parametrize("cards", ALL_SPACES)
    def test_all_patterns_are_the_codes_in_order(self, cards):
        space = PatternSpace(cards)
        lattice = PatternLattice(space)
        patterns = list(space.all_patterns())
        codes = lattice.encode(patterns)
        # X sorts first and attribute 0 is most significant, so the
        # enumeration order (already sorted) is exactly 0..N-1.
        assert patterns == sorted(patterns)
        assert np.array_equal(codes, np.arange(space.node_count()))
        assert lattice.decode(codes) == patterns
        assert lattice.dtype == np.int64

    def test_sorted_codes_decode_to_sorted_patterns(self):
        space = PatternSpace((3, 2, 4, 2))
        lattice = PatternLattice(space)
        rng = np.random.default_rng(3)
        patterns = [space.random_pattern(rng) for _ in range(50)]
        decoded = lattice.decode(np.sort(lattice.encode(patterns)))
        assert decoded == sorted(patterns)

    @pytest.mark.parametrize("cards", ALL_SPACES)
    def test_decode_builds_what_the_validating_constructor_builds(self, cards):
        space = PatternSpace(cards)
        check_decode(PatternLattice(space), np.arange(space.node_count()))

    def test_digits(self):
        lattice = PatternLattice(PatternSpace((2, 3)))
        codes = lattice.encode([Pattern.of(X, X), Pattern.of(1, X), Pattern.of(0, 2)])
        assert lattice.digits(codes).tolist() == [[0, 0], [2, 0], [1, 3]]

    @pytest.mark.parametrize("cards", ALL_SPACES)
    def test_combination_grid(self, cards):
        space = PatternSpace(cards)
        lattice = PatternLattice(space)
        combos = np.array(list(space.all_combinations()), dtype=np.int64)
        index = lattice.combination_index(combos)
        assert np.array_equal(index, np.arange(space.combination_count()))
        digits = lattice.combination_digits(index, np.int8)
        assert digits.dtype == np.int8 and np.array_equal(digits, combos + 1)
        codes = lattice.from_digits(digits)
        assert np.array_equal(codes, lattice.encode(map(Pattern, combos.tolist())))
        assert np.all(np.diff(codes) > 0)

    def test_membership(self):
        sorted_codes = np.array([2, 5, 9], dtype=np.int64)
        queries = np.array([[9, 1], [5, 10]], dtype=np.int64)
        assert index_of(sorted_codes, queries).tolist() == [[2, -1], [1, -1]]
        assert (index_of(sorted_codes[:0], queries) == -1).all()


# ----------------------------------------------------------------------
# PatternCodes: a sorted pattern list held as codes
# ----------------------------------------------------------------------
class TestPatternCodes:
    CARDS = (3, 2, 4, 2)

    def sample(self, count=40, seed=1):
        space = PatternSpace(self.CARDS)
        lattice = PatternLattice(space)
        rng = np.random.default_rng(seed)
        codes = np.unique(rng.integers(0, space.node_count(), size=count))
        return PatternCodes(lattice, codes), lattice.decode(codes)

    def test_reads_like_the_sorted_list(self):
        coded, expected = self.sample()
        assert expected == sorted(expected) and len(coded) == len(expected) > 20
        assert list(coded) == expected
        assert list(reversed(coded)) == expected[::-1]
        for index in range(-len(expected), len(expected)):
            assert coded[index] == expected[index]
        assert coded[np.int64(3)] == expected[3]
        for cut in (slice(1, 5), slice(None, None, -1), slice(-3, None),
                    slice(None, None, 2), slice(5, 1), slice(-100, 100)):
            assert coded[cut] == expected[cut]
            assert type(coded[cut]) is list
        for index in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                coded[index]
        assert coded.index(expected[7]) == 7 and coded.count(expected[7]) == 1

    def test_membership(self):
        coded, expected = self.sample()
        space = PatternSpace(self.CARDS)
        for pattern in space.all_patterns():
            assert (pattern in coded) == (pattern in expected)
        # Out of range, too short, too long, and not a pattern.
        for other in (Pattern.of(3, X, X, X), Pattern.of(X, 2, X, X),
                      Pattern.of(0, 0, 0), Pattern.of(0, 0, 0, 0, 0),
                      expected[0].values, str(expected[0])):
            assert other not in coded and other not in expected

    def test_equality_with_lists_and_tuples(self):
        coded, expected = self.sample()
        assert coded == expected and expected == coded
        assert not coded != expected and not expected != coded
        shorter = expected[:-1]
        assert coded != shorter and shorter != coded
        assert not coded == shorter
        changed = expected[:-1] + [expected[0]]
        assert coded != changed and changed != coded
        # A tuple is never equal to a list, so never to PatternCodes.
        assert coded != tuple(expected) and tuple(expected) != coded
        empty = PatternCodes(coded.lattice, np.zeros(0, dtype=np.int64))
        assert empty == [] and [] == empty and empty != ()

    def test_unhashable(self):
        coded, _ = self.sample()
        with pytest.raises(TypeError):
            hash(coded)
        with pytest.raises(TypeError):
            {coded}

    def test_equality_across_cardinalities(self):
        # The same patterns have other codes over other cardinalities.
        coded, expected = self.sample()
        wider = PatternLattice(PatternSpace((4, 2, 5, 3)))
        other = PatternCodes(wider, wider.encode(expected))
        assert not np.array_equal(other.codes, coded.codes)
        assert coded == other and other == coded
        changed = PatternCodes(wider, wider.encode(expected[:-1] + [Pattern.of(3, X, X, X)]))
        assert coded != changed and changed != coded
        # Other lengths: unequal, unless both are empty (as lists are).
        longer = PatternLattice(PatternSpace(self.CARDS + (1,)))
        assert coded != PatternCodes(longer, longer.encode(
            Pattern(p.values + (X,)) for p in expected
        ))
        assert PatternCodes(longer, []) == PatternCodes(coded.lattice, [])
        assert PatternCodes(longer, []) != coded

    def test_decodes_once_on_first_read(self, monkeypatch):
        decoded = []
        decode = PatternLattice.decode

        def spy(lattice, codes):
            decoded.append(len(codes))
            return decode(lattice, codes)

        monkeypatch.setattr(PatternLattice, "decode", spy)
        coded, _ = self.sample()
        decoded.clear()
        assert len(coded) and coded.digits().shape == (len(coded), 4)
        assert coded.codes.tolist() == sorted(set(coded.codes.tolist()))
        assert coded[0] in coded and decoded == [len(coded)]
        assert coded == list(coded) and coded[1:3] == list(coded)[1:3]
        assert repr(coded).startswith("PatternCodes([Pattern(")
        assert decoded == [len(coded)]

    def test_codes_are_read_only(self):
        lattice = PatternLattice(PatternSpace(self.CARDS))
        codes = np.array([1, 4, 9], dtype=np.int64)
        coded = PatternCodes(lattice, codes)
        with pytest.raises(ValueError):
            coded.codes[0] = 2
        codes[0] = 0  # the caller's array stays writeable
        assert coded.codes.tolist() == [0, 4, 9]
        with pytest.raises(AttributeError):
            coded.other = 1

    @pytest.mark.parametrize(
        "codes",
        [[3, 2], [1, 1], [0, 4, 4, 7], [-1, 2], [0, 180], [[1, 2]], [0.0, 1.5]],
        ids=["unsorted", "duplicate", "duplicate-inside", "negative",
             "past-the-space", "2-d", "floats"],
    )
    def test_construction_rejects_bad_codes(self, codes):
        # (3, 2, 4, 2) has 4 * 3 * 5 * 3 = 180 patterns: codes 0..179.
        lattice = PatternLattice(PatternSpace(self.CARDS))
        with pytest.raises(PatternError):
            PatternCodes(lattice, np.array(codes))
        PatternCodes(lattice, np.array([0, 179]))

    def test_object_codes(self):
        # 45 binary attributes: codes are Python ints in an object array.
        space = PatternSpace((2,) * 45)
        lattice = PatternLattice(space)
        rng = np.random.default_rng(4)
        patterns = sorted({space.random_pattern(rng) for _ in range(30)})
        codes = lattice.encode(patterns)
        assert codes.dtype == object and codes[-1] > 2**63
        coded = PatternCodes(lattice, codes)
        assert coded == patterns and patterns[-1] in coded
        assert Pattern.of(*([X] * 44 + [2])) not in coded
        assert np.array_equal(coded.digits(), lattice.digits(codes))
        wider = PatternLattice(PatternSpace((3,) * 45))
        assert coded == PatternCodes(wider, wider.encode(patterns))
        with pytest.raises(PatternError):
            PatternCodes(lattice, codes[::-1])
        with pytest.raises(PatternError):
            PatternCodes(lattice, np.array([0, 3**45], dtype=object))


# ----------------------------------------------------------------------
# graph moves against PatternSpace's pattern-level helpers
# ----------------------------------------------------------------------
class TestMoves:
    @pytest.mark.parametrize("cards", ALL_SPACES)
    def test_parents(self, cards):
        space = PatternSpace(cards)
        lattice = PatternLattice(space)
        patterns = list(space.all_patterns())
        rows, parents = lattice.parents(lattice.encode(patterns))
        grouped = by_row(rows, parents, len(patterns))
        for pattern, codes in zip(patterns, grouped):
            assert lattice.decode(np.array(codes, dtype=np.int64)) == list(
                pattern.parents()
            )

    @pytest.mark.parametrize("cards", ALL_SPACES)
    def test_children(self, cards):
        space = PatternSpace(cards)
        lattice = PatternLattice(space)
        patterns = list(space.all_patterns())
        for pattern in patterns:
            children = lattice.children(lattice.encode([pattern]))
            assert lattice.decode(children) == list(space.children(pattern))
        children = lattice.children(lattice.encode(patterns))
        assert children.dtype == np.int64
        assert sorted(lattice.decode(children)) == sorted(
            child for pattern in patterns for child in space.children(pattern)
        )
        assert lattice.children(lattice.root()[:0]).size == 0

    @pytest.mark.parametrize("cards", ALL_SPACES)
    def test_rule1_children(self, cards):
        space = PatternSpace(cards)
        lattice = PatternLattice(space)
        patterns = list(space.all_patterns())
        grouped = [[] for _ in patterns]
        for attribute, rows, children in lattice.rule1_children(
            lattice.encode(patterns)
        ):
            assert children.shape == (len(rows), cards[attribute])
            for row, family in zip(rows.tolist(), children.tolist()):
                grouped[row].extend(family)
        for pattern, codes in zip(patterns, grouped):
            expected = space.rule1_children(pattern)
            assert lattice.decode(np.array(codes, dtype=np.int64)) == expected

    @pytest.mark.parametrize("cards", ALL_SPACES)
    def test_rule2_parents_and_families(self, cards):
        space = PatternSpace(cards)
        lattice = PatternLattice(space)
        patterns = list(space.all_patterns())
        codes = lattice.encode(patterns)
        grouped = [[] for _ in patterns]
        for pivot, rows, parents in lattice.rule2_parents(codes):
            family = lattice.family(parents, pivot)
            for row, parent, siblings in zip(
                rows.tolist(), lattice.decode(parents), family
            ):
                grouped[row].append(parent)
                # The generator is the parent's Rule-2 child, a member of
                # the sibling family at the pivot.
                assert parent.rightmost_nondeterministic() == pivot
                assert space.rule2_child(parent) == patterns[row]
                assert lattice.decode(siblings) == space.sibling_family(
                    parent, pivot
                )
        for pattern, parents in zip(patterns, grouped):
            assert parents == space.rule2_parents(pattern)

    @pytest.mark.parametrize("cards", ALL_SPACES)
    def test_sibling_families(self, cards):
        space = PatternSpace(cards)
        lattice = PatternLattice(space)
        patterns = list(space.all_patterns())
        codes = lattice.encode(patterns)
        for attribute in range(space.d):
            free = [i for i, p in enumerate(patterns) if p[attribute] == X]
            family = lattice.family(codes[free], attribute)
            for row, siblings in zip(free, family):
                assert lattice.decode(siblings) == space.sibling_family(
                    patterns[row], attribute
                )


class TestWideSpaces:
    """Π(c_i+1) >= 2**63: codes are Python ints in object arrays."""

    def test_dtype_switch(self):
        assert PatternLattice(PatternSpace((2,) * 39)).dtype == np.int64
        assert PatternLattice(PatternSpace((2,) * 40)).dtype == object

    def test_moves_match_pattern_helpers(self):
        space = PatternSpace((2,) * 40 + (3, 1, 4, 2, 5))
        lattice = PatternLattice(space)
        assert lattice.dtype == object
        rng = np.random.default_rng(11)
        patterns = [space.random_pattern(rng) for _ in range(40)]
        patterns += [space.root(), Pattern([v - 1 for v in space.cardinalities])]
        codes = lattice.encode(patterns)
        assert codes.dtype == object
        assert lattice.decode(codes) == patterns
        assert lattice.decode(np.sort(codes)) == sorted(patterns)
        rows, parents = lattice.parents(codes)
        for pattern, group in zip(patterns, by_row(rows, parents, len(patterns))):
            assert lattice.decode(np.array(group, dtype=object)) == list(
                pattern.parents()
            )
        children = [[] for _ in patterns]
        for attribute, rows, family in lattice.rule1_children(codes):
            for row, siblings in zip(rows.tolist(), family):
                children[row].extend(lattice.decode(siblings))
        for pattern, expected in zip(patterns, children):
            assert space.rule1_children(pattern) == expected
        assert lattice.children(codes).dtype == object
        for pattern, code in zip(patterns, codes):
            children = lattice.children(np.array([code], dtype=object))
            assert lattice.decode(children) == list(space.children(pattern))
        generated = [[] for _ in patterns]
        for _, rows, parents in lattice.rule2_parents(codes):
            for row, parent in zip(rows.tolist(), lattice.decode(parents)):
                generated[row].append(parent)
        for pattern, expected in zip(patterns, generated):
            assert space.rule2_parents(pattern) == expected
        assert (index_of(np.sort(codes), codes) >= 0).all()

    def test_decode_builds_what_the_validating_constructor_builds(self):
        space = PatternSpace((2,) * 45 + (3, 1))
        lattice = PatternLattice(space)
        assert lattice.dtype == object
        draw = random.Random(5).randrange
        sample = [0, space.node_count() - 1]
        sample += [draw(space.node_count()) for _ in range(300)]
        check_decode(lattice, np.array(sample, dtype=object))

    def test_pattern_breaker_level_capped(self):
        # 45 binary attributes, mostly 0: shallow MUPs everywhere.  The
        # counters, level histogram and MUP digest were recorded from the
        # pattern-object implementation.
        dataset = random_categorical_dataset(300, (2,) * 45, seed=5, skew=2.5)
        assert PatternSpace.for_dataset(dataset).node_count() > 2**63
        result = pattern_breaker(dataset, 30, max_level=3)
        assert counters(result.stats) == (30893, 15790, 15103)
        assert result.level_histogram() == {1: 42, 2: 102, 3: 211}
        text = "\n".join(str(p) for p in result.mups).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == "b815eed50e7b3d3d"


# ----------------------------------------------------------------------
# the group-by counter
# ----------------------------------------------------------------------
def random_codes(lattice, space, count, seed):
    """``count`` random patterns of every level, as codes."""
    rng = np.random.default_rng(seed)
    patterns = [space.random_pattern(rng) for _ in range(count)]
    return lattice.encode(patterns + [Pattern.root(space.d)])


class TestGroupCounter:
    def scanned(self, dataset, lattice, codes):
        return [coverage_scan(dataset, p) for p in lattice.decode(codes)]

    def counted(self, dataset, lattice, codes):
        counter = GroupCounter(lattice, *dataset.unique_rows())
        return counter(lattice.digits(codes)).tolist()

    @pytest.mark.parametrize(
        "cards,n",
        [((3, 1, 4, 2), 200), ((1, 1, 2), 30), ((5, 3), 1), ((4, 2, 3), 0)],
        ids=["mixed", "cardinality-1", "one-row", "empty"],
    )
    def test_matches_a_row_scan(self, cards, n):
        dataset = random_categorical_dataset(n, cards, seed=n, skew=1.2)
        space = PatternSpace.for_dataset(dataset)
        lattice = PatternLattice(space)
        codes = random_codes(lattice, space, 300, seed=len(cards))
        assert lattice.dtype == np.int64
        expected = self.scanned(dataset, lattice, codes)
        assert self.counted(dataset, lattice, codes) == expected
        if n == 0:
            assert not any(expected)

    def test_object_codes(self):
        dataset = random_categorical_dataset(120, (2,) * 45, seed=5, skew=2.0)
        space = PatternSpace.for_dataset(dataset)
        lattice = PatternLattice(space)
        assert lattice.dtype == object
        codes = random_codes(lattice, space, 200, seed=1)
        # Random patterns this wide are almost all empty; add every
        # pattern of up to two attributes fixed at 0.
        narrow = [
            Pattern.root(45).with_value(a, 0).with_value(b, 0)
            for a in range(0, 45, 4)
            for b in range(a + 1, 45, 7)
        ]
        codes = np.concatenate([codes, lattice.encode(narrow)])
        expected = self.scanned(dataset, lattice, codes)
        assert sum(expected) > 0
        assert self.counted(dataset, lattice, codes) == expected

    def test_more_than_63_attributes(self):
        dataset = random_categorical_dataset(40, (2,) * 70, seed=2, skew=3.0)
        space = PatternSpace.for_dataset(dataset)
        lattice = PatternLattice(space)
        patterns = [
            Pattern.root(70).with_value(a, 0).with_value(69 - a, 0)
            for a in range(35)
        ] + [Pattern.root(70).with_value(68, 1)]
        codes = lattice.encode(patterns)
        expected = self.scanned(dataset, lattice, codes)
        assert sum(expected) > 0
        assert self.counted(dataset, lattice, codes) == expected

    def test_bincount_and_sort_branches(self, monkeypatch):
        """Single attributes (40 slots) tally with bincount; pairs and the
        triple (1,600 and 64,000 slots over 50 rows) sort."""
        calls = {"_tally": 0, "_sorted": 0}
        for name in calls:
            original = getattr(GroupCounter, name)

            def spy(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(GroupCounter, name, spy)
        dataset = random_categorical_dataset(50, (40, 40, 40), seed=8)
        space = PatternSpace.for_dataset(dataset)
        lattice = PatternLattice(space)
        rows = dataset.unique_rows()[0][:20]
        patterns = [Pattern(row) for row in rows.tolist()]
        patterns += [p.with_value(0, X) for p in patterns]
        patterns += [p.with_value(1, X) for p in patterns]
        codes = np.concatenate(
            [lattice.encode(patterns), random_codes(lattice, space, 200, 3)]
        )
        expected = self.scanned(dataset, lattice, codes)
        assert self.counted(dataset, lattice, codes) == expected
        assert calls["_tally"] >= 2  # the root and the single attributes
        assert calls["_sorted"] >= 4  # three pairs and the triple

    def test_one_subset_per_pass(self, monkeypatch):
        """With one row key per pass, every small subset is tallied alone."""
        calls = []
        original = GroupCounter._tally

        def spy(self, subsets, values, local):
            calls.append(len(subsets))
            return original(self, subsets, values, local)

        monkeypatch.setattr(GroupCounter, "_tally", spy)
        monkeypatch.setattr(lattice_module, "_PASS_ENTRIES", 1)
        dataset = random_categorical_dataset(200, (3, 1, 4, 2), seed=200, skew=1.2)
        space = PatternSpace.for_dataset(dataset)
        lattice = PatternLattice(space)
        codes = random_codes(lattice, space, 300, seed=4)
        assert self.counted(dataset, lattice, codes) == self.scanned(
            dataset, lattice, codes
        )
        assert len(calls) > 4 and set(calls) == {1}

    def test_keys_past_int64(self):
        """Three attributes of 2**21 values: the triple's key space passes
        int64, so its keys are Python ints."""
        big = 1 << 21
        rows = [[big - 1, 0, 5], [big - 1, 0, 5], [3, big - 2, 5], [0, 0, 0]]
        dataset = Dataset.from_rows(
            rows, schema=Schema.of(["a", "b", "c"], [big, big, big])
        )
        space = PatternSpace.for_dataset(dataset)
        lattice = PatternLattice(space)
        patterns = [Pattern(row) for row in rows] + [
            Pattern.of(big - 1, 0, X),
            Pattern.of(X, 0, X),
            Pattern.of(3, 0, 5),
        ]
        codes = lattice.encode(patterns)
        assert self.counted(dataset, lattice, codes) == [2, 2, 1, 1, 2, 3, 0]


# ----------------------------------------------------------------------
# the walk
# ----------------------------------------------------------------------
class TestWalk:
    def setup_walk(self, n=150, seed=6):
        dataset = random_categorical_dataset(n, (3, 2, 4, 2), seed=seed, skew=1.0)
        lattice = PatternLattice(PatternSpace.for_dataset(dataset))
        return dataset, lattice, GroupCounter(lattice, *dataset.unique_rows())

    def test_the_root_is_always_counted(self):
        """An uncovered root is counted and ends the walk."""
        dataset, lattice, counter = self.setup_walk(n=5)
        walk = walk_levels(lattice, counter, 10)
        assert walk.mups() == [Pattern.root(4)]
        assert walk.stats.coverage_evaluations == 1

    def test_min_parent_is_the_weakest_parent(self):
        dataset, lattice, counter = self.setup_walk()
        walk = walk_levels(lattice, counter, 1)
        for code, floor in zip(walk.codes.tolist(), walk.min_parent.tolist()):
            pattern = lattice.decode(np.array([code]))[0]
            parents = [coverage_scan(dataset, q) for q in pattern.parents()]
            assert floor == (min(parents) if parents else UNBOUNDED)


# ----------------------------------------------------------------------
# the walk in bounded chunks
# ----------------------------------------------------------------------
def subset_keys(digits):
    return [frozenset(np.flatnonzero(row).tolist()) for row in digits]


class TestChunkedWalk:
    """A level is pruned and counted in chunks of whole attribute subsets;
    the chunk size must not show in the answer."""

    @pytest.mark.parametrize("limit", [1, 3, 8, 1 << 15])
    def test_chunks_are_whole_subsets(self, limit, monkeypatch):
        monkeypatch.setattr(lattice_module, "_CHUNK_CANDIDATES", limit)
        rng = np.random.default_rng(limit)
        digits = rng.integers(0, 3, size=(200, 5)).astype(np.int8)
        digits[rng.random(200) < 0.3] = 0  # one large subset: the root's
        order, cuts = lattice_module._subset_chunks(digits)
        assert sorted(order.tolist()) == list(range(200))
        assert cuts[0] == 0 and cuts[-1] == 200
        keys = subset_keys(digits[order])
        chunks = [keys[a:b] for a, b in zip(cuts, cuts[1:])]
        assert all(chunks)
        seen = set()
        for chunk in chunks:
            subsets = set(chunk)
            assert not subsets & seen, "a subset was split across chunks"
            seen |= subsets
            assert len(chunk) <= limit or len(subsets) == 1
        if limit >= 200:
            assert len(chunks) == 1

    @pytest.mark.parametrize("limit", [1, 2, 7, 40])
    @pytest.mark.parametrize(
        "options", [{}, {"max_level": 2}], ids=["plain", "capped"]
    )
    def test_chunk_size_does_not_show(self, limit, options, monkeypatch):
        dataset = random_categorical_dataset(300, (3, 2, 4, 2, 3), seed=9, skew=1.1)
        lattice = PatternLattice(PatternSpace.for_dataset(dataset))
        counter = GroupCounter(lattice, *dataset.unique_rows())
        whole = walk_levels(lattice, counter, 9, **options)
        calls = []

        def spy(digits):
            assert digits.dtype == np.int64
            calls.append(set(subset_keys(digits)))
            return counter(digits)

        monkeypatch.setattr(lattice_module, "_CHUNK_CANDIDATES", limit)
        chunked = walk_levels(lattice, spy, 9, **options)
        assert by_code(chunked) == by_code(whole)
        assert chunked.mups() == whole.mups()
        whole.stats.seconds = chunked.stats.seconds = 0.0
        assert chunked.stats == whole.stats
        # Each subset reaches the counter in one call per level (a level's
        # candidates all fix the same number of attributes).
        counted = [subset for call in calls for subset in call]
        assert len(counted) == len(set(counted))
        if limit == 1:
            assert all(len(call) == 1 for call in calls)

    @pytest.mark.parametrize("cardinality", [127, 128, 200])
    def test_wide_digits(self, cardinality, monkeypatch):
        """Digits are ``int8`` up to 127 values; past that both walks
        keep ``int64`` ones and answer the same."""
        monkeypatch.setattr(lattice_module, "_CHUNK_CANDIDATES", 16)
        dataset = random_categorical_dataset(1_500, (cardinality, 3, 2), seed=3)
        assert dataset.rows[:, 0].max() == cardinality - 1
        result = on_both_walks(pattern_breaker, dataset, 3)
        mups, stats = reference_breaker(dataset, 3)
        assert result.as_set() == mups == naive_mups(dataset, 3).as_set()
        assert counters(result.stats) == stats
        assert any(p[0] == cardinality - 1 for p in mups)

    def test_object_codes_and_subset_keys(self, monkeypatch):
        """66 binary attributes: codes and subset keys are Python ints."""
        monkeypatch.setattr(lattice_module, "_CHUNK_CANDIDATES", 64)
        dataset = random_categorical_dataset(80, (2,) * 66, seed=7, skew=2.0)
        assert PatternLattice(PatternSpace.for_dataset(dataset)).dtype == object
        result = pattern_breaker(dataset, 12, max_level=2)
        mups, stats = reference_breaker(dataset, 12, max_level=2)
        assert mups and result.as_set() == mups
        assert counters(result.stats) == stats
        assert stats[2] > 0


# ----------------------------------------------------------------------
# the walk on the coverage cube
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "cardinalities,max_level,structure",
    [
        ((1,) * 20, None, "CoverageCube"),
        ((16, 61_680), None, "GroupCounter"),
        ((1,) * 7, 0, "CoverageCube"),
        ((2, 42), 0, "GroupCounter"),
    ],
    ids=["cap-cells", "cap-plus-one", "ratio-128", "ratio-129"],
)
def test_the_cube_rule_chooses_the_walk(cardinalities, max_level, structure, monkeypatch):
    """At the shipped constants: 2**20 cells take the cube and 2**20 + 1
    (17 · 61,681) the group-by walk; at level 0 one pattern lies within
    the cap, so 128 cells take the cube and 129 (3 · 43) the group-by
    walk."""
    dataset = random_categorical_dataset(20, cardinalities, seed=1)
    assert cube_fits(cardinalities, max_level) == (structure == "CoverageCube")
    made = spy_counts(monkeypatch)
    walk = walk_dataset(dataset, dataset.n + 1, max_level)
    assert made == [structure]
    assert walk.mups() == [Pattern.root(len(cardinalities))]


@pytest.mark.parametrize("max_level", [None, 2], ids=["plain", "capped"])
def test_the_cube_walk_generates_no_level(max_level, monkeypatch):
    """On the cube the walk's nodes, counters and rows come from
    whole-cube masks: no level of Rule-1 children is generated, while the
    group-by walk still generates every level."""
    called = []
    rule1_level = lattice_module._rule1_level
    rule1_children = PatternLattice._rule1_children

    def spy_level(*args):
        called.append("_rule1_level")
        return rule1_level(*args)

    def spy_children(self, *args):
        called.append("_rule1_children")
        return rule1_children(self, *args)

    monkeypatch.setattr(lattice_module, "_rule1_level", spy_level)
    monkeypatch.setattr(PatternLattice, "_rule1_children", spy_children)
    dataset = random_categorical_dataset(300, (3, 2, 4, 2), seed=5, skew=1.0)
    assert cube_fits(PatternSpace.for_dataset(dataset).cardinalities, max_level)
    cube = walk_dataset(dataset, 5, max_level)
    assert called == []
    walked = grouped(walk_dataset, dataset, 5, max_level)
    assert {"_rule1_level", "_rule1_children"} <= set(called)
    assert by_code(cube) == by_code(walked)


# ----------------------------------------------------------------------
# the algorithms
# ----------------------------------------------------------------------
def counters(stats):
    return (stats.nodes_generated, stats.coverage_evaluations, stats.pruned)


def reference_breaker(dataset, threshold, max_level=None):
    """PATTERN-BREAKER on ``Pattern`` objects (one per node)."""
    space = PatternSpace.for_dataset(dataset)
    oracle = CoverageOracle(dataset)
    depth = space.d if max_level is None else min(max_level, space.d)
    generated = evaluated = pruned = 0
    frontier, covered_prev, mups = [space.root()], set(), set()
    for level in range(depth + 1):
        if not frontier:
            break
        generated += len(frontier)
        survivors = [
            p for p in frontier
            if level == 0 or all(q in covered_prev for q in p.parents())
        ]
        pruned += len(frontier) - len(survivors)
        evaluated += len(survivors)
        counts = oracle.coverage_many(survivors)
        covered_prev = {p for p, c in zip(survivors, counts) if c >= threshold}
        mups |= {p for p, c in zip(survivors, counts) if c < threshold}
        frontier = [] if level == depth else [
            child for p in covered_prev for child in space.rule1_children(p)
        ]
    return mups, (generated, evaluated, pruned)


def reference_combiner(dataset, threshold):
    """PATTERN-COMBINER on ``Pattern`` objects (one dict entry per node)."""
    space = PatternSpace.for_dataset(dataset)
    unique, counts = dataset.unique_rows()
    present = {Pattern(row): int(c) for row, c in zip(unique.tolist(), counts)}
    combos = [Pattern(c) for c in space.all_combinations()]
    generated = evaluated = len(combos)
    pruned = 0
    count_map = {p: present.get(p, 0) for p in combos}
    count_map = {p: c for p, c in count_map.items() if c < threshold}
    mups = set()
    while count_map:
        next_count = {}
        for pattern in count_map:
            for parent in space.rule2_parents(pattern):
                generated += 1
                evaluated += 1
                family = space.sibling_family(
                    parent, parent.rightmost_nondeterministic()
                )
                if all(s in count_map for s in family):
                    total = sum(count_map[s] for s in family)
                    if total < threshold:
                        next_count[parent] = total
                        continue
                pruned += 1
        mups |= {
            p for p in count_map
            if all(q not in next_count for q in p.parents())
        }
        count_map = next_count
    return mups, (generated, evaluated, pruned)


def combiner_paths(dataset, threshold):
    """PATTERN-COMBINER on its count table, checked against a run over the
    table's cap (forced to 0), which looks codes up in sorted levels: both
    must return the same MUP list and counters."""
    table = pattern_combiner(dataset, threshold)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(combiner_module, "_TABLE_BYTES", 0)
        searched = pattern_combiner(dataset, threshold)
    assert searched.mups == table.mups
    assert counters(searched.stats) == counters(table.stats)
    return table


def breaker_paths(dataset, threshold, max_level=None):
    """PATTERN-BREAKER on the coverage cube, checked against its group-by
    walk (the cube's cell cap forced to 0): both must return the same MUP
    list and counters."""
    return on_both_walks(pattern_breaker, dataset, threshold, max_level)


def test_the_table_cap_chooses_the_lookup(monkeypatch):
    dataset = random_categorical_dataset(40, (2, 3, 2), seed=3)
    cells = PatternSpace.for_dataset(dataset).node_count()
    made = []

    def spy(lookup):
        def build(*args):
            made.append(lookup.__name__)
            return lookup(*args)

        return build

    for name in ("_CountTable", "_SortedLevel"):
        monkeypatch.setattr(combiner_module, name, spy(getattr(combiner_module, name)))
    for cap in (8 * cells, 8 * cells - 1):
        monkeypatch.setattr(combiner_module, "_TABLE_BYTES", cap)
        pattern_combiner(dataset, 3)
    assert made == ["_CountTable", "_SortedLevel"]


def random_cases(count=12, seed=2024):
    rng = np.random.default_rng(seed)
    cases = []
    for index in range(count):
        d = int(rng.integers(1, 5))
        cards = tuple(int(c) for c in rng.integers(1, 5, size=d))
        n = [0, 1, 7, 40, 90][index % 5]
        tau = [1, 2, 5, n + 1][int(rng.integers(0, 4))]
        cases.append((cards, n, tau, int(rng.integers(0, 2**16))))
    return cases


@pytest.mark.parametrize("cards,n,tau,seed", random_cases())
def test_algorithms_match_naive_and_pattern_references(cards, n, tau, seed):
    dataset = random_categorical_dataset(n, cards, seed=seed, skew=0.9)
    expected = naive_mups(dataset, tau).as_set()
    breaker = breaker_paths(dataset, tau)
    combiner = combiner_paths(dataset, tau)
    assert breaker.as_set() == expected
    assert combiner.as_set() == expected
    assert (expected, counters(breaker.stats)) == reference_breaker(dataset, tau)
    assert (expected, counters(combiner.stats)) == reference_combiner(dataset, tau)
    # The same walk counted one pattern at a time by an oracle agrees.
    oracle = CoverageOracle(dataset)
    per_pattern = walk_levels(
        PatternLattice(PatternSpace.for_dataset(dataset)),
        lambda digits: oracle.coverage_many(
            [Pattern(values) for values in (digits - 1).tolist()]
        ),
        tau,
    )
    assert set(per_pattern.mups()) == expected
    assert counters(per_pattern.stats) == counters(breaker.stats)


@pytest.mark.parametrize("n", [0, 5])
def test_threshold_above_n_leaves_only_the_root(n):
    dataset = random_categorical_dataset(n, (2, 3), seed=1)
    for algorithm in (breaker_paths, combiner_paths):
        assert {str(p) for p in algorithm(dataset, n + 1)} == {"XX"}


@pytest.mark.parametrize("max_level", [0, 1, 2, 3])
def test_breaker_level_cap_matches_reference(max_level):
    dataset = random_categorical_dataset(80, (2, 3, 2, 2), seed=4, skew=1.0)
    result = breaker_paths(dataset, 6, max_level=max_level)
    mups, stats = reference_breaker(dataset, 6, max_level=max_level)
    assert result.as_set() == mups
    assert counters(result.stats) == stats


#: (nodes_generated, coverage_evaluations, pruned) on the golden fixtures,
#: recorded from the pattern-object implementations these replaced.
#: PATTERN-BREAKER's are checked on both of its walks and
#: PATTERN-COMBINER's on both of its lookup paths.
GOLDEN_COUNTERS = {
    ("example1", 1, "pattern_breaker"): (19, 19, 0),
    ("example1", 1, "pattern_combiner"): (13, 13, 0),
    ("example1", 2, "pattern_breaker"): (19, 16, 3),
    ("example1", 2, "pattern_combiner"): (22, 22, 6),
    ("skewed_small", 4, "pattern_breaker"): (88, 58, 30),
    ("skewed_small", 4, "pattern_combiner"): (100, 100, 1),
    ("skewed_small", 8, "pattern_breaker"): (88, 54, 34),
    ("skewed_small", 8, "pattern_combiner"): (113, 113, 10),
    ("sparse_wide", 3, "pattern_breaker"): (41, 28, 13),
    ("sparse_wide", 3, "pattern_combiner"): (86, 86, 2),
}


def load_fixture(name):
    entry = json.loads((FIXTURES / "expected_mups.json").read_text())[name]
    with open(FIXTURES / f"{name}.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[int(cell) for cell in row] for row in reader if row]
    return Dataset.from_rows(rows, schema=Schema.of(header, entry["cardinalities"]))


@pytest.mark.parametrize(
    "fixture,tau,algorithm",
    sorted(GOLDEN_COUNTERS),
    ids=["-".join(map(str, key)) for key in sorted(GOLDEN_COUNTERS)],
)
def test_golden_counters(fixture, tau, algorithm):
    fn = {"pattern_breaker": breaker_paths, "pattern_combiner": combiner_paths}
    result = fn[algorithm](load_fixture(fixture), tau)
    assert counters(result.stats) == GOLDEN_COUNTERS[(fixture, tau, algorithm)]
