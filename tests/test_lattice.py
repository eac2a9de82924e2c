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
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.coverage import CoverageOracle
from repro.core.engine import PackedBitsetEngine, ShardedEngine
from repro.core.lattice import PatternLattice, contains, index_of
from repro.core.mups import naive_mups, pattern_breaker, pattern_combiner
from repro.core.pattern import X, Pattern
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import random_categorical_dataset

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
        codes = lattice.combination_codes(index)
        assert np.array_equal(codes, lattice.encode(map(Pattern, combos.tolist())))
        assert np.all(np.diff(codes) > 0)

    def test_membership(self):
        sorted_codes = np.array([2, 5, 9], dtype=np.int64)
        queries = np.array([[9, 1], [5, 10]], dtype=np.int64)
        assert index_of(sorted_codes, queries).tolist() == [[2, -1], [1, -1]]
        assert contains(sorted_codes, queries).tolist() == [
            [True, False],
            [True, False],
        ]
        assert (index_of(sorted_codes[:0], queries) == -1).all()


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
        generated = [[] for _ in patterns]
        for _, rows, parents in lattice.rule2_parents(codes):
            for row, parent in zip(rows.tolist(), lattice.decode(parents)):
                generated[row].append(parent)
        for pattern, expected in zip(patterns, generated):
            assert space.rule2_parents(pattern) == expected
        assert contains(np.sort(codes), codes).all()

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
    breaker = pattern_breaker(dataset, tau)
    combiner = pattern_combiner(dataset, tau)
    assert breaker.as_set() == expected
    assert combiner.as_set() == expected
    assert (expected, counters(breaker.stats)) == reference_breaker(dataset, tau)
    assert (expected, counters(combiner.stats)) == reference_combiner(dataset, tau)
    without_masks = pattern_breaker(dataset, tau, use_masks=False)
    assert without_masks.as_set() == expected
    assert counters(without_masks.stats) == counters(breaker.stats)


@pytest.mark.parametrize("n", [0, 5])
def test_threshold_above_n_leaves_only_the_root(n):
    dataset = random_categorical_dataset(n, (2, 3), seed=1)
    for algorithm in (pattern_breaker, pattern_combiner):
        assert {str(p) for p in algorithm(dataset, n + 1)} == {"XX"}


@pytest.mark.parametrize("max_level", [0, 1, 2, 3])
def test_breaker_level_cap_matches_reference(max_level):
    dataset = random_categorical_dataset(80, (2, 3, 2, 2), seed=4, skew=1.0)
    result = pattern_breaker(dataset, 6, max_level=max_level)
    mups, stats = reference_breaker(dataset, 6, max_level=max_level)
    assert result.as_set() == mups
    assert counters(result.stats) == stats


#: (nodes_generated, coverage_evaluations, pruned) on the golden fixtures,
#: recorded from the pattern-object implementations these replaced.
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
    fn = {"pattern_breaker": pattern_breaker, "pattern_combiner": pattern_combiner}
    result = fn[algorithm](load_fixture(fixture), tau)
    assert counters(result.stats) == GOLDEN_COUNTERS[(fixture, tau, algorithm)]


# ----------------------------------------------------------------------
# restrict_children_many passes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["packed", "socket"])
def test_small_children_passes_change_nothing(backend, monkeypatch, tmp_path):
    """A level split into many ``restrict_children_many`` passes gives the
    same MUPs and counters as one pass per attribute."""
    import repro.core.engine.base as engine_base

    dataset = random_categorical_dataset(400, (3, 4, 2, 3, 2), seed=9, skew=0.7)

    def build():
        if backend == "packed":
            return PackedBitsetEngine(dataset)
        return ShardedEngine(dataset, shards=3, workers=2, spill_dir=str(tmp_path))

    engine = build()
    try:
        whole = pattern_breaker(dataset, 5, engine=engine)
    finally:
        engine.close()
    # One family per pass.
    monkeypatch.setattr(engine_base, "CHILDREN_PASS_BYTES", 1)
    calls = []
    engine = build()
    original = engine.restrict_children_many

    def spy(masks, attribute):
        calls.append(len(masks))
        return original(masks, attribute)

    engine.restrict_children_many = spy
    try:
        split = pattern_breaker(dataset, 5, engine=engine)
    finally:
        engine.close()
    assert max(calls) > 1  # some level really was split into passes
    assert split.as_set() == whole.as_set()
    assert counters(split.stats) == counters(whole.stats)
